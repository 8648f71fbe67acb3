"""The runs of a sweep span decode to the rows of a plain per-h loop.

``verify._verify_chunk`` gives each span as runs, each an outcome and the
consecutive h that share it, and ``verify_range`` expands the same runs.  So
the reference here is computed h by h from the seams that
``tests/test_faults.py`` patches, and ``verify``'s json, table and csv
output is compared with a rendering of that reference.
"""

import functools
from fractions import Fraction

import pytest
from test_cli import render_verify, run_verify
from test_faults import FAULTS, ONLY_H_FAULTS, WINDOW, WORKERS, expand_runs

from milnor_mu import quotient, verify
from milnor_mu.bundles import DerivationMismatch
from milnor_mu.quotient import DichotomyViolationError
from milnor_mu.qz import AmbiguousResidue, reduce_mod_z

#: Every fault of test_faults: each whole-route one, and each that takes
#: only_h at h = 8, where it fails one row in the middle of a run.
ALL_FAULTS = {
    None: lambda monkeypatch: None,
    **{name: inject for name, (inject, _) in FAULTS.items()},
    **{f"{name}_at_8": functools.partial(inject, only_h=8)
       for name, (inject, _) in ONLY_H_FAULTS.items()},
}


@pytest.fixture(autouse=True)
def two_usable_cpus(monkeypatch):
    # so that a pooled sweep forks where this process may run on one CPU only
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


def per_h_rows(lo, hi):
    """(h, verdict, passed, pair) for each admissible h in [lo, hi], h by h.

    Each h is tested for admissibility on its own and reads the oracle, the
    target and the kernel as the modules bind them now.
    """
    rows = []
    for h in range(lo, hi + 1):
        if h * (h - 1) % 56:
            continue
        pair = verify._direct_mu_pair(h)
        target = verify._TARGET
        try:
            scaled, verdict = verify._mu_quotient_scaled(h)
        except DerivationMismatch:
            rows.append((h, "derivation_mismatch", False, pair))
            continue
        except DichotomyViolationError:
            rows.append((h, "dichotomy_violation", False, pair))
            continue
        passed = (pair == target and verdict == "RP7"
                  and scaled == tuple(quotient.MU_SCALE // 224 * v for v in target))
        rows.append((h, verdict, passed, pair))
    return rows


def reference_verify_rows(rows):
    """``VerifyRow``s of per-h rows, each value set built from its own fractions."""
    return [verify.VerifyRow(h, AmbiguousResidue.of(*(reduce_mod_z(Fraction(v, 224))
                                                     for v in pair)), verdict, passed)
            for h, verdict, passed, pair in rows]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", ALL_FAULTS, ids=str)
def test_runs_decode_to_the_per_h_rows(monkeypatch, fault, workers):
    ALL_FAULTS[fault](monkeypatch)
    spans = list(verify._map_spans(verify._verify_chunk, *WINDOW, workers))
    assert expand_runs(run for runs in spans for run in runs) == per_h_rows(*WINDOW)
    for runs in spans:
        assert all(hs for _, hs in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    if fault is None:
        assert all(len(runs) == 1 for runs in spans)
    elif fault.endswith("_at_8"):
        # the one span that holds h = 8 has three runs, and h = 8 alone in the middle
        [split] = [runs for runs in spans if len(runs) > 1]
        assert len(split) == 3 and split[1][1] == [8]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
@pytest.mark.parametrize("fault", ALL_FAULTS, ids=str)
def test_verify_output_equals_the_rendered_per_h_rows(capsys, monkeypatch, fault, fmt, workers):
    ALL_FAULTS[fault](monkeypatch)
    expected = render_verify(reference_verify_rows(per_h_rows(*WINDOW)), *WINDOW, fmt)
    assert expected[2] == (0 if fault is None else 2)
    assert run_verify(capsys, WINDOW, fmt, workers) == expected
