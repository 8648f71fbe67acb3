"""Fault injection: break one derivation route at a time and watch the checks fail.

Each fault is monkeypatched into a single module binding.  Sequential sweeps
see it directly; the children of a pooled sweep see it because they are
forked from the patched process.
"""

import functools
from fractions import Fraction

import pytest
from conftest import WORKERS, fork_only

from milnor_mu import bundles, cli, quotient, verify
from milnor_mu.bundles import DerivationMismatch
from milnor_mu.quotient import DichotomyViolationError
from milnor_mu.qz import AmbiguousResidue, reduce_mod_z

pytestmark = pytest.mark.usefixtures("two_usable_cpus")

WINDOW = (-200, 200)
ADMISSIBLE_IN_WINDOW = sum(
    1 for h in range(WINDOW[0], WINDOW[1] + 1) if h * (h - 1) % 56 == 0
)

def closed_form_off_by_one(monkeypatch, only_h=None):
    real = quotient._closed_form_scaled

    def faulty(h):
        lo, hi = real(h)
        if only_h is not None and h != only_h:
            return lo, hi
        return tuple(sorted(((lo + 1) % 1792, (hi + 1) % 1792)))

    monkeypatch.setattr(quotient, "_closed_form_scaled", faulty)


def shifted_p1(monkeypatch, module=quotient, only_h=None):
    # the one p1 helper, where module binds it: the quotient kernel reads it
    # there, and the bundles records (so mu_total_space) in bundles
    real = module._p1
    monkeypatch.setattr(module, "_p1",
                        lambda h: real(h) + 1 if only_h is None or h == only_h else real(h))


def oracle_says_sum_14m2(monkeypatch, only_h=None):
    # the sweep's own oracle, at its scale 224: {15/32, 17/32}
    real = verify._direct_mu_pair
    monkeypatch.setattr(verify, "_direct_mu_pair",
                        lambda h: (105, 119) if only_h is None or h == only_h else real(h))


def oracle_off_on_odd_h(monkeypatch):
    # {15/32, 17/32} on odd h only: two value sets in a sweep, half its rows failing
    real = verify._direct_mu_pair
    monkeypatch.setattr(verify, "_direct_mu_pair", lambda h: (105, 119) if h % 2 else real(h))


def oracle_off_in_one_k_of_four(monkeypatch):
    # {15/32, 17/32} where h = 56k + r has k = 3 mod 4: a fault that changes
    # within one period (224) of h, so check_case must test all four k
    real = verify._direct_mu_pair
    monkeypatch.setattr(verify, "_direct_mu_pair",
                        lambda h: (105, 119) if h // 56 % 4 == 3 else real(h))


def target_says_sum_14m2(monkeypatch):
    # the sweep's one target, as the oracle's pair at scale 224: {15/32, 17/32}
    monkeypatch.setattr(verify, "_TARGET", (105, 119))


def rp7_pair_forgotten(monkeypatch):
    monkeypatch.setattr(quotient, "_RP7_SCALED", (0, 0))


# fault -> verdict the failed rows must carry
FAULTS = {
    "closed_form": (closed_form_off_by_one, "derivation_mismatch"),
    "assembly_input": (shifted_p1, "derivation_mismatch"),
    "oracle": (oracle_says_sum_14m2, "RP7"),
    "target": (target_says_sum_14m2, "RP7"),
    "dichotomy": (rp7_pair_forgotten, "dichotomy_violation"),
}


def expand_runs(chunk):
    """The rows (h, verdict, passed, pair) of a ``_verify_chunk`` result, in order.

    Each run (outcome, hs) of its runs, the third of (checked, failed, runs),
    gives one row per h in hs, with its outcome (verdict, passed, pair) after
    the h.
    """
    return [(h, *outcome) for outcome, hs in chunk[2] for h in hs]


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


def rendered(workers):
    """(checked, failed, csv lines) of ``verify --format csv`` over WINDOW.

    They are added up over the spans that ``--parallel workers`` decides, each
    rendered in the process that decides it, so with workers a forked child's
    spans come through its pipe.
    """
    checked, failed, chunks = zip(*verify._map_spans(
        functools.partial(cli._render_span, "csv"), *WINDOW, workers))
    return sum(checked), sum(failed), "".join(chunks)


def swept(workers):
    """(h, verdict, passed) of each row over WINDOW, in h order.

    Without workers these are the rows of ``verify_range``.  With them they
    are read back from the csv lines of :func:`rendered`, after its counts
    are checked against the lines.
    """
    if workers is None:
        return [(r.h, r.verdict, r.passed) for r in verify.verify_range(*WINDOW)]
    checked, failed, text = rendered(workers)
    lines = [line.split(",") for line in text.splitlines()]
    assert (checked, failed) == (len(lines), sum(1 for *_, ok in lines if ok != "true"))
    return [(int(h), verdict, ok == "true") for h, _, _, verdict, ok in lines]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_row_fails_and_the_sweep_completes(monkeypatch, fault, workers):
    inject, verdict = FAULTS[fault]
    inject(monkeypatch)
    rows = swept(workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    assert not any(passed for _, _, passed in rows)
    assert {row_verdict for _, row_verdict, _ in rows} == {verdict}


@fork_only
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_pooled_rows_equal_sequential_rows(monkeypatch, fault):
    FAULTS[fault][0](monkeypatch)
    assert rendered(2) == rendered(None)


def test_off_target_oracle_set_reaches_the_rows(monkeypatch):
    oracle_says_sum_14m2(monkeypatch)
    rows = verify.verify_range(*WINDOW)
    assert {r.mu_set for r in rows} == {quotient.MU_RP7_SUM_14M2}
    assert len({id(r.mu_set) for r in rows}) == 1


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_worker_rows_stay_plain_ints(monkeypatch, fault):
    FAULTS[fault][0](monkeypatch)
    for h, verdict, passed, mu in expand_runs(verify._verify_chunk(WINDOW)):
        assert (type(h), type(verdict), passed) == (int, str, False)
        a, b = mu
        assert type(a) is type(b) is int and 0 <= a < b < 224


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_cli_verify_exits_2(monkeypatch, capsys, fault):
    FAULTS[fault][0](monkeypatch)
    code = cli.main(["verify", "--h-range", "%d..%d" % WINDOW, "--format", "csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"failed {ADMISSIBLE_IN_WINDOW}" in err


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_cli_cases_fails_only_under_the_oracle_and_target_faults(monkeypatch, capsys, fault):
    # cases decides its check (c) with the sweep's oracle and target; it never
    # calls the kernel, so the kernel faults leave it passing
    FAULTS[fault][0](monkeypatch)
    code = cli.main(["cases", "--k-range", "-300..300", "--format", "csv"])
    capsys.readouterr()
    assert code == (2 if fault in ("oracle", "target") else 0)


def test_cli_cases_fails_over_two_times_ten_to_the_eighteen_k(monkeypatch, capsys, time_limit):
    # a failing case keeps only its period's failing k, so the width costs nothing;
    # the rows are asserted too, since a MemoryError would also exit 2
    target_says_sum_14m2(monkeypatch)
    code = cli.main(["cases", "--k-range", f"{-(10**18)}..{10**18}", "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "case,h_residue,quad_constant,linear_constant,matches",
        "I,0,0,-1/32,false",
        "II,1,0,1/32,false",
        "III,8,1/2,15/32,false",
        "IV,49,0,1/32,false",
    ]


@pytest.mark.parametrize("which, constant, line", [
    # the constants at scale: -1/31 is off the 1/32 grid of the linear constant,
    # 1/113 off the 1/112 grid of the quadratic one
    (1, Fraction(-32, 31), "I,0,0,-1/31,false"),
    (0, Fraction(112, 113), "I,0,1/113,-1/32,false"),
])
def test_cli_cases_fails_under_a_constant_off_its_grid(monkeypatch, capsys, which, constant,
                                                       line):
    constants = list(verify._CASE_CONSTANTS[verify.Case.I])
    constants[which] = constant
    monkeypatch.setitem(verify._CASE_CONSTANTS, verify.Case.I, tuple(constants))
    code = cli.main(["cases", "--k-range", "-1000..1000", "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out.splitlines()[1] == line


@pytest.mark.parametrize("period, missing", [(223, "168"), (112, "112, 168")])
def test_cli_cases_fails_under_a_shrunk_period(monkeypatch, capsys, period, missing):
    # the first case raises: h = 56k over k in [0, 100] reaches 0, 56, 112 and 168 mod 224
    monkeypatch.setattr(verify, "_CASE_PERIOD", period)
    code = cli.main(["cases", "--k-range", "0..100", "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"milnor-mu: case I over k in [0, 100] left h = {missing} mod 224 undecided\n"


def test_cli_cases_fails_under_an_oracle_fault_in_one_k_of_four(monkeypatch, capsys):
    oracle_off_in_one_k_of_four(monkeypatch)
    code = cli.main(["cases", "--k-range", "-300..300", "--format", "csv"])
    capsys.readouterr()
    assert code == 2


#: The faults that take only_h: fault -> verdict of the one row they fail.
ONLY_H_FAULTS = {name: FAULTS[name] for name in ("closed_form", "assembly_input", "oracle")}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", sorted(ONLY_H_FAULTS))
def test_fault_at_one_h_fails_only_that_row(monkeypatch, fault, workers):
    inject, verdict = ONLY_H_FAULTS[fault]
    inject(monkeypatch, only_h=8)
    rows = swept(workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    failed = [(h, row_verdict) for h, row_verdict, passed in rows if not passed]
    assert failed == [(8, verdict)]


@pytest.mark.parametrize("fault", ["closed_form", "assembly_input"])
def test_quotient_derivation_mismatch_exits_2(monkeypatch, capsys, fault):
    FAULTS[fault][0](monkeypatch)
    code = cli.main(["quotient", "--h", "8", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "closed form" in err


def test_invariants_derivation_mismatch_exits_2(monkeypatch, capsys):
    shifted_p1(monkeypatch, module=bundles)
    code = cli.main(["invariants", "--h", "8", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "closed form" in err
