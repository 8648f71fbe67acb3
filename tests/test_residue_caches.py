"""The per-residue formula tables: pure formulas, one slot per residue, and
behind every seam the faults patch.

Each exact formula of the sweep is an integer polynomial taken mod 224 or
mod 1792, so it is looked up by the residue it depends on, in a table whose
slot for that residue is filled on first use, with the one tuple of its
value that an intern dict keeps.  The seams that ``tests/test_faults.py``
patches read h, and must still run once per admissible h, with that h, cold
or warm, so that a fault at any h is seen.  Pairs are compared by identity
first, and equal pairs that are other objects must change no output.
"""

import functools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_faults import (ADMISSIBLE_IN_WINDOW, FAULTS, ONLY_H_FAULTS, WORKERS, expand_runs,
                         swept)

from milnor_mu import bundles, cli, quotient, verify

#: Each table: its module, its name there, the pure formula that fills its
#: slots, and the period in that formula's argument, its length.
TABLES = [(quotient, "_CLOSED_FORM", quotient._closed_form_mod, 1792),
          (quotient, "_ASSEMBLY", quotient._assembly_mod, 1792),
          (verify, "_ORACLE", verify._oracle_mod, 224)]

#: Each intern dict: its module, its name there, the names of the tables whose
#: slots it fills, and the pairs it is seeded with, read before any test patches them.
INTERNS = [(quotient, "_PAIRS", ("_CLOSED_FORM", "_ASSEMBLY"),
            {quotient._RP7_SCALED, quotient._RP7_SUM_14M2_SCALED}),
           (verify, "_ORACLE_PAIRS", ("_ORACLE",), set())]

#: The module bindings the faults patch that are called with h.
SEAMS = [(verify, "_direct_mu_pair"), (verify, "_mu_quotient_scaled"),
         (quotient, "_closed_form_scaled"), (quotient, "_p1")]

BIG = 10**4300 - 1


@pytest.fixture(autouse=True)
def two_usable_cpus(monkeypatch):
    # so that a pooled sweep forks where this process may run on one CPU only
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


def empty_tables():
    # in place, so that a lookup sees its table empty whatever reference it holds,
    # and each intern dict back to its seeds, as at import
    for module, name, _, _ in TABLES:
        table = getattr(module, name)
        table[:] = [None] * len(table)
    for module, name, _, seeds in INTERNS:
        interned = getattr(module, name)
        interned.clear()
        interned.update({pair: pair for pair in seeds})


def sweep(h_min, h_max):
    for _ in verify._map_spans(verify._verify_chunk, h_min, h_max):
        pass


@pytest.fixture
def recorded(monkeypatch):
    """Seam name -> the h it has been called with, in this process."""
    calls = {name: [] for _, name in SEAMS}
    for module, name in SEAMS:
        real = getattr(module, name)

        def recorder(h, real=real, seen=calls[name]):
            seen.append(h)
            return real(h)

        monkeypatch.setattr(module, name, recorder)
    return calls


def recorded_chunk(calls, span):
    """The rows of ``span`` and the seam calls made while deciding it, so that
    a child's calls come back through its pipe with its rows."""
    for seen in calls.values():
        seen.clear()
    return verify._verify_chunk(span), {name: list(seen) for name, seen in calls.items()}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("workers", WORKERS)
def test_every_seam_runs_once_per_admissible_h(recorded, workers, warm):
    empty_tables()
    if warm:  # in this process, so that a child inherits the filled tables
        sweep(-3000, 3000)
    calls = {name: [] for name in recorded}
    for rows, span_calls in verify._map_spans(functools.partial(recorded_chunk, recorded),
                                              -3000, 3000, workers):
        assert all(passed for _, _, passed, _ in expand_runs(rows))
        for name, hs in span_calls.items():
            calls[name] += hs
    admissible = [h for h in range(-3000, 3001) if h * (h - 1) % 56 == 0]
    assert calls == {name: admissible for name in calls}


def closed_form(h):
    quad, linear = 16 * h * (h - 1), 56 * (2 * h - 1)
    return tuple(sorted(((quad + linear) % 1792, (quad - linear) % 1792)))


def assembly(h):
    # p1^2 - 4 signature + 4 A_2 - 4 equivariant signature +/- 28 p1, p1 = 2(2h-1)
    p1 = 2 * (2 * h - 1)
    return tuple(sorted(((p1 * p1 - 4 + 28 * p1) % 1792, (p1 * p1 - 4 - 28 * p1) % 1792)))


def oracle(h):
    quad, odd = 2 * h * (h - 1), 7 * (2 * h - 1)
    return tuple(sorted(((quad + odd) % 224, (quad - odd) % 224)))


@given(st.integers(min_value=-BIG, max_value=BIG))
@example(BIG)
@example(-BIG)
def test_each_cached_formula_equals_its_polynomial(h):
    assert quotient._closed_form_scaled(h) == closed_form(h)
    assert quotient._assembly_mod(bundles._p1(h) % quotient.MU_SCALE) == assembly(h)
    assert verify._direct_mu_pair(h) == oracle(h)


def assert_bounded():
    for module, name, formula, period in TABLES:
        table = getattr(module, name)
        assert len(table) == period
        assert all(pair is None or pair == formula(r) for r, pair in enumerate(table))
    # each intern dict maps a pair to itself, holds only the pairs of its
    # tables' filled slots and its seeds, and is where every filled slot got its pair
    for module, name, tables, seeds in INTERNS:
        interned = getattr(module, name)
        filled = [pair for table in tables for pair in getattr(module, table) if pair is not None]
        assert all(key is value for key, value in interned.items())
        assert set(interned) <= set(filled) | seeds
        assert all(interned[pair] is pair for pair in filled)
    # and no functools cache, nor any other list, such as one keyed by h,
    # sits in either module
    assert not [f for module in (quotient, verify) for f in vars(module).values()
                if hasattr(f, "cache_info")]
    assert {(module, name) for module in (quotient, verify)
            for name, value in vars(module).items()
            if isinstance(value, list)} == {(module, name) for module, name, _, _ in TABLES}


def test_the_caches_stay_within_their_periods_over_a_wide_sweep():
    sweep(-10**6, 10**6)
    sweep(10**18 - 5000, 10**18 + 5000)
    assert_bounded()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_the_caches_stay_within_their_periods_under_each_fault(monkeypatch, fault):
    FAULTS[fault][0](monkeypatch)
    sweep(-10**5, 10**5)
    assert_bounded()


def warm_sweep():
    empty_tables()
    assert all(passed for _, _, passed in swept(None))
    assert all(any(getattr(module, name)) for module, name, _, _ in TABLES)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_after_a_warm_sweep_fails_every_row(monkeypatch, fault, workers):
    warm_sweep()
    inject, verdict = FAULTS[fault]
    inject(monkeypatch)
    rows = swept(workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    assert {(row_verdict, passed) for _, row_verdict, passed in rows} == {(verdict, False)}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", sorted(ONLY_H_FAULTS))
def test_a_fault_at_one_h_after_a_warm_sweep_fails_only_that_row(monkeypatch, fault, workers):
    warm_sweep()
    inject, verdict = ONLY_H_FAULTS[fault]
    inject(monkeypatch, only_h=8)
    rows = swept(workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    assert [(h, row_verdict) for h, row_verdict, passed in rows if not passed] == [(8, verdict)]


def distinct_equal_pairs(monkeypatch):
    """Give the oracle, the closed form and ``_RP7_SCALED`` each pair as a new
    tuple, equal to the one it stands for but never the same object."""
    for module, name in [(verify, "_direct_mu_pair"), (quotient, "_closed_form_scaled")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda h, real=real: tuple(list(real(h))))
    monkeypatch.setattr(quotient, "_RP7_SCALED", tuple([56, 1736]))
    assert verify._direct_mu_pair(8) is not verify._direct_mu_pair(8)
    assert quotient._closed_form_scaled(8) is not quotient._closed_form_scaled(8)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_equal_pairs_that_are_other_objects_change_no_output(monkeypatch, capsys, fmt, workers):
    # identity is a shortcut only: the output, its counts and the exit status
    # are those of the tables' own tuples, and each span is still one run
    argv = ["verify", "--h-range", "-60000..60000", "--format", fmt,
            *(["--parallel", str(workers)] if workers else [])]
    expected = cli.main(argv), *capsys.readouterr()
    assert expected[0] == 0
    distinct_equal_pairs(monkeypatch)
    assert (cli.main(argv), *capsys.readouterr()) == expected
    spans = list(verify._map_spans(verify._verify_chunk, -60000, 60000))
    assert len(spans) > 1
    assert all(len(runs) == 1 and not failed for _, failed, runs in spans)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_among_equal_pairs_that_are_other_objects_fails_every_row(monkeypatch, fault,
                                                                           workers):
    distinct_equal_pairs(monkeypatch)
    inject, verdict = FAULTS[fault]
    inject(monkeypatch)
    rows = swept(workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    assert {(row_verdict, passed) for _, row_verdict, passed in rows} == {(verdict, False)}
