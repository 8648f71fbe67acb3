import contextlib
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_faults import expand_runs, oracle_off_in_one_k_of_four, oracle_off_on_odd_h

from milnor_mu import bundles, cli, quotient, qz, verify
from milnor_mu.bundles import MilnorBundle
from milnor_mu.quotient import MU_RP7_SUM_14M2, mu_quotient
from milnor_mu.qz import AmbiguousResidue, reduce_mod_z
from milnor_mu.verify import (
    Case,
    EmptyRangeError,
    VerifyRow,
    brute_force_theorem,
    check_case,
    direct_mu_set,
    enumerate_residues,
    residues_by_crt,
    verify_range,
)


class TestEnumerateResidues:
    def test_base_period(self):
        assert enumerate_residues(56).residues == (0, 1, 8, 49)

    def test_modulus_one(self):
        assert enumerate_residues(1).residues == (0,)

    def test_double_period_is_the_lift(self):
        assert enumerate_residues(112).residues == (0, 1, 8, 49, 56, 57, 64, 105)

    def test_scan_guard(self):
        with pytest.raises(ValueError):
            enumerate_residues(0)
        with pytest.raises(ValueError):
            enumerate_residues(10**6 + 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25, 100])
    def test_agrees_with_crt_construction(self, m):
        assert enumerate_residues(56 * m) == residues_by_crt(56 * m)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_lift_property(self, m):
        base = enumerate_residues(56).residues
        lifted = sorted(r + 56 * t for t in range(m) for r in base)
        assert list(enumerate_residues(56 * m).residues) == lifted

    def test_crt_needs_multiple_of_56(self):
        with pytest.raises(ValueError):
            residues_by_crt(55)
        with pytest.raises(ValueError):
            residues_by_crt(0)

    def test_crt_pair(self):
        for m1, m2 in [(8, 7), (7, 8), (9, 4)]:
            for r1 in range(m1):
                for r2 in range(m2):
                    x = verify._crt_pair(r1, m1, r2, m2)
                    assert 0 <= x < m1 * m2 and (x % m1, x % m2) == (r1, r2)
        with pytest.raises(ValueError):
            verify._crt_pair(0, 4, 1, 6)

    @given(st.integers(min_value=-(2**96), max_value=2**96))
    def test_crt_split_of_the_congruence(self, r):
        divisible = r * (r - 1) % 56 == 0
        split = r % 8 in (0, 1) and r % 7 in (0, 1)
        assert divisible == split


# independent referee: the same case congruences decided purely with Fractions
def _case_holds_by_fractions(case: Case, k: int) -> bool:
    quad_c, lin_c = {
        Case.I: (Fraction(0), Fraction(-1, 32)),
        Case.II: (Fraction(0), Fraction(1, 32)),
        Case.III: (Fraction(1, 2), Fraction(15, 32)),
        Case.IV: (Fraction(0), Fraction(1, 32)),
    }[case]
    h = 56 * k + case.h_residue
    quad = Fraction(h * (h - 1), 112)
    lin = Fraction(2 * h - 1, 32)
    half = Fraction(k, 2)
    return (
        quad % 1 == (quad_c + half) % 1
        and lin % 1 == (lin_c + half) % 1
        and {(quad + lin) % 1, (quad - lin) % 1} == {Fraction(1, 32), Fraction(31, 32)}
    )


class TestCheckCase:
    def test_case_i_constants_and_match(self):
        report = check_case(Case.I, -10, 10)
        assert report.matches
        assert (report.quad_constant, report.linear_constant) == (0, Fraction(-1, 32))

    def test_case_ii_at_k_zero(self):
        report = check_case(Case.II, 0, 0)
        assert report.matches
        assert report.h_residue == 1
        assert reduce_mod_z(Fraction(1 * 0, 112)).rep == report.quad_constant % 1
        assert reduce_mod_z(Fraction(2 * 1 - 1, 32)).rep == report.linear_constant % 1

    def test_case_iv_at_k_one(self):
        # h = 105: 105*104/112 = 97.5 = 1/2 mod 1, 209/32 = 17/32 mod 1
        assert reduce_mod_z(Fraction(105 * 104, 112)).rep == Fraction(1, 2)
        assert reduce_mod_z(Fraction(209, 32)).rep == Fraction(17, 32)
        assert check_case(Case.IV, 1, 1).matches

    def test_case_iii_shifted_constants(self):
        report = check_case(Case.III, -5, 5)
        assert report.matches
        assert report.quad_constant == Fraction(1, 2)
        assert report.linear_constant == Fraction(15, 32)

    def test_empty_range(self):
        with pytest.raises(EmptyRangeError):
            check_case(Case.I, 3, 2)

    @pytest.mark.parametrize("case", list(Case))
    def test_wide_ranges_match(self, case):
        assert check_case(case, -3000, 3000).matches

    def test_a_case_that_aliases_another_fails_at_import(self):
        # with I = 1, Case.I would be an alias of Case.II and `for case in Case`
        # would silently decide three cases; @enum.unique refuses the alias
        source = Path(verify.__file__).read_text()
        assert source.count("\n    I = 0\n") == 1
        module = types.ModuleType("verify_with_an_alias")
        module.__package__ = "milnor_mu"
        code = compile(source.replace("\n    I = 0\n", "\n    I = 1\n"), verify.__file__, "exec")
        with pytest.raises(ValueError, match="duplicate"):
            exec(code, module.__dict__)

    @settings(max_examples=200)
    @given(st.sampled_from(list(Case)), st.integers(min_value=-(2**64), max_value=2**64))
    def test_integer_engine_agrees_with_fraction_referee(self, case, k):
        assert check_case(case, k, k).matches == _case_holds_by_fractions(case, k)


def _per_k_reference(case: Case, k_min: int, k_max: int) -> tuple[int, ...]:
    """The failing k of check_case, found by running its per-k test on every k."""
    quad, linear = verify._CASE_CONSTANTS[case]
    quad_112, linear_32 = int(quad * 112), int(linear * 32)
    failures = []
    for k in range(k_min, k_max + 1):
        h = 56 * k + case.h_residue
        hh, odd = h * (h - 1), 2 * h - 1
        ok = (hh - quad_112 - 56 * k) % 112 == 0 and (odd - linear_32 - 16 * k) % 32 == 0
        if ok:
            ok = sorted([(2 * hh + 7 * odd) % 224, (2 * hh - 7 * odd) % 224]) == [7, 217]
        if not ok:
            failures.append(k)
    return tuple(failures)


def _assert_report(report: verify.CaseReport, case: Case, k_min: int, k_max: int,
                   failures: tuple[int, ...]) -> None:
    """report is check_case(case, k_min, k_max) with these failing k in range."""
    step = verify._CASE_PERIOD // 56
    in_period = tuple(k for k in failures if k < k_min + step)
    assert report == verify.CaseReport(case, k_min, k_max, in_period)
    assert report.h_residue == case.value
    assert (report.quad_constant, report.linear_constant) == verify._CASE_CONSTANTS[case]
    # each failing k0 of the first period stands for every k0 + 4t in range
    expanded = sorted(k for k0 in report.period_failures for k in range(k0, k_max + 1, step))
    assert tuple(expanded) == failures
    assert report.matches == (not failures)


#: k windows on which one period of check_case must agree with the per-k loop.
CASE_WINDOWS = [
    (0, 0),  # width 1
    (-7, -7),
    (5, 227),  # width 223
    (5, 228),  # width 224
    (5, 229),  # width 225
    (-1500, 1499),  # width 3000, straddles 0
    (-224, 224),
    (-1, 1),
    (2**64 - 100, 2**64 + 400),
    (-(2**64) - 400, -(2**64) + 100),
    (2**70 - 300, 2**70 + 300),
    (-(2**70) - 300, -(2**70) + 300),
]

#: Wrong case constants: (index into the (quad, linear) pair, shift).
CASE_FAULTS = [
    (0, Fraction(1, 2)),
    (0, Fraction(1, 32)),
    (1, Fraction(1, 2)),
    (1, Fraction(1, 32)),
]


def _shifted_constants(case: Case, which: int, shift: Fraction) -> tuple[Fraction, Fraction]:
    constants = list(verify._CASE_CONSTANTS[case])
    constants[which] += shift
    return tuple(constants)


class TestCaseOnePeriod:
    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("k_min,k_max", CASE_WINDOWS)
    def test_matches_per_k_loop(self, case, k_min, k_max):
        report = check_case(case, k_min, k_max)
        _assert_report(report, case, k_min, k_max, _per_k_reference(case, k_min, k_max))
        assert report.matches

    @pytest.mark.parametrize("which,shift", CASE_FAULTS)
    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("k_min,k_max", CASE_WINDOWS)
    def test_wrong_constants_give_the_per_k_failures(self, monkeypatch, case, which, shift,
                                                     k_min, k_max):
        monkeypatch.setitem(
            verify._CASE_CONSTANTS, case, _shifted_constants(case, which, shift)
        )
        report = check_case(case, k_min, k_max)
        _assert_report(report, case, k_min, k_max, _per_k_reference(case, k_min, k_max))
        assert report.period_failures and not report.matches

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(Case)),
        st.sampled_from([None, *CASE_FAULTS]),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=0, max_value=700),
    )
    def test_random_windows_match_per_k_loop(self, case, fault, k_min, width):
        with pytest.MonkeyPatch.context() as mp:
            if fault is not None:
                mp.setitem(verify._CASE_CONSTANTS, case, _shifted_constants(case, *fault))
            k_max = k_min + width
            _assert_report(check_case(case, k_min, k_max), case, k_min, k_max,
                           _per_k_reference(case, k_min, k_max))

    @pytest.mark.parametrize("which,constant", [(1, Fraction(-1, 31)), (0, Fraction(1, 113))])
    @pytest.mark.parametrize("case", list(Case))
    def test_a_constant_off_its_grid_fails_every_k(self, monkeypatch, case, which, constant):
        # -1/31 is off the 1/32 grid of the linear constant, 1/113 off the 1/112
        # grid of the quadratic one; no k can meet such a congruence
        constants = list(verify._CASE_CONSTANTS[case])
        constants[which] = constant
        monkeypatch.setitem(verify._CASE_CONSTANTS, case, tuple(constants))
        report = check_case(case, -1000, 1000)
        _assert_report(report, case, -1000, 1000, tuple(range(-1000, 1001)))

    def test_period_divides_every_modulus(self):
        assert all(verify._CASE_PERIOD % m == 0 for m in (112, 32, 224))
        assert all(verify._CASE_MODULUS % m == 0 for m in (112, 32, 224))

    @pytest.mark.parametrize("period", [223, 112, 55])
    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("k_min", [-7, 2**70 + 1])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 600])
    def test_a_shrunk_period_names_the_classes_it_leaves_undecided(self, monkeypatch, period,
                                                                    case, k_min, width):
        # a period of 223 decides three k, 112 two and 55 none, where one
        # period of h mod 224 takes four; a range of fewer k needs fewer
        monkeypatch.setattr(verify, "_CASE_PERIOD", period)
        k_max = k_min + width - 1
        reached = range(k_min, k_min + min(width, 4))
        decided = reached[:period // 56]
        missing = sorted({(56 * k + case.h_residue) % 224 for k in reached[len(decided):]})
        if not missing:
            assert check_case(case, k_min, k_max).matches
            return
        message = (f"case {case.name} over k in [{k_min}, {k_max}] left "
                   f"h = {', '.join(map(str, missing))} mod 224 undecided")
        with pytest.raises(verify.CoverageError, match=f"^{re.escape(message)}$"):
            check_case(case, k_min, k_max)

    @pytest.mark.parametrize("case", list(Case))
    def test_any_window_costs_at_most_four_oracle_calls(self, monkeypatch, case):
        calls = []
        real = verify._direct_mu_pair

        def counted(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(verify, "_direct_mu_pair", counted)
        assert check_case(case, -(10**18), 10**18).matches
        assert 0 < len(calls) <= 4

    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("k_min,k_max", [(-500, 500), (5, 229),
                                             (2**70 - 300, 2**70 + 300)])
    def test_an_oracle_fault_within_one_period_gives_the_per_k_failures(
            self, monkeypatch, case, k_min, k_max):
        oracle_off_in_one_k_of_four(monkeypatch)
        failures = tuple(
            k for k in range(k_min, k_max + 1)
            if not (_case_holds_by_fractions(case, k)
                    and verify._direct_mu_pair(56 * k + case.h_residue) == verify._TARGET)
        )
        assert failures
        _assert_report(check_case(case, k_min, k_max), case, k_min, k_max, failures)


class TestDirectMuSet:
    @given(st.integers(min_value=-(2**256) + 56, max_value=2**256 - 56))
    def test_oracle_equals_pipeline_on_admissible_h(self, n):
        h = 56 * (n // 56)  # snap to an admissible representative
        for offset in (0, 1, 8, 49):
            assert direct_mu_set(h + offset) == mu_quotient(MilnorBundle(h + offset))


class TestDirectMuPair:
    def test_equals_fraction_oracle_on_every_h_of_a_window(self):
        for h in range(-3000, 3001):  # admissible or not, negative or not
            assert verify._expand(verify._direct_mu_pair(h)) == direct_mu_set(h)

    @given(st.integers(min_value=-(2**256), max_value=2**256))
    def test_equals_fraction_oracle_on_wide_h(self, h):
        assert verify._expand(verify._direct_mu_pair(h)) == direct_mu_set(h)

    @given(st.integers(min_value=-(2**256), max_value=2**256))
    def test_two_odd_members_in_order(self, h):
        a, b = verify._direct_mu_pair(h)
        assert a % 2 == b % 2 == 1  # so neither member is 0
        assert 0 < a < b < 224

    def test_shares_no_name_with_the_quotient_module(self):
        for f in (verify._direct_mu_pair, verify._oracle_mod.__wrapped__):
            assert not set(f.__code__.co_names) & set(vars(quotient))

    def test_the_target_expands_to_the_rp7_value_set(self):
        assert verify._TARGET == (7, 217)
        assert verify._expand(verify._TARGET) == AmbiguousResidue.of(
            reduce_mod_z(Fraction(1, 32)), reduce_mod_z(Fraction(31, 32))
        )


class TestSweepStaysOffFractions:
    def test_rows_pass_without_the_fraction_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the verify sweep called a Fraction oracle")

        monkeypatch.setattr(verify, "direct_mu_set", refuse)
        for module in (qz, bundles, verify):
            monkeypatch.setattr(module, "reduce_mod_z", refuse)
        chunk = expand_runs(verify._verify_chunk((-200, 200)))
        rows = verify_range(-200, 200)
        assert len(chunk) == len(rows) > 0
        assert all(passed for _, _, passed, _ in chunk)
        monkeypatch.undo()
        assert all(r.passed and r.mu_set == direct_mu_set(r.h) for r in rows)


#: h windows on which residue stepping must agree with a scan of every h.
STEPPING_WINDOWS = [
    (-1000, -1),
    (0, 1000),
    (-777, 555),
    (-113, 113),
    (-55, -49),  # narrower than 56, negative
    (3, 7),  # narrower than 56, nothing admissible
    (49, 57),  # straddles a period boundary
    (-8, 8),
    (10**18 - 300, 10**18 + 300),
    (-(10**18) - 100, -(10**18) + 100),
    (-7, -7),  # single admissible points
    (56 * 10**17 + 49, 56 * 10**17 + 49),
    (-56 * 10**17, -56 * 10**17),
]


class TestBruteForceTheorem:
    def test_single_point(self):
        sweep = brute_force_theorem(0, 0)
        assert (sweep.checked, sweep.failed) == (1, 0)

    def test_one_period_both_sides(self):
        sweep = brute_force_theorem(-56, 56)
        assert sweep.checked == 9
        assert sweep.failed == 0
        assert sweep.failures == ()

    def test_hundred_periods(self):
        sweep = brute_force_theorem(0, 5600)
        # 4 per period over [0, 5599], plus the admissible endpoint 5600
        assert sweep.checked == 401
        assert sweep.failed == 0

    def test_checked_counts_match_residue_scan(self, monkeypatch):
        windows = [(-300, 300), *STEPPING_WINDOWS, (300, -300)]  # the last is backwards
        expected = [
            tuple(h for h in range(lo, hi + 1) if h * (h - 1) % 56 == 0) for lo, hi in windows
        ]
        sweeps = [brute_force_theorem(lo, hi) for lo, hi in windows]
        assert [(s.checked, s.failed) for s in sweeps] == [(len(e), 0) for e in expected]
        # an oracle that is always wrong fails exactly the admissible h, in order
        monkeypatch.setattr(verify, "direct_mu_set", lambda h: MU_RP7_SUM_14M2)
        assert [brute_force_theorem(lo, hi).failures for lo, hi in windows] == expected


class TestVerifyRange:
    def test_rows_pass_and_are_ordered(self):
        rows = verify_range(-56, 56)
        assert [r.h for r in rows] == [-56, -55, -48, -7, 0, 1, 8, 49, 56]
        assert all(r.passed for r in rows)
        assert all(r.verdict == "RP7" for r in rows)
        assert all(r.residue_class in (0, 1, 8, 49) for r in rows)

    def test_empty_range(self):
        with pytest.raises(EmptyRangeError):
            verify_range(1, 0)

    def test_parallel_matches_sequential(self, monkeypatch):
        # the compact rows of a pooled sweep are the rows of verify_range
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        pooled = [(h, verdict, passed, verify._expand(mu))
                  for h, verdict, passed, mu in _compact_rows(-300, 300, workers=3)]
        assert pooled == [(r.h, r.verdict, r.passed, r.mu_set) for r in verify_range(-300, 300)]

    @pytest.mark.parametrize("odd_h_fault, value_sets", [(False, 1), (True, 2)])
    def test_one_value_set_object_per_distinct_set(self, monkeypatch, odd_h_fault, value_sets):
        if odd_h_fault:
            oracle_off_on_odd_h(monkeypatch)
        rows = verify_range(-5600, 5600)
        assert len({id(r.mu_set) for r in rows}) == value_sets
        assert all(r.mu_set == verify._expand(verify._direct_mu_pair(r.h)) for r in rows)
        assert rows[0].mu_set == direct_mu_set(rows[0].h)


def _plain_ints_only(value):
    """True when value is built from ints, strs, bools, tuples and lists alone."""
    if type(value) in (tuple, list):
        return all(_plain_ints_only(v) for v in value)
    return type(value) in (int, str, bool)


class TestCompactWorkerRows:
    @pytest.mark.parametrize("span", [(-300, 300), (10**18 - 200, 10**18 + 200), (2, 7)])
    def test_chunk_holds_plain_ints_only(self, span):
        chunk = verify._verify_chunk(span)
        assert _plain_ints_only(chunk)
        assert len(expand_runs(chunk)) == len(verify_range(*span))

    def test_run_layout(self):
        assert verify._verify_chunk((8, 8)) == ((("RP7", True, (7, 217)), [8]),)


def _every_h_reference(lo, hi):
    """The rows a correct sweep must give, found by scanning every h."""
    return tuple(
        VerifyRow(h, direct_mu_set(h), "RP7", True)
        for h in range(lo, hi + 1)
        if h * (h - 1) % 56 == 0
    )


class TestResidueStepping:
    @pytest.mark.parametrize("lo,hi", STEPPING_WINDOWS)
    def test_matches_every_h_scan(self, lo, hi):
        assert verify_range(lo, hi) == _every_h_reference(lo, hi)

    @pytest.mark.parametrize("h", [2, -1, 50, 10**18 + 2, -(10**18), 58 - 56 * 10**17])
    def test_single_non_admissible_point_is_empty(self, h):
        assert h * (h - 1) % 56 != 0
        assert verify_range(h, h) == ()

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-(2**64), max_value=2**64),
        st.integers(min_value=0, max_value=200),
    )
    def test_random_windows_match_every_h_scan(self, lo, width):
        assert verify_range(lo, lo + width) == _every_h_reference(lo, lo + width)


#: How the residue scan behind ``_admissible`` is faulted: the residues it
#: gives mod 56, and which h a per-h scan must then keep.
RESIDUE_FAULTS = {
    "none": (lambda rs: rs, lambda h: True),
    "non_admissible_added": (lambda rs: (*rs, 2), lambda h: True),
    "non_admissible_inserted": (lambda rs: (0, 1, 2, *rs[2:]), lambda h: True),
    "one_dropped": (lambda rs: tuple(r for r in rs if r != 8), lambda h: h % 56 != 8),
}


class TestAdmissible:
    """``_admissible`` checks 56 | r(r-1) per residue: the h of a per-h scan."""

    @settings(max_examples=150)
    @given(
        st.sampled_from(sorted(RESIDUE_FAULTS)),
        st.sampled_from([0, 10**18, -(10**18), 56 * 10**17]),
        st.integers(min_value=-300, max_value=300),
        st.integers(min_value=-60, max_value=300),
    )
    @example("none", 0, 0, 0)  # a single admissible point
    @example("none", 0, 2, 0)  # a single point that is not
    @example("none", 0, 5, -1)  # an empty range
    @example("none", 10**18, 300, -300)  # a backwards one
    @example("none", 0, 49, 7)  # from a period's last residue into the next period
    @example("one_dropped", -(10**18), 0, 56)
    @example("non_admissible_added", 10**18, -3, 55)
    def test_equals_a_per_h_scan(self, fault, center, offset, width):
        # a negative width gives a backwards range, 0 a single point; offsets and
        # widths that are not multiples of 56 start or end a window mid-period
        faulty, kept = RESIDUE_FAULTS[fault]
        real = verify.enumerate_residues
        lo, hi = center + offset, center + offset + width
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "enumerate_residues",
                       lambda m: verify.ResidueSolution(m, faulty(real(m).residues)))
            got = verify._admissible(lo, hi)
        assert got == [h for h in range(lo, hi + 1) if h * (h - 1) % 56 == 0 and kept(h)]


#: Bytes in a test result that overflows a pipe (64 KiB by default on Linux),
#: so a child blocks on each span until the parent has read it.
BIG = 1 << 18


def _logging(path, decide):
    """``decide``, appending each span it is given to the file at path.

    One short line per span, in append mode, so the log collects the spans
    of every process that decides one, forked children included.
    """
    def logged(span):
        with open(path, "a") as log:
            log.write("%d %d\n" % span)
        return decide(span)

    return logged


def _logged(path):
    """The spans ``_logging`` wrote to path, in the order they were written."""
    if not path.exists():
        return []
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _compact_rows(lo, hi, workers=None):
    """The rows of [lo, hi], expanded from the runs of the spans ``_map_spans``
    decides with workers."""
    return [row for runs in verify._map_spans(verify._verify_chunk, lo, hi, workers)
            for row in expand_runs(runs)]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spans(h_min, h_max, workers, cpus):
    """``_plan``'s part count, and the spans (lo, hi) ``_map_spans`` cuts from its starts."""
    parts, starts = verify._plan(h_min, h_max, workers, cpus)
    return parts, [(lo, min(lo + starts.step - 1, h_max)) for lo in starts]


class TestPlan:
    @pytest.mark.parametrize(
        "lo,hi,requested,cpus,expected_parts",
        [
            (-56, 56, 10**6, 4, 4),
            (0, 2, 8, 4, 3),
            (0, 0, 8, 4, 1),
            (0, 1, 2, 2, 2),
            (0, 7, 8, 2, 2),
            (0, 9, -3, 4, 1),
            (0, 9, 3, 1, 1),
            (0, 7, 1, 8, 1),
        ],
    )
    def test_a_sweep_plans_a_clamped_pool(self, lo, hi, requested, cpus, expected_parts):
        # one part runs in this process, and each other part in a child of its own
        parts, spans = _spans(lo, hi, requested, cpus)
        assert parts == expected_parts
        assert [h for first, last in spans for h in range(first, last + 1)] == [*range(lo, hi + 1)]

    def test_span_width_caps_a_wide_sequential_range(self):
        # equal spans of at most _SPAN_WIDTH h: three for 2 * _SPAN_WIDTH + 1 h
        width = 2 * verify._SPAN_WIDTH + 1
        w = width // 3
        assert _spans(0, width - 1, None, 2) == (1, [(lo, lo + w - 1) for lo in (0, w, 2 * w)])
        assert 3 * w == width and w <= verify._SPAN_WIDTH

    def test_pooled_spans_come_in_equal_shares_per_worker(self):
        # 200,001 h: seven spans of at most _SPAN_WIDTH, so eight for two workers
        parts, spans = _spans(-100000, 100000, 2, 2)
        assert parts == 2 and len(spans) == 8
        assert spans[0][0] == -100000 and spans[-1][1] == 100000
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        widths = [hi - lo + 1 for lo, hi in spans]
        assert set(widths[:-1]) == {25001} and widths[-1] > 25001 - len(spans)

    @pytest.mark.parametrize("span_width", [1, 3, 56])
    def test_every_small_range_is_tiled_for_at_most_the_parts_allowed(self, monkeypatch,
                                                                       span_width):
        monkeypatch.setattr(verify, "_SPAN_WIDTH", span_width)
        for h_min, width, workers, cpus in product(range(-3, 4), range(1, 121),
                                                   [None, *range(-1, 6)], range(1, 6)):
            h_max = h_min + width - 1
            parts, starts = verify._plan(h_min, h_max, workers, cpus)
            step = starts.step
            # the spans (lo, min(lo + step - 1, h_max)) for lo in starts: each
            # begins where the one before ends, from h_min, and the last ends at
            # h_max; all are step wide but the last, narrower by less than the count
            assert type(starts) is range and starts.start == h_min and 1 <= step <= span_width
            assert starts[-1] <= h_max < starts[-1] + step
            assert step - (h_max - starts[-1] + 1) < len(starts)
            # no more parts than allowed, and each gets a span
            assert 1 <= parts <= (1 if workers is None else max(1, min(workers, cpus)))
            assert parts <= len(starts)


class TestPoolSize:
    def test_a_pooled_sweep_forks_a_child_for_each_other_part(self, monkeypatch, forks):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
        assert _compact_rows(-56, 56, 10**6) == _compact_rows(-56, 56)
        assert forks == [os.getpid()] * 3  # four parts: this process and three children

    def test_a_process_pinned_to_one_cpu_forks_nothing(self, capsys, monkeypatch, forks):
        # a host of two CPUs, of which this process may run on one (as under taskset -c 0)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        argv = ["verify", "--h-range", "-3000..3000", "--format", "csv"]
        outputs = []
        for extra in ([], ["--parallel", "2"]):
            assert cli.main([*argv, *extra]) == 0
            outputs.append(capsys.readouterr())
        assert _compact_rows(-3000, 3000, 2) == _compact_rows(-3000, 3000)
        assert forks == []
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize(
        "affinity, cpu_count, usable",
        [({0}, 2, 1), ({0, 1, 5}, 8, 3), (None, 3, 3), (None, None, 1)],
    )
    def test_usable_cpus_prefers_the_affinity_set(self, monkeypatch, affinity, cpu_count,
                                                  usable):
        # None: an OS with no affinity set (macOS, Windows), or no known CPU count
        if affinity is None:
            monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpu_count)
        assert verify._usable_cpus() == usable


class TestSweepEngine:
    """``_map_spans``: spans in h order, each as it is decided, bounded fan-out."""

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("workers", [None, 2])
    def test_first_row_comes_before_the_last_span_is_decided(self, monkeypatch, tmp_path,
                                                             workers):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        last = (56 * 9, 56 * 10 - 1)
        log = tmp_path / "decided"
        logged = _logging(log, verify._verify_chunk)
        hold, release = os.pipe()

        def held(span):  # the child of the last span waits for the release
            if span == last and workers:
                os.read(hold, 1)
            return logged(span)

        spans = verify._map_spans(held, 0, 56 * 10 - 1, workers)
        try:
            first = expand_runs(next(spans))
            assert first[0][0] == 0
            assert _logged(log) and last not in _logged(log)
            os.write(release, b"x")
            rest = expand_runs(chain.from_iterable(spans))
        finally:
            spans.close()
            os.close(hold)
            os.close(release)
        assert sorted(_logged(log)) == [(56 * i, 56 * i + 55) for i in range(10)]
        assert len(first) + len(rest) == 4 * 10

    @pytest.mark.usefixtures("time_limit")
    def test_pooled_spans_in_flight_are_bounded(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        log = tmp_path / "decided"
        spans = verify._map_spans(_logging(log, lambda span: (span, b"x" * BIG)),
                                  -56 * 20, 56 * 20 - 1, workers=4)
        try:
            read = [next(spans) for _ in range(3)]
            time.sleep(0.3)  # the reader stops; unbounded children would run ahead now
            assert len(_logged(log)) <= len(read) + 4
            read += spans
        finally:
            spans.close()
        assert [span for span, _ in read] == [(lo, lo + 55) for lo in range(-56 * 20, 56 * 20, 56)]
        assert len(_logged(log)) == 40

    @pytest.mark.parametrize("workers", [None, 2])
    def test_many_spans_keep_h_order(self, monkeypatch, workers):
        # when workers is 2, this process and one child decide 18 spans each
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56 * 3)
        expected = expand_runs(verify._verify_chunk((-3000, 3000)))
        spans = verify._map_spans(verify._verify_chunk, -3000, 3000, workers)
        assert expand_runs(chain.from_iterable(spans)) == expected

    @pytest.mark.usefixtures("time_limit")
    def test_closing_early_decides_no_unstarted_span(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        log = tmp_path / "decided"
        spans = verify._map_spans(_logging(log, lambda span: (span, b"x" * BIG)),
                                  0, 56 * 10 - 1, workers=2)
        assert next(spans)[0] == (0, 55)
        spans.close()
        _no_child_left()  # so nothing more can be decided
        decided = _logged(log)
        assert (0, 55) in decided and len(decided) <= 1 + 2

    @pytest.mark.usefixtures("time_limit")
    def test_a_failing_span_cancels_the_unstarted_ones(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)

        def decide(span):
            if span[0] == 56:
                raise RuntimeError("span 56 refused")
            return span, b"x" * BIG

        log = tmp_path / "decided"
        read = []
        with pytest.raises(RuntimeError, match="^span 56 refused$"):
            for span, _ in verify._map_spans(_logging(log, decide), 0, 56 * 10 - 1, workers=2):
                read.append(span)
        assert read == [(0, 55)]
        _no_child_left()
        assert len(_logged(log)) <= 2 + 2

    def test_this_process_decides_the_first_part(self, monkeypatch):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        spans = verify._map_spans(lambda span: (span, os.getpid()), 0, 56 * 10 - 1, workers=2)
        read = list(spans)
        assert [span for span, _ in read] == [(lo, lo + 55) for lo in range(0, 560, 56)]
        deciders = [pid for _, pid in read]
        assert deciders[0::2] == [os.getpid()] * 5  # spans 0, 2, 4, ...
        assert len(set(deciders[1::2])) == 1 and os.getpid() not in deciders[1::2]

    @pytest.mark.usefixtures("time_limit")
    def test_a_failing_span_decided_here_cancels_the_unstarted_ones(self, monkeypatch,
                                                                    tmp_path):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)

        def decide(span):
            if span[0] == 56 * 2:  # the second span of this process's part
                raise RuntimeError(f"span 112 refused in {os.getpid()}")
            return span, b"x" * BIG

        log = tmp_path / "decided"
        read = []
        with pytest.raises(RuntimeError, match=f"^span 112 refused in {os.getpid()}$"):
            for span, _ in verify._map_spans(_logging(log, decide), 0, 56 * 10 - 1, workers=2):
                read.append(span)
        assert read == [(0, 55), (56, 111)]
        _no_child_left()
        assert len(_logged(log)) <= 3 + 2

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("how", ["killed", "terminated", "exited"])
    def test_a_lost_worker_is_an_error_naming_its_span(self, monkeypatch, how):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        parent = os.getpid()

        def decide(span):
            if span[0] == 56 * 3 and os.getpid() != parent:
                if how == "exited":
                    os._exit(0)
                # a child dies by SIGTERM too, as it would with no engine around it
                os.kill(os.getpid(), signal.SIGKILL if how == "killed" else signal.SIGTERM)
            return span

        spans = verify._map_spans(decide, 0, 56 * 10 - 1, workers=2)
        assert [next(spans) for _ in range(3)] == [(0, 55), (56, 111), (112, 167)]
        with pytest.raises(RuntimeError,
                           match=r"^the worker for h in \[168, 223\] ended without its result$"):
            next(spans)

    @pytest.mark.usefixtures("time_limit")
    def test_a_child_leaves_sigint_to_this_process(self, monkeypatch):
        # a terminal's Ctrl-C reaches every child too; only this process may end the call
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        parent = os.getpid()

        def decide(span):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            return span

        spans = verify._map_spans(decide, 0, 56 * 4 - 1, workers=2)
        assert list(spans) == [(0, 55), (56, 111), (112, 167), (168, 223)]

    @staticmethod
    def _interrupt_at_a_fork(monkeypatch, calls=1):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        real_fork = os.fork

        def interrupted_fork():
            pid = real_fork()
            if pid:  # Ctrl-C as the first child is born; the autouse fixture finds any left
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(verify.os, "fork", interrupted_fork)
        for _ in range(calls):
            with pytest.raises(KeyboardInterrupt):
                next(verify._map_spans(tuple, 0, 56 * 4 - 1, workers=2))

    @pytest.mark.usefixtures("time_limit")
    def test_an_interrupt_at_a_fork_leaves_no_child(self, monkeypatch):
        self._interrupt_at_a_fork(monkeypatch)

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open descriptors in /proc/self/fd")
    def test_an_interrupt_at_a_fork_leaves_no_pipe(self, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        self._interrupt_at_a_fork(monkeypatch, calls=5)
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.usefixtures("time_limit")
    def test_an_interrupt_while_the_children_are_ended_waits_for_them(self, monkeypatch):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        real_waitpid = os.waitpid

        def interrupted_waitpid(pid, options):
            os.kill(os.getpid(), signal.SIGINT)  # a second Ctrl-C, as the first child is reaped
            return real_waitpid(pid, options)

        spans = verify._map_spans(tuple, 0, 56 * 4 - 1, workers=2)
        assert next(spans) == (0, 55)
        monkeypatch.setattr(verify.os, "waitpid", interrupted_waitpid)
        with pytest.raises(KeyboardInterrupt):  # once the child is reaped; the fixture checks
            spans.close()

    @pytest.mark.usefixtures("time_limit")
    def test_an_interrupt_just_before_the_children_are_ended_waits_for_them(self, monkeypatch):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        real_sigmask = signal.pthread_sigmask

        def interrupted_sigmask(how, mask):
            previous = real_sigmask(how, mask)
            if how == signal.SIG_BLOCK:  # as when a Ctrl-C came just before SIGINT was held
                raise KeyboardInterrupt
            return previous

        spans = verify._map_spans(tuple, 0, 56 * 4 - 1, workers=2)
        assert next(spans) == (0, 55)
        monkeypatch.setattr(signal, "pthread_sigmask", interrupted_sigmask)
        with pytest.raises(KeyboardInterrupt):  # once the child is reaped; the fixture checks
            spans.close()
        assert signal.SIGINT not in real_sigmask(signal.SIG_BLOCK, ())

    @pytest.mark.usefixtures("time_limit")
    def test_a_child_reaped_elsewhere_spares_no_other_child(self, monkeypatch):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        pids = []
        real_fork = os.fork

        def recorded_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(verify.os, "fork", recorded_fork)
        spans = verify._map_spans(lambda span: (span, b"x" * BIG), 0, 56 * 20 - 1, workers=4)
        assert next(spans)[0] == (0, 55)
        assert len(pids) == 3  # four parts: this process and three children
        os.kill(pids[0], signal.SIGKILL)  # the first child goes, reaped by someone else
        os.waitpid(pids[0], 0)
        spans.close()  # must still kill and reap the other two, raising nothing

    def test_without_fork_every_span_is_decided_here(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        expected = expand_runs(verify._verify_chunk((-3000, 3000)))
        pids = []

        def recorded(span):
            pids.append(os.getpid())
            return verify._verify_chunk(span)

        spans = verify._map_spans(recorded, -3000, 3000, workers=2)
        assert expand_runs(chain.from_iterable(spans)) == expected
        assert pids == [os.getpid()] * -(-6001 // 56)

    @pytest.mark.parametrize("end", ["read to the end", "closed early", "raised"])
    def test_the_default_sigterm_action_is_back_however_the_call_ends(self, monkeypatch, end):
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)

        def decide(span):  # the second span, a child's, raises under "raised"
            if end == "raised" and span[0] > 0:
                raise ValueError(span)
            return span

        spans = verify._map_spans(decide, -3000, 3000, workers=2)
        assert next(spans) == (-3000, 0)
        assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL  # it ends the children
        if end == "closed early":
            spans.close()
        else:
            with pytest.raises(ValueError) if end == "raised" else contextlib.nullcontext():
                assert list(spans) == [(1, 3000)]
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        _no_child_left()

    # Python 3.12 and later warn at a fork with a second thread running
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_pooled_call_off_the_main_thread_sets_no_handler(self, monkeypatch):
        # only the main thread may set a signal handler; elsewhere the call
        # runs as before, and SIGTERM keeps its default action
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(_compact_rows(-300, 300, workers=2)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert results == [_compact_rows(-300, 300)]
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_backwards_range_raises_on_first_row(self):
        spans = verify._map_spans(verify._verify_chunk, 1, 0)
        with pytest.raises(EmptyRangeError):
            next(spans)


def test_a_row_builds_no_record(monkeypatch):
    # the kernel reads h, p1 from bundles._p1 and the constants off the classes
    expected = expand_runs(verify._verify_chunk((-200, 200)))
    assert len(expected) == 28 and all(passed for _, _, passed, _ in expected)

    def no_record(*args, **kwargs):
        raise AssertionError("a verify row built a record")

    for name, module in list(sys.modules.items()):
        if name == "milnor_mu" or name.startswith("milnor_mu."):
            for attr in ("MilnorBundle", "characteristic_data", "disk_bundle_invariants"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, no_record)
    for record in (bundles.MilnorBundle, bundles.CharacteristicData,
                   bundles.DiskBundleInvariants):
        monkeypatch.setattr(record, "__init__", no_record)
    assert expand_runs(verify._verify_chunk((-200, 200))) == expected


def test_each_per_h_check_runs_once_per_row_in_order(monkeypatch):
    # the oracle, then the kernel's closed form and its p1, once each per
    # admissible h, and nothing is skipped or repeated for any h
    calls = []
    for module, name in ((verify, "_direct_mu_pair"), (quotient, "_closed_form_scaled"),
                         (quotient, "_p1")):
        def logged(h, real=getattr(module, name), name=name):
            calls.append((name, h))
            return real(h)

        monkeypatch.setattr(module, name, logged)
    rows = expand_runs(verify._verify_chunk((-2000, 2000)))
    admissible = [h for h in range(-2000, 2001) if h * (h - 1) % 56 == 0]
    assert [h for h, _, _, _ in rows] == admissible
    assert all(passed for _, _, passed, _ in rows)
    assert calls == [(name, h) for h in admissible
                     for name in ("_direct_mu_pair", "_closed_form_scaled", "_p1")]


def test_a_json_sweep_holds_its_row_text_once(capsys):
    # json keeps its span text until the counts are known and then writes it
    # piece by piece, so at its peak it holds about one copy of its rows
    argv = ["verify", "--h-range", "-100000..100000", "--format", "json"]
    assert cli.main(argv) == 0
    size = len(capsys.readouterr().out)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * size
