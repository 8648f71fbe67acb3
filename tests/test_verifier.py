import os
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_faults import oracle_off_in_one_k_of_four, oracle_off_on_odd_h

from milnor_mu import bundles, quotient, qz, verify
from milnor_mu.bundles import MilnorBundle
from milnor_mu.quotient import MU_RP7_SUM_14M2, mu_quotient
from milnor_mu.qz import ambiguous, reduce_mod_z
from milnor_mu.verify import (
    Case,
    EmptyRangeError,
    VerifyRow,
    brute_force_theorem,
    check_case,
    direct_mu_set,
    enumerate_residues,
    pool_size,
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


def _expected_report(case: Case, k_min: int, k_max: int) -> verify.CaseReport:
    quad, linear = verify._CASE_CONSTANTS[case]
    failures = _per_k_reference(case, k_min, k_max)
    return verify.CaseReport(
        case, case.h_residue, quad, linear, k_min, k_max, not failures, failures
    )


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
        assert report == _expected_report(case, k_min, k_max)
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
        assert report == _expected_report(case, k_min, k_max)
        assert report.failures and not report.matches

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
            expected = _expected_report(case, k_min, k_min + width)
            assert check_case(case, k_min, k_min + width) == expected

    def test_period_divides_every_modulus(self):
        assert all(verify._CASE_PERIOD % m == 0 for m in (112, 32, 224))

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
        target = verify._pair(verify._TARGET)
        failures = tuple(
            k for k in range(k_min, k_max + 1)
            if not (_case_holds_by_fractions(case, k)
                    and verify._direct_mu_pair(56 * k + case.h_residue) == target)
        )
        quad, linear = verify._CASE_CONSTANTS[case]
        assert failures
        assert check_case(case, k_min, k_max) == verify.CaseReport(
            case, case.h_residue, quad, linear, k_min, k_max, False, failures
        )


class TestDirectMuSet:
    @given(st.integers(min_value=-(2**256) + 56, max_value=2**256 - 56))
    def test_oracle_equals_pipeline_on_admissible_h(self, n):
        h = 56 * (n // 56)  # snap to an admissible representative
        for offset in (0, 1, 8, 49):
            assert direct_mu_set(h + offset) == mu_quotient(MilnorBundle(h + offset))


class TestDirectMuPair:
    def test_equals_fraction_oracle_on_every_h_of_a_window(self):
        for h in range(-3000, 3001):  # admissible or not, negative or not
            assert verify._direct_mu_pair(h) == verify._pair(direct_mu_set(h))

    @given(st.integers(min_value=-(2**256), max_value=2**256))
    def test_equals_fraction_oracle_on_wide_h(self, h):
        assert verify._direct_mu_pair(h) == verify._pair(direct_mu_set(h))

    @given(st.integers(min_value=-(2**256), max_value=2**256))
    def test_two_odd_members_in_order(self, h):
        a, b = verify._direct_mu_pair(h)
        assert a % 2 == b % 2 == 1  # so neither member is 0
        assert 0 < a < b < 224

    def test_shares_no_name_with_the_quotient_module(self):
        assert not set(verify._direct_mu_pair.__code__.co_names) & set(vars(quotient))

    def test_pair_refuses_a_member_off_the_224_grid(self):
        with pytest.raises(ValueError, match="1/224 grid"):
            verify._pair(ambiguous(Fraction(1, 3)))


class TestSweepStaysOffFractions:
    def test_rows_pass_without_the_fraction_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the verify sweep called a Fraction oracle")

        monkeypatch.setattr(verify, "direct_mu_set", refuse)
        for module in (qz, bundles, verify):
            monkeypatch.setattr(module, "reduce_mod_z", refuse)
        chunk = verify._verify_chunk((-200, 200))
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

    def test_parallel_matches_sequential(self):
        assert verify_range(-300, 300, workers=3) == verify_range(-300, 300)

    @pytest.mark.parametrize("odd_h_fault, value_sets", [(False, 1), (True, 2)])
    def test_one_value_set_object_per_distinct_set(self, monkeypatch, odd_h_fault, value_sets):
        if odd_h_fault:
            oracle_off_on_odd_h(monkeypatch)
        rows = verify_range(-5600, 5600)
        assert len({id(r.mu_set) for r in rows}) == value_sets
        assert all(r.mu_set == verify._expand(verify._direct_mu_pair(r.h)) for r in rows)
        assert rows[0].mu_set == direct_mu_set(rows[0].h)


def _plain_ints_only(value):
    """True when value is built from ints, strs, bools and tuples alone."""
    if type(value) is tuple:
        return all(_plain_ints_only(v) for v in value)
    return type(value) in (int, str, bool)


class TestCompactWorkerRows:
    @pytest.mark.parametrize("span", [(-300, 300), (10**18 - 200, 10**18 + 200), (2, 7)])
    def test_chunk_holds_plain_ints_only(self, span):
        chunk = verify._verify_chunk(span)
        assert _plain_ints_only(chunk)
        assert len(chunk) == len(verify_range(*span))

    def test_row_layout(self):
        assert verify._verify_chunk((8, 8)) == ((8, "RP7", True, (7, 217)),)

    @given(st.integers(min_value=-(2**64), max_value=2**64))
    def test_pair_round_trips(self, h):
        mu = direct_mu_set(h)
        assert verify._expand(verify._pair(mu)) == mu


def _every_h_reference(lo, hi):
    """The rows a correct sweep must give, found by scanning every h."""
    return tuple(
        VerifyRow(h, h % 56, direct_mu_set(h), "RP7", True)
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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPoolSize:
    @pytest.mark.parametrize(
        "requested,cpus,width,expected",
        [
            (2, 2, 2, 2),
            (8, 2, 8, 2),
            (10**9, 4, 10**6, 4),
            (-3, 4, 10, 1),
            (4, 8, 3, 3),
            (3, None, 10, 1),
            (1, 8, 8, 1),
            (2, 2, 0, 1),
        ],
    )
    def test_clamp(self, requested, cpus, width, expected):
        assert pool_size(requested, cpus, width) == expected

    @pytest.mark.parametrize(
        "lo,hi,requested,expected_pool",
        [(-56, 56, 10**6, [4]), (0, 2, 8, [3]), (0, 0, 8, [])],
    )
    def test_verify_range_starts_a_clamped_pool(self, monkeypatch, lo, hi, requested,
                                                expected_pool):
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(verify.os, "fork", counted_fork)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
        assert verify_range(lo, hi, workers=requested) == verify_range(lo, hi)
        # the children forked by the one pooled call, if there was one
        assert ([len(forks)] if forks else []) == expected_pool


class TestSweepEngine:
    """``_sweep``: spans in h order, rows as they are decided, bounded fan-out."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_first_row_comes_before_the_last_span_is_decided(self, monkeypatch, tmp_path,
                                                             workers):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        last = (56 * 9, 56 * 10 - 1)
        log = tmp_path / "decided"
        logged = _logging(log, verify._verify_chunk)
        hold, release = os.pipe()

        def held(span):  # the child of the last span waits for the release
            if span == last and workers:
                os.read(hold, 1)
            return logged(span)

        monkeypatch.setattr(verify, "_verify_chunk", held)
        rows = verify._sweep(0, 56 * 10 - 1, workers)
        try:
            assert next(rows)[0] == 0
            assert _logged(log) and last not in _logged(log)
            os.write(release, b"x")
            rest = list(rows)
        finally:
            rows.close()
            os.close(hold)
            os.close(release)
        assert sorted(_logged(log)) == [(56 * i, 56 * i + 55) for i in range(10)]
        assert len(rest) == 4 * 10 - 1

    def test_pooled_spans_in_flight_are_bounded(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
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
        # when workers is 2, two children decide 18 spans each
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56 * 3)
        expected = verify._verify_chunk((-3000, 3000))
        assert tuple(verify._sweep(-3000, 3000, workers)) == expected

    def test_span_width_caps_a_wide_sequential_range(self, monkeypatch, tmp_path):
        log = tmp_path / "decided"
        monkeypatch.setattr(verify, "_verify_chunk", _logging(log, verify._verify_chunk))
        width = 2 * verify._SPAN_WIDTH + 1
        assert sum(1 for _ in verify._sweep(0, width - 1)) == len(verify_range(0, width - 1))
        assert [hi - lo + 1 for lo, hi in _logged(log)[:3]] == [verify._SPAN_WIDTH] * 2 + [1]

    def test_pooled_spans_come_in_equal_shares_per_worker(self, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        # 200,001 h: seven spans of at most _SPAN_WIDTH, so eight for two workers
        spans = list(verify._map_spans(tuple, -100000, 100000, workers=2))
        assert len(spans) == 8
        assert spans[0][0] == -100000 and spans[-1][1] == 100000
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        widths = [hi - lo + 1 for lo, hi in spans]
        assert set(widths[:-1]) == {25001} and widths[-1] > 25001 - len(spans)

    @pytest.mark.usefixtures("time_limit")
    def test_closing_early_decides_no_unstarted_span(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        log = tmp_path / "decided"
        spans = verify._map_spans(_logging(log, lambda span: (span, b"x" * BIG)),
                                  0, 56 * 10 - 1, workers=2)
        assert next(spans)[0] == (0, 55)
        spans.close()
        _no_child_left()  # so nothing more can be decided
        decided = _logged(log)
        assert (0, 55) in decided and len(decided) <= 1 + 2

    def test_a_failing_span_cancels_the_unstarted_ones(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
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

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("how", ["killed", "exited"])
    def test_a_lost_worker_is_an_error_naming_its_span(self, monkeypatch, how):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)

        def decide(span):
            if span[0] == 56 * 3:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return span

        spans = verify._map_spans(decide, 0, 56 * 10 - 1, workers=2)
        assert [next(spans) for _ in range(3)] == [(0, 55), (56, 111), (112, 167)]
        with pytest.raises(RuntimeError,
                           match=r"^the worker for h in \[168, 223\] ended without its result$"):
            next(spans)

    @pytest.mark.usefixtures("time_limit")
    def test_a_child_reaped_elsewhere_spares_no_other_child(self, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
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
        assert len(pids) == 4
        os.kill(pids[0], signal.SIGKILL)  # the first child goes, reaped by someone else
        os.waitpid(pids[0], 0)
        spans.close()  # must still kill and reap the other three, raising nothing

    def test_without_fork_every_span_is_decided_here(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)
        expected = verify._verify_chunk((-3000, 3000))
        pids = []
        real = verify._verify_chunk

        def recorded(span):
            pids.append(os.getpid())
            return real(span)

        monkeypatch.setattr(verify, "_verify_chunk", recorded)
        assert tuple(verify._sweep(-3000, 3000, workers=2)) == expected
        assert pids == [os.getpid()] * -(-6001 // 56)

    def test_backwards_range_raises_on_first_row(self):
        rows = verify._sweep(1, 0)
        with pytest.raises(EmptyRangeError):
            next(rows)


def test_one_characteristic_data_per_row(monkeypatch):
    calls = []
    real = bundles.characteristic_data

    def counted(bundle):
        calls.append(bundle.h)
        return real(bundle)

    for module in (bundles, quotient):
        monkeypatch.setattr(module, "characteristic_data", counted)
    target = verify._pair(verify._TARGET)
    assert verify._verify_row(8, target) == (8, "RP7", True, (7, 217))
    assert calls == [8]
