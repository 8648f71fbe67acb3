from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_residue_caches import BIG

from milnor_mu import quotient
from milnor_mu.bundles import MilnorBundle
from milnor_mu.quotient import (
    MU_RP7,
    MU_RP7_SUM_14M2,
    DichotomyViolationError,
    FixedPointContributions,
    NotDiffeoS7Error,
    QuotientReport,
    Verdict,
    _closed_form_scaled,
    _mu_quotient_scaled,
    classify_quotient,
    fixed_point_contributions,
    mu_quotient,
)
from milnor_mu.qz import AmbiguousResidue, reduce_mod_z

# admissible h: 56k + r for r in the four residue classes
admissible_h = st.builds(
    lambda k, r: 56 * k + r,
    st.integers(min_value=-(2**250), max_value=2**250),
    st.sampled_from((0, 1, 8, 49)),
)


def res(p, q=1):
    return reduce_mod_z(Fraction(p, q))


class TestTargetSets:
    def test_rp7_values(self):
        assert MU_RP7 == AmbiguousResidue.of(res(1, 32), res(31, 32))

    def test_sum_values_are_rp7_shifted_by_half(self):
        assert MU_RP7_SUM_14M2 == AmbiguousResidue.of(res(15, 32), res(17, 32))
        shifted = AmbiguousResidue.of(*(v + Fraction(1, 2) for v in MU_RP7))
        assert shifted == MU_RP7_SUM_14M2

    def test_sets_are_disjoint(self):
        assert MU_RP7 != MU_RP7_SUM_14M2


class TestFixedPointContributions:
    @pytest.mark.parametrize("h,a1_mag", [(0, Fraction(1, 16)), (8, Fraction(15, 16)), (1, Fraction(1, 16))])
    def test_examples(self, h, a1_mag):
        fp = fixed_point_contributions(MilnorBundle(h))
        assert fp.a1_magnitude == a1_mag
        assert fp.a2 == 1
        assert type(fp.a2) is Fraction  # built on each read, still a Fraction
        assert fp.equivariant_signature == 1

    def test_negative_a1_magnitude_is_rejected(self):
        with pytest.raises(ValueError):
            FixedPointContributions(Fraction(-15, 16))

    def test_a1_pair_is_signed_and_sorted(self):
        fp = fixed_point_contributions(MilnorBundle(8))
        assert fp.a1_pair == (Fraction(-15, 16), Fraction(15, 16))

    @given(st.integers(min_value=-(2**128), max_value=2**128))
    def test_a1_magnitude_formula(self, h):
        fp = fixed_point_contributions(MilnorBundle(h))
        assert fp.a1_magnitude == Fraction(abs(2 * h - 1), 16)


class TestMuQuotient:
    @pytest.mark.parametrize("h", [0, 8, 49, 1, -7, -48, -55, 56, 105])
    def test_admissible_h_hits_rp7_values(self, h):
        assert mu_quotient(MilnorBundle(h)) == MU_RP7

    @pytest.mark.parametrize("h", [2, 3, -1, 50, 7])
    def test_inadmissible_h_is_refused(self, h):
        with pytest.raises(NotDiffeoS7Error):
            mu_quotient(MilnorBundle(h))

    @given(admissible_h)
    def test_symmetric_under_h_to_one_minus_h(self, h):
        assert mu_quotient(MilnorBundle(h)) == mu_quotient(MilnorBundle(1 - h))

    @given(admissible_h)
    def test_period_56(self, h):
        assert mu_quotient(MilnorBundle(h)) == mu_quotient(MilnorBundle(h + 56))

    @given(admissible_h)
    def test_theorem_at_random_scale(self, h):
        assert mu_quotient(MilnorBundle(h)) == MU_RP7


class TestScaledKernel:
    @pytest.mark.parametrize("h", [0, 1, 8, 49, -7, 105])
    def test_admissible_h_gives_the_rp7_pair(self, h):
        assert _mu_quotient_scaled(h) == ((56, 1736), "RP7")

    @given(st.integers(min_value=-(2**128), max_value=2**128))
    def test_closed_form_is_1792_times_the_fraction_formula(self, h):
        base, shift = Fraction(h * (h - 1), 112), Fraction(2 * h - 1, 32)
        expected = sorted({(base + shift) % 1 * 1792, (base - shift) % 1 * 1792})
        lo, hi = _closed_form_scaled(h)
        assert 0 <= lo <= hi < 1792
        assert sorted({lo, hi}) == expected

    def test_verdicts(self, monkeypatch):
        # the kernel's verdict strings are the values of the Verdict members
        assert _mu_quotient_scaled(8)[1] == Verdict.REAL_PROJECTIVE_7.value
        monkeypatch.setattr(quotient, "_RP7_SCALED", (840, 952))
        monkeypatch.setattr(quotient, "_RP7_SUM_14M2_SCALED", (56, 1736))
        assert _mu_quotient_scaled(8) == ((56, 1736), Verdict.REAL_PROJECTIVE_7_SUM_14M2.value)

    @pytest.mark.parametrize("pair", [(0, 0), (56, 952), (1736, 56), (57, 1735)])
    def test_any_other_pair_violates_the_dichotomy(self, monkeypatch, pair):
        # the kernel's pair, (56, 1736), is then neither RP7's nor RP7#14M2's
        monkeypatch.setattr(quotient, "_RP7_SCALED", pair)
        with pytest.raises(DichotomyViolationError):
            _mu_quotient_scaled(8)


def refusal(h):
    """The text of the kernel's NotDiffeoS7Error at h, or None where it accepts h."""
    try:
        _mu_quotient_scaled(h)
    except NotDiffeoS7Error as exc:
        return str(exc)
    return None


class TestAdmissibility:
    """The kernel reads admissibility from h mod 56, and h(h-1) stays in its text."""

    def test_refused_exactly_where_56_does_not_divide_h_times_h_minus_1(self):
        # two periods of the closed form's 1792 on either side of 0
        for h in range(-1792, 1793):
            expected = (None if h * (h - 1) % 56 == 0
                        else f"h={h}: h(h-1) = {h * (h - 1)} is not divisible by 56")
            assert refusal(h) == expected

    @given(st.integers(min_value=-BIG, max_value=BIG))
    @example(BIG)  # 31 mod 56, and h(h-1) has more digits than str() writes
    @example(-BIG)
    @example(BIG - 31)
    def test_refused_exactly_where_56_does_not_divide_h_times_h_minus_1_at_any_size(self, h):
        text = refusal(h)
        assert (text is None) == (h * (h - 1) % 56 == 0)
        if text is not None:
            assert text.startswith(f"h={h}: h(h-1) = ")
            assert text.endswith(" is not divisible by 56")


class TestClassifyQuotient:
    @pytest.mark.parametrize("h", [0, 1, 8, 49])
    def test_admissible_fixtures_are_rp7(self, h):
        assert classify_quotient(MilnorBundle(h)).verdict is Verdict.REAL_PROJECTIVE_7

    def test_exotic_total_space_is_not_applicable(self):
        report = classify_quotient(MilnorBundle(2))
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert report.mu_quotient is None

    def test_report_carries_contributions_and_mu(self):
        report = classify_quotient(MilnorBundle(8))
        assert report.h == 8
        assert report.contributions.a1_magnitude == Fraction(15, 16)
        assert report.mu_quotient == MU_RP7

    def test_report_invariants_are_enforced(self):
        fp = fixed_point_contributions(MilnorBundle(2))
        with pytest.raises(ValueError):
            QuotientReport(2, fp, MU_RP7, Verdict.REAL_PROJECTIVE_7)
        fp8 = fixed_point_contributions(MilnorBundle(8))
        with pytest.raises(ValueError):
            QuotientReport(8, fp8, MU_RP7_SUM_14M2, Verdict.REAL_PROJECTIVE_7)

    @given(admissible_h)
    def test_never_a_dichotomy_violation_on_admissible_h(self, h):
        report = classify_quotient(MilnorBundle(h))
        assert report.verdict is Verdict.REAL_PROJECTIVE_7
