from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from milnor_mu.bundles import (
    MilnorBundle,
    characteristic_data,
    disk_bundle_invariants,
    is_diffeo_s7,
    mu_total_space,
    theta7_class,
)
from milnor_mu.qz import reduce_mod_z

big_h = st.integers(min_value=-(2**256), max_value=2**256)


class TestConstruction:
    def test_j_defaults_to_one_minus_h(self):
        assert MilnorBundle(8) == MilnorBundle(8, j=-7)
        assert MilnorBundle(-3) == MilnorBundle(-3, j=4)

    def test_explicit_matching_j_is_accepted(self):
        assert MilnorBundle(8, -7) == MilnorBundle(8)

    def test_general_pairs_are_rejected(self):
        with pytest.raises(ValueError):
            MilnorBundle(8, 7)
        with pytest.raises(ValueError):
            MilnorBundle(0, 0)

    def test_non_integer_h_is_rejected(self):
        with pytest.raises(TypeError):
            MilnorBundle(Fraction(1, 2))


class TestCharacteristicData:
    @pytest.mark.parametrize("h,magnitude", [(0, 2), (1, 2), (2, 6)])
    def test_p1_magnitudes(self, h, magnitude):
        data = characteristic_data(MilnorBundle(h))
        assert data.euler_coeff == 1
        assert data.p1_magnitude == magnitude

    @given(big_h)
    def test_magnitude_formula(self, h):
        assert characteristic_data(MilnorBundle(h)).p1_magnitude == abs(2 * (2 * h - 1))


class TestDiskBundleInvariants:
    @pytest.mark.parametrize("h,p1sq", [(0, 4), (8, 900), (1, 4)])
    def test_values(self, h, p1sq):
        inv = disk_bundle_invariants(MilnorBundle(h))
        assert inv.signature == 1
        assert inv.p1_squared == p1sq

    @given(big_h)
    def test_square_of_characteristic_coefficient(self, h):
        b = MilnorBundle(h)
        assert disk_bundle_invariants(b).p1_squared == characteristic_data(b).p1_magnitude ** 2

    @given(big_h)
    def test_bounding_assembly_is_exact_not_just_mod_1(self, h):
        inv = disk_bundle_invariants(MilnorBundle(h))
        assembled = Fraction(inv.p1_squared, 2**7 * 7) - Fraction(inv.signature, 2**5 * 7)
        assert assembled == Fraction(h * (h - 1), 56)


class TestDiffeoS7:
    @pytest.mark.parametrize("h,expected", [(0, True), (2, False), (49, True), (8, True), (-7, True), (5, False)])
    def test_examples(self, h, expected):
        assert is_diffeo_s7(MilnorBundle(h)) is expected


class TestMuTotalSpace:
    @pytest.mark.parametrize(
        "h,rep",
        [(0, Fraction(0)), (2, Fraction(1, 28)), (8, Fraction(0)), (5, Fraction(5, 14))],
    )
    def test_examples(self, h, rep):
        assert mu_total_space(MilnorBundle(h)).rep == rep

    def test_exhaustive_over_one_period(self):
        for h in range(56):
            assert mu_total_space(MilnorBundle(h)) == reduce_mod_z(Fraction(h * (h - 1), 56))

    @given(big_h)
    def test_symmetric_under_h_to_one_minus_h(self, h):
        assert mu_total_space(MilnorBundle(h)) == mu_total_space(MilnorBundle(1 - h))

    @given(big_h)
    def test_period_56(self, h):
        assert mu_total_space(MilnorBundle(h)) == mu_total_space(MilnorBundle(h + 56))

    @given(big_h)
    def test_denominator_divides_28(self, h):
        assert h * (h - 1) % 2 == 0
        assert 28 % mu_total_space(MilnorBundle(h)).rep.denominator == 0

    @given(big_h)
    def test_diffeo_iff_mu_zero_iff_class_zero(self, h):
        b = MilnorBundle(h)
        mu_zero = mu_total_space(b).rep == 0
        assert is_diffeo_s7(b) == mu_zero == (theta7_class(b) == 0)


class TestTheta7Class:
    @pytest.mark.parametrize("h,cls", [(2, 1), (0, 0), (5, 10), (1, 0), (8, 0)])
    def test_examples(self, h, cls):
        assert theta7_class(MilnorBundle(h)) == cls

    def test_class_matches_mu_as_multiple_of_generator(self):
        generator_mu = mu_total_space(MilnorBundle(2))
        for h in range(-56, 57):
            b = MilnorBundle(h)
            assert theta7_class(b) * generator_mu == mu_total_space(b)

    @given(big_h)
    def test_range(self, h):
        assert 0 <= theta7_class(MilnorBundle(h)) < 28
