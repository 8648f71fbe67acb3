from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from milnor_mu.qz import (
    AmbiguousResidue,
    DoubleAmbiguityError,
    ResidueModZ,
    add_ambiguous,
    ambiguous,
    reduce_mod_z,
)

bigints = st.integers(min_value=-(2**256), max_value=2**256)
posints = st.integers(min_value=1, max_value=2**256)
rationals = st.builds(Fraction, bigints, posints)
small_ints = st.integers(min_value=-(2**64), max_value=2**64)


def res(p, q=1):
    return reduce_mod_z(Fraction(p, q))


def negated(a):
    """The set of the negatives mod 1 of the members of a."""
    return {reduce_mod_z(-v.rep) for v in a}


class TestReduceModZ:
    def test_half_stays_half(self):
        assert reduce_mod_z(Fraction(56, 112)) == res(1, 2)

    def test_negative_wraps_up(self):
        assert reduce_mod_z(Fraction(-15, 32)) == res(17, 32)

    def test_admissible_h_eight(self):
        assert reduce_mod_z(Fraction(8 * 7, 56)) == res(0)

    def test_rep_is_stored_reduced(self):
        r = reduce_mod_z(Fraction(6, 4))
        assert (r.rep.numerator, r.rep.denominator) == (1, 2)

    def test_rejects_non_canonical_rep(self):
        with pytest.raises(ValueError):
            ResidueModZ(Fraction(3, 2))
        with pytest.raises(ValueError):
            ResidueModZ(Fraction(-1, 2))

    def test_rejects_bare_int_rep(self):
        with pytest.raises(TypeError):
            ResidueModZ(0)

    @given(rationals, st.integers(min_value=-(2**128), max_value=2**128))
    def test_integer_shifts_vanish(self, q, n):
        assert reduce_mod_z(q + n) == reduce_mod_z(q)

    @given(rationals, rationals)
    def test_reduction_commutes_with_addition(self, a, b):
        assert reduce_mod_z(a) + reduce_mod_z(b) == reduce_mod_z(a + b)

    @given(rationals, small_ints)
    def test_integer_multiple(self, q, n):
        assert n * reduce_mod_z(q) == reduce_mod_z(n * q)

    def test_non_integer_scaling_is_rejected(self):
        with pytest.raises(TypeError):
            res(1, 3) * Fraction(1, 2)


class TestAmbiguous:
    def test_thirtysecond(self):
        assert ambiguous(Fraction(1, 32)) == AmbiguousResidue.of(res(1, 32), res(31, 32))

    def test_zero_collapses(self):
        assert ambiguous(Fraction(0)) == AmbiguousResidue.of(res(0))
        assert len(ambiguous(Fraction(0)).values) == 1

    def test_half_collapses(self):
        assert ambiguous(Fraction(1, 2)) == AmbiguousResidue.of(res(1, 2))

    @given(rationals)
    def test_sign_blind(self, q):
        assert ambiguous(q) == ambiguous(-q)

    @given(rationals)
    def test_negation_closed(self, q):
        a = ambiguous(q)
        assert negated(a) == set(a)

    @given(rationals)
    def test_singleton_iff_self_negative(self, q):
        a = ambiguous(q)
        r = reduce_mod_z(q)
        assert (len(a.values) == 1) == (r.rep in (Fraction(0), Fraction(1, 2)))

    def test_of_requires_canonical_construction(self):
        with pytest.raises(ValueError):
            AmbiguousResidue((res(31, 32), res(1, 32)))
        with pytest.raises(ValueError):
            AmbiguousResidue((res(1, 32), res(1, 32)))
        with pytest.raises(ValueError):
            AmbiguousResidue(())


class _SubFraction(Fraction):
    pass


class _SubResidue(ResidueModZ):
    pass


class TestFastPathEdges:
    """The construction fast paths accept and reject exactly what the general path does."""

    def test_fraction_subclass_rep_is_accepted(self):
        r = ResidueModZ(_SubFraction(1, 3))
        assert r.rep == Fraction(1, 3)
        assert reduce_mod_z(_SubFraction(7, 3)) == res(1, 3)
        assert type(reduce_mod_z(_SubFraction(7, 3)).rep) is Fraction

    def test_int_inputs_are_converted(self):
        assert reduce_mod_z(7) == res(0)
        assert reduce_mod_z(-15) == res(0)
        assert ambiguous(-15) == AmbiguousResidue.of(res(0))

    @pytest.mark.parametrize("q", [2.25, 0.1, "-15/32", "1/3", Decimal("0.25")])
    @pytest.mark.parametrize("convert", [reduce_mod_z, ambiguous])
    def test_float_str_or_decimal_input_is_a_type_error(self, convert, q):
        with pytest.raises(TypeError, match=f"got {type(q).__name__}"):
            convert(q)

    @pytest.mark.parametrize("rep", [0, 1, True, 0.5, "1/2", None])
    def test_non_fraction_rep_is_a_type_error(self, rep):
        with pytest.raises(TypeError):
            ResidueModZ(rep)

    @pytest.mark.parametrize(
        "rep", [Fraction(1), Fraction(-1, 1792), Fraction(1793, 1792), _SubFraction(-1, 3)]
    )
    def test_rep_outside_unit_interval_is_a_value_error(self, rep):
        with pytest.raises(ValueError):
            ResidueModZ(rep)

    @pytest.mark.parametrize(
        "pair",
        [
            (res(31, 32), res(1, 32)),
            (res(1, 32), res(1, 32)),
            (res(1, 32), ResidueModZ(Fraction(1, 32))),
            (res(1, 2), res(0)),
            (res(1, 2), res(0), res(1, 2)),
            (res(0), res(1, 4), res(1, 2)),
        ],
    )
    def test_unsorted_or_duplicate_pair_is_a_value_error(self, pair):
        with pytest.raises(ValueError):
            AmbiguousResidue(pair)
        if len(pair) == 3:  # .of sorts and collapses a pair, never a third member
            with pytest.raises(ValueError):
                AmbiguousResidue.of(*pair)

    def test_sorted_pair_is_accepted(self):
        a = AmbiguousResidue((res(1, 32), res(31, 32)))
        assert a.values == (res(1, 32), res(31, 32))

    def test_of_same_value_collapses(self):
        v = res(1, 32)
        assert AmbiguousResidue.of(v, v).values == (v,)
        assert AmbiguousResidue.of(v, ResidueModZ(Fraction(1, 32))).values == (v,)

    def test_of_sorts_a_pair(self):
        assert AmbiguousResidue.of(res(31, 32), res(1, 32)).values == (res(1, 32), res(31, 32))

    @pytest.mark.parametrize(
        "members",
        [
            (res(1, 32), Fraction(31, 32)),
            (Fraction(1, 32), res(31, 32)),
            (Fraction(1, 32),),
            (1, 2),
            (res(0), "x"),
            (res(1, 32), res(1, 32), 0),
            (_SubResidue(Fraction(1, 32)),),
            (_SubResidue(Fraction(1, 32)), _SubResidue(Fraction(31, 32))),
        ],
    )
    def test_of_non_residue_member_is_a_type_error(self, members):
        with pytest.raises(TypeError):
            AmbiguousResidue.of(*members)

    def test_mixed_residue_subclass_pair_is_a_type_error(self):
        with pytest.raises(TypeError):
            AmbiguousResidue((res(1, 32), _SubResidue(Fraction(31, 32))))
        with pytest.raises(TypeError):
            AmbiguousResidue.of(_SubResidue(Fraction(31, 32)), res(1, 32))

    @given(rationals, rationals)
    def test_of_pair_matches_sorted_set(self, p, q):
        a, b = reduce_mod_z(p), reduce_mod_z(q)
        assert AmbiguousResidue.of(a, b).values == tuple(sorted({a, b}, key=lambda v: v.rep))


class TestAddAmbiguous:
    def test_half_shift_of_sum_values(self):
        pair = AmbiguousResidue.of(res(15, 32), res(17, 32))
        assert add_ambiguous(res(1, 2), pair) == AmbiguousResidue.of(res(31, 32), res(1, 32))

    def test_zero_is_identity(self):
        pair = ambiguous(Fraction(1, 32))
        assert add_ambiguous(res(0), pair) == pair

    def test_half_shift_of_rp7_values(self):
        shifted = add_ambiguous(res(1, 2), ambiguous(Fraction(1, 32)))
        assert shifted == AmbiguousResidue.of(res(17, 32), res(15, 32))

    def test_double_ambiguity_is_refused(self):
        with pytest.raises(DoubleAmbiguityError):
            add_ambiguous(ambiguous(Fraction(1, 32)), ambiguous(Fraction(1, 16)))

    def test_singleton_ambiguous_counts_as_definite(self):
        out = add_ambiguous(ambiguous(Fraction(1, 2)), ambiguous(Fraction(1, 32)))
        assert out == AmbiguousResidue.of(res(15, 32), res(17, 32))

    def test_two_definites_collapse(self):
        out = add_ambiguous(res(1, 3), res(2, 3))
        assert out == AmbiguousResidue.of(res(0))

    @given(rationals, rationals)
    def test_definite_shift_commutes(self, q, d):
        lhs = add_ambiguous(reduce_mod_z(d), ambiguous(q))
        rhs = add_ambiguous(ambiguous(q), reduce_mod_z(d))
        assert lhs == rhs

    @given(rationals)
    def test_shift_by_half_preserves_negation_closure(self, q):
        out = add_ambiguous(res(1, 2), ambiguous(q))
        assert negated(out) == set(out)


class TestExactness:
    @given(rationals, rationals)
    def test_add_then_subtract_roundtrips(self, a, b):
        assert (a + b) - b == a

    @given(rationals)
    def test_fractions_store_reduced(self, q):
        from math import gcd

        assert q.denominator > 0
        assert gcd(q.numerator, q.denominator) == 1
