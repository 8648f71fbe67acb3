"""The Milnor family of S^3-bundles over S^4 and its total spaces.

The bundle ``xi_{h,j}`` is clutched by ``u -> (v -> u^h v u^j)`` acting on the
quaternions.  Only the subfamily ``j = 1 - h`` is modelled: those are the
bundles whose total space ``M_h`` is a homotopy 7-sphere bounding the disk
bundle ``N_h``.  Characteristic data of the general family is not available
here, so constructing anything else is rejected outright.

With ``x`` the positive generator of ``H^4(S^4)``, the family has Euler class
``x`` and first Pontryagin class ``+/- 2(2h-1) x``; the orientation sign of
the latter is never fixed and is carried as a magnitude with an ambiguous
sign.  Everything this module derives (signature, Pontryagin number,
Eells-Kuiper mu of the total space) follows from those two classes.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .qz import ResidueModZ, reduce_mod_z


class DerivationMismatch(RuntimeError):
    """An invariant came out different along two derivation routes."""


class MilnorBundle(Record):
    """The pair (h, j) with j = 1 - h.  Plain ints, any magnitude.

    Only h is stored, and ``j`` is read from it; a j passed in is checked.
    """

    __slots__ = ("h",)

    def __init__(self, h: int, j: int | None = None) -> None:
        if not isinstance(h, int):
            raise TypeError(f"h must be an int, got {type(h).__name__}")
        if j is not None and not isinstance(j, int):
            raise TypeError(f"j must be an int, got {type(j).__name__}")
        if j not in (None, 1 - h):
            raise ValueError(f"unsupported clutching pair (h={h}, j={j}): need j = 1 - h")
        object.__setattr__(self, "h", h)

    @property
    def j(self) -> int:
        return 1 - self.h


class CharacteristicData(Record):
    """Euler and Pontryagin coefficients of the bundle on the S^4 generator.

    ``p1_magnitude`` is |2(2h-1)|; the sign of p1 is an orientation choice
    that stays ambiguous, so only the magnitude is recorded.
    """

    __slots__ = ("p1_magnitude",)

    #: Every bundle in the j = 1 - h family has Euler class x.
    euler_coeff = 1

    def __init__(self, p1_magnitude: int) -> None:
        if p1_magnitude < 0:
            raise ValueError("p1 magnitude is non-negative by construction")
        object.__setattr__(self, "p1_magnitude", p1_magnitude)


class DiskBundleInvariants(Record):
    """Signature and Pontryagin number of the 8-dimensional disk bundle."""

    __slots__ = ("p1_squared",)

    #: The disk bundle over S^4 has signature 1 across the family.
    signature = 1

    def __init__(self, p1_squared: int) -> None:
        if p1_squared < 0:
            raise ValueError("p1^2 is a square, hence non-negative")
        object.__setattr__(self, "p1_squared", p1_squared)


def _p1(h: int) -> int:
    """The p1 coefficient 2(2h-1) of xi_{h,1-h}, read with one of its two signs.

    The one place p1 is stated: the records below and the quotient kernel,
    which reads h alone, all take it from here.
    """
    return 2 * (2 * h - 1)


def characteristic_data(bundle: MilnorBundle) -> CharacteristicData:
    """e = x and p1 = +/- 2(2h-1) x, reported as magnitude."""
    return CharacteristicData(abs(_p1(bundle.h)))


def disk_bundle_invariants(bundle: MilnorBundle) -> DiskBundleInvariants:
    """Signature 1 and p1^2 = 4(2h-1)^2 of the disk bundle N_h.

    The Pontryagin number is the square of the p1 coefficient +/- 2(2h-1), so
    the sign ambiguity cancels and an honest integer comes out.
    """
    return DiskBundleInvariants(_p1(bundle.h) ** 2)


def is_diffeo_s7(bundle: MilnorBundle) -> bool:
    """True iff M_h is diffeomorphic to the standard S^7: 56 | h(h-1)."""
    return bundle.h * (bundle.h - 1) % 56 == 0


def mu_total_space(bundle: MilnorBundle) -> ResidueModZ:
    """Eells-Kuiper mu-invariant of M_h: h(h-1)/56 mod 1.

    Computed twice: once from the closed form and once assembled from the
    bounding disk bundle as p1^2/(2^7*7) - sign/(2^5*7).  The two agree as
    exact rationals, not merely mod 1; a mismatch means the derivation chain
    is broken and raises.
    """
    inv = disk_bundle_invariants(bundle)
    assembled = Fraction(inv.p1_squared, 2**7 * 7) - Fraction(inv.signature, 2**5 * 7)
    closed = Fraction(bundle.h * (bundle.h - 1), 56)
    if assembled != closed:
        raise DerivationMismatch(
            f"mu(M_{bundle.h}): bounding-manifold assembly {assembled} "
            f"!= closed form {closed}"
        )
    return reduce_mod_z(closed)


def theta7_class(bundle: MilnorBundle) -> int:
    """Class of M_h in the group of homotopy 7-spheres, as a multiple of M_2.

    The group is cyclic of order 28 with the h = 2 sphere as generator; mu is
    additive under connected sum and injective on it, which identifies M_h
    with h(h-1)/2 copies of the generator (h(h-1) is always even).  This is a
    derived convenience, not part of the quotient classification.
    """
    return (bundle.h * (bundle.h - 1) // 2) % 28
