"""Exact arithmetic in Q and Q/Z with first-class sign ambiguity.

Every quantity in this package is an exact rational; the invariants of
interest live in Q/Z, and several of them are only defined up to an overall
orientation sign.  This module supplies the three value types used
throughout:

* ``Rational`` -- an alias for :class:`fractions.Fraction` (arbitrary
  precision, always stored reduced with positive denominator),
* :class:`ResidueModZ` -- the canonical representative in [0, 1) of a
  rational residue class mod 1,
* :class:`AmbiguousResidue` -- an unordered pair ``{v, -v}`` (possibly
  shifted) standing for a value whose sign was never pinned down.

All values are immutable and all operations are pure functions, so they can
be shared across threads or worker processes without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

Rational = Fraction

RationalLike = Union[Fraction, int]


class DoubleAmbiguityError(ValueError):
    """Two independent two-valued sign ambiguities cannot be combined.

    The pipeline threads exactly one undetermined orientation sign; adding
    two genuinely ambiguous values would produce up to four candidates with
    no meaning here.
    """


def reduce_mod_z(q: RationalLike) -> "ResidueModZ":
    """Canonical representative of ``q`` mod 1, as a fraction in [0, 1)."""
    # a plain Fraction needs no copy: ``% 1`` returns a new, reduced one
    return ResidueModZ((q if type(q) is Fraction else Fraction(q)) % 1)


@dataclass(frozen=True, order=True)
class ResidueModZ:
    """A rational residue class mod 1, held by its unique rep in [0, 1).

    Construct via :func:`reduce_mod_z`; the constructor itself insists on an
    already-canonical representative.
    """

    rep: Fraction

    def __post_init__(self) -> None:
        rep = self.rep
        if not isinstance(rep, Fraction):
            raise TypeError(f"rep must be a Fraction, got {type(rep).__name__}")
        # denominators are positive, so 0 <= rep < 1 is an int comparison
        if not 0 <= rep.numerator < rep.denominator:
            raise ValueError(f"representative {rep} lies outside [0, 1)")

    def __add__(self, other: "ResidueModZ | RationalLike") -> "ResidueModZ":
        if isinstance(other, ResidueModZ):
            return reduce_mod_z(self.rep + other.rep)
        if isinstance(other, (int, Fraction)):
            return reduce_mod_z(self.rep + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "ResidueModZ":
        return reduce_mod_z(-self.rep)

    def __sub__(self, other: "ResidueModZ | RationalLike") -> "ResidueModZ":
        if isinstance(other, ResidueModZ):
            return reduce_mod_z(self.rep - other.rep)
        if isinstance(other, (int, Fraction)):
            return reduce_mod_z(self.rep - other)
        return NotImplemented

    def __mul__(self, n: int) -> "ResidueModZ":
        # Only integer multiples are well defined on residue classes mod 1.
        if isinstance(n, int):
            return reduce_mod_z(self.rep * n)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.rep} mod 1"


def _rep_less(a: ResidueModZ, b: ResidueModZ) -> bool:
    """a.rep < b.rep, cross-multiplied: denominators are positive."""
    ra, rb = a.rep, b.rep
    return ra.numerator * rb.denominator < rb.numerator * ra.denominator


def ambiguous(q: RationalLike) -> "AmbiguousResidue":
    """The value set ``{q, -q}`` mod 1 of a rational with undetermined sign."""
    return AmbiguousResidue.of(reduce_mod_z(q), reduce_mod_z(-Fraction(q)))


@dataclass(frozen=True)
class AmbiguousResidue:
    """Unordered set of one or two residues mod 1, compared by set equality.

    Fresh out of :func:`ambiguous` the set is negation-closed, ``{v, -v}``,
    collapsing to one element exactly when v is 0 or 1/2.  Adding a definite
    residue shifts both members, so shifted pairs need not stay
    negation-closed; equality remains plain set equality either way.
    """

    values: tuple[ResidueModZ, ...]

    def __post_init__(self) -> None:
        values = self.values
        if not 1 <= len(values) <= 2:
            raise ValueError("an ambiguous residue holds one or two values")
        for v in values:
            if not isinstance(v, ResidueModZ):
                raise TypeError("values must be ResidueModZ instances")
        if len(values) == 2:
            a, b = values
            if type(a) is type(b) is ResidueModZ:
                ordered = _rep_less(a, b)
            else:
                ordered = list(values) == sorted(set(values))
            if not ordered:
                raise ValueError("values must be sorted and distinct; use AmbiguousResidue.of")

    @classmethod
    def of(cls, *values: ResidueModZ) -> "AmbiguousResidue":
        if len(values) == 2 and type(values[0]) is type(values[1]) is ResidueModZ:
            a, b = values
            if _rep_less(a, b):
                return cls(values)
            return cls((b, a) if _rep_less(b, a) else (a,))
        return cls(tuple(sorted(set(values))))

    def __iter__(self) -> Iterator[ResidueModZ]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, item: object) -> bool:
        return item in self.values

    @property
    def is_negation_closed(self) -> bool:
        return all(-v in self.values for v in self.values)

    def __str__(self) -> str:
        inner = ", ".join(str(v.rep) for v in self.values)
        return f"{{{inner}}} mod 1"


def add_ambiguous(
    a: "AmbiguousResidue | ResidueModZ", b: "AmbiguousResidue | ResidueModZ"
) -> AmbiguousResidue:
    """Add a definite residue into each member of an ambiguous one.

    At most one argument may carry a genuine two-valued ambiguity; combining
    two raises :class:`DoubleAmbiguityError`.  Definite arguments (plain
    residues or one-element sets) always combine.
    """
    pa, pb = _members(a), _members(b)
    if len(pa) == 2 and len(pb) == 2:
        raise DoubleAmbiguityError(
            "refusing to combine two independent sign ambiguities"
        )
    return AmbiguousResidue.of(*(u + v for u in pa for v in pb))


def _members(x: "AmbiguousResidue | ResidueModZ") -> tuple[ResidueModZ, ...]:
    if isinstance(x, AmbiguousResidue):
        return x.values
    if isinstance(x, ResidueModZ):
        return (x,)
    raise TypeError(f"expected AmbiguousResidue or ResidueModZ, got {type(x).__name__}")
