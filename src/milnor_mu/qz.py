"""Exact residues mod 1 and sign-ambiguous value sets.

The invariants of interest live in Q/Z, and the quotient's is only defined
up to an overall orientation sign.  The pipeline computes them in integers;
this module supplies the two value types in which they reach the public
API:

* :class:`ResidueModZ` -- the canonical representative in [0, 1) of a
  rational residue class mod 1,
* :class:`AmbiguousResidue` -- a set of one or two residues, such as
  ``{v, -v}``, standing for a value whose sign was never pinned down.

All values are immutable slotted records and all operations are pure
functions, so they can be shared across threads or worker processes without
coordination.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from ._record import Record


class DoubleAmbiguityError(ValueError):
    """Two independent two-valued sign ambiguities cannot be combined.

    Adding two genuinely ambiguous values would produce up to four candidates
    with no meaning here.  The pipeline itself never combines value sets: its
    one undetermined orientation sign is the +/- of the closed form, taken in
    integers by ``quotient._closed_form_scaled`` and
    ``verify._direct_mu_pair``.
    """


def reduce_mod_z(q: Fraction | int) -> "ResidueModZ":
    """Canonical representative of ``q`` mod 1, as a fraction in [0, 1)."""
    # a plain Fraction needs no copy: ``% 1`` returns a new, reduced one
    return ResidueModZ((q if type(q) is Fraction else Fraction(q)) % 1)


class ResidueModZ(Record):
    """A rational residue class mod 1, held by its unique rep in [0, 1).

    Construct via :func:`reduce_mod_z`; the constructor itself insists on an
    already-canonical representative.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: Fraction) -> None:
        if not isinstance(rep, Fraction):
            raise TypeError(f"rep must be a Fraction, got {type(rep).__name__}")
        # denominators are positive, so 0 <= rep < 1 is an int comparison
        if not 0 <= rep.numerator < rep.denominator:
            raise ValueError(f"representative {rep} lies outside [0, 1)")
        object.__setattr__(self, "rep", rep)

    def __add__(self, other: "ResidueModZ | Fraction | int") -> "ResidueModZ":
        if isinstance(other, ResidueModZ):
            return reduce_mod_z(self.rep + other.rep)
        if isinstance(other, (int, Fraction)):
            return reduce_mod_z(self.rep + other)
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


def ambiguous(q: Fraction | int) -> "AmbiguousResidue":
    """The value set ``{q, -q}`` mod 1 of a rational with undetermined sign."""
    return AmbiguousResidue.of(reduce_mod_z(q), reduce_mod_z(-Fraction(q)))


class AmbiguousResidue(Record):
    """Set of one or two residues mod 1, held sorted, compared by equality.

    Fresh out of :func:`ambiguous` the set is negation-closed, ``{v, -v}``,
    collapsing to one element exactly when v is 0 or 1/2.  Adding a definite
    residue shifts both members, so shifted pairs need not stay
    negation-closed; equality remains plain set equality either way.
    Members are of the exact type :class:`ResidueModZ`.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[ResidueModZ, ...]) -> None:
        for v in values:
            if type(v) is not ResidueModZ:
                raise TypeError("values must be ResidueModZ instances")
        if not 1 <= len(values) <= 2:
            raise ValueError("an ambiguous residue holds one or two values")
        if len(values) == 2 and not _rep_less(*values):
            raise ValueError("values must be sorted and distinct; use AmbiguousResidue.of")
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, *values: ResidueModZ) -> "AmbiguousResidue":
        """The set of one or two residues given in any order, a repeat collapsed."""
        if len(values) == 2 and type(values[0]) is type(values[1]) is ResidueModZ:
            a, b = values
            if _rep_less(b, a):
                values = b, a
            elif not _rep_less(a, b):
                values = (a,)
        return cls(values)

    def __iter__(self) -> Iterator[ResidueModZ]:
        return iter(self.values)

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
