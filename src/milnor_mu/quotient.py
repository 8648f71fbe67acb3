"""Classification of the antipodal quotients M_h/tau_h.

``tau_h`` is the fiberwise antipodal involution on the sphere bundle M_h.
When M_h is diffeomorphic to S^7 the quotient is a smooth manifold that can
only be RP^7 or RP^7 # 14 M_2 (fourteen copies of the generating exotic
sphere summed on), and the two are told apart by the Eells-Kuiper
mu-invariant: mu(RP^7) = +/- 1/32 while mu(RP^7 # 14 M_2) = +/- 1/32 + 1/2.

mu of the quotient is evaluated by localizing at the fixed S^4 of the
extended involution on the disk bundle.  The fixed-point data consists of a
spinor-index contribution A_1 = +/- (2h-1)/16, a signature-type contribution
A_2 = 1 (the Euler number of the normal bundle of the fixed sphere), and the
equivariant signature 1.  Assembled with half the bounding-manifold term of
the covering sphere, these give

    mu(M_h/tau_h) = h(h-1)/112 +/- (2h-1)/32   (mod 1),

where the one orientation sign is inherited from A_1.  Both the closed form
and the term-by-term assembly are read and compared on every call.
Every denominator involved divides 1792, so both run on 1792 * mu as plain
integers mod 1792, in a kernel that reads h alone: p1 from the one helper
that states it, ``bundles._p1``, and the family constants from the record
classes.  Each route is an integer polynomial taken mod 1792, so its value
depends only on h mod 1792 (the assembly on p1 mod 1792), and it is looked
up by that residue in a table of 1792 slots, each filled on first use; the
helpers that read h, the comparison and the verdict still run on every call,
with that h.
Records and ``Fraction`` value sets appear only at the public edges, each
value set built from its pair at scale 1792 by ``qz._scaled_set``, and
``fractions`` is imported only where one is built: ``MU_RP7`` and
``MU_RP7_SUM_14M2`` on their first read (PEP 562), and ``A_2`` on each.
"""

from __future__ import annotations

import enum

from ._record import Record
from .bundles import (
    CharacteristicData,
    DerivationMismatch,
    DiskBundleInvariants,
    MilnorBundle,
    _p1,
    characteristic_data,
    is_diffeo_s7,
)
from .qz import AmbiguousResidue, _scaled_set


class NotDiffeoS7Error(ValueError):
    """The quotient formula is only asserted for M_h diffeomorphic to S^7."""


class DichotomyViolationError(RuntimeError):
    """mu of a quotient matched neither admissible value set.

    The two-manifold dichotomy makes this impossible for a correct
    implementation, so this error always signals a bug, never bad input.
    """


#: Every denominator of the fixed-point assembly (1792, 448, 112, 64, 32)
#: divides 2^8 * 7, so the pipeline runs on 1792 * mu as integers mod 1792.
MU_SCALE = 2**8 * 7

#: 1792 * {1/32, 31/32}, and 1792 * {15/32, 17/32}, the same set shifted by
#: 1/2 (the 14 M_2 summand), derived from it so that the two cannot drift apart.
_RP7_SCALED = (56, 1736)
_RP7_SUM_14M2_SCALED = tuple(sorted((v + MU_SCALE // 2) % MU_SCALE for v in _RP7_SCALED))


#: The scaled pair of each value set this module exports: MU_RP7, mu of RP^7,
#: {1/32, 31/32}, and MU_RP7_SUM_14M2, mu of RP^7 # 14 M_2, {15/32, 17/32}.
_VALUE_SETS = {"MU_RP7": _RP7_SCALED, "MU_RP7_SUM_14M2": _RP7_SUM_14M2_SCALED}


def __getattr__(name: str) -> AmbiguousResidue:
    """The value set ``name`` of ``_VALUE_SETS``, built on its first read and then kept.

    Python calls this (PEP 562) only while the module lacks the name, so
    importing the module loads no ``fractions``; the module's own reads call
    it too, and meet the value kept, or one patched in.
    """
    if name not in _VALUE_SETS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        globals()[name] = _scaled_set(_VALUE_SETS[name], MU_SCALE)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_VALUE_SETS})


class Verdict(enum.Enum):
    REAL_PROJECTIVE_7 = "RP7"
    REAL_PROJECTIVE_7_SUM_14M2 = "RP7#14M2"
    NOT_APPLICABLE = "not_applicable"


class FixedPointContributions(Record):
    """Rational data localized at the fixed S^4 of the involution.

    ``a1_magnitude`` is |2h-1|/16 with the orientation sign left ambiguous.
    """

    __slots__ = ("a1_magnitude",)

    #: The equivariant signature at the fixed S^4, 1 across the family.
    equivariant_signature = 1

    def __init__(self, a1_magnitude: Fraction) -> None:
        if a1_magnitude < 0:
            raise ValueError("a1 is recorded as a non-negative magnitude")
        self._set(a1_magnitude)

    @property
    def a1_pair(self) -> tuple[Fraction, Fraction]:
        """Both signed readings of A_1, ascending."""
        return (-self.a1_magnitude, self.a1_magnitude)

    @property
    def a2(self) -> Fraction:
        """A_2, the Euler number of the normal bundle of the fixed S^4."""
        import fractions

        return fractions.Fraction(CharacteristicData.euler_coeff)


class QuotientReport(Record):
    """Assembled invariants and verdict for one quotient M_h/tau_h."""

    __slots__ = ("h", "contributions", "mu_quotient", "verdict")

    def __init__(self, h: int, contributions: FixedPointContributions,
                 mu_quotient: AmbiguousResidue | None, verdict: Verdict) -> None:
        applicable = h * (h - 1) % 56 == 0
        if verdict is not Verdict.NOT_APPLICABLE and not applicable:
            raise ValueError("a classification verdict requires M_h ~ S^7")
        if verdict is Verdict.REAL_PROJECTIVE_7 and mu_quotient != __getattr__("MU_RP7"):
            raise ValueError("RP7 verdict requires mu = {1/32, 31/32}")
        self._set(h, contributions, mu_quotient, verdict)


def fixed_point_contributions(bundle: MilnorBundle) -> FixedPointContributions:
    """A_1 = +/- (2h-1)/16, A_2 = 1, equivariant signature 1.

    A_1 is the p1 coefficient of the normal bundle of the fixed S^4 (the
    same +/- 2(2h-1) as the sphere bundle itself) scaled by 1/32; A_2 is
    that bundle's Euler number.  The involution fixes the generator of
    H^4(S^4), so the equivariant signature agrees with the ordinary one.
    """
    import fractions

    a1 = fractions.Fraction(characteristic_data(bundle).p1_magnitude, 32)
    return FixedPointContributions(a1)


#: The h-free terms of the scaled assembly, read once from the record classes:
#: -4 signature + 4 A_2 (the Euler number) - 4 equivariant signature.
_ASSEMBLY_CONSTANT = 4 * (CharacteristicData.euler_coeff - DiskBundleInvariants.signature
                          - FixedPointContributions.equivariant_signature)


#: :func:`_closed_form_mod` at each residue of h mod 1792, and
#: :func:`_assembly_mod` at each residue of p1 mod 1792, None until first met,
#: when the call site fills the slot.  Filled lazily, not at import, so that
#: importing the CLI stays cheap.
_CLOSED_FORM: list[tuple[int, int] | None] = [None] * MU_SCALE
_ASSEMBLY: list[tuple[int, int] | None] = [None] * MU_SCALE


def _closed_form_scaled(h: int) -> tuple[int, int]:
    """1792 * (h(h-1)/112 +/- (2h-1)/32), both signs, sorted and mod 1792.

    An integer polynomial in h taken mod 1792, and P(h + m) = P(h) mod m for
    any integer polynomial P (Polya 1915), so it is looked up by h mod 1792
    in ``_CLOSED_FORM``; 1792 is its general period, not its true one, so
    this holds whatever integer coefficients the formula is given.
    """
    r = h % MU_SCALE
    pair = _CLOSED_FORM[r]
    if pair is None:  # the residue's first use
        pair = _CLOSED_FORM[r] = _closed_form_mod(r)
    return pair


def _closed_form_mod(r: int) -> tuple[int, int]:
    """:func:`_closed_form_scaled` at a residue r of h mod 1792."""
    quad, linear = 16 * r * (r - 1), 56 * (2 * r - 1)
    a, b = (quad + linear) % MU_SCALE, (quad - linear) % MU_SCALE
    return (a, b) if a <= b else (b, a)


def _assembly_mod(p1: int) -> tuple[int, int]:
    """The term-by-term assembly at a residue p1 of the signed p1 mod 1792.

    1792 * mu = p1^2 + the h-free terms +/- 28 p1, both signs, sorted and mod
    1792: an integer polynomial in p1 taken mod 1792, so p1 mod 1792 decides it.
    """
    definite, spin = p1 * p1 + _ASSEMBLY_CONSTANT, 28 * p1
    a, b = (definite + spin) % MU_SCALE, (definite - spin) % MU_SCALE
    return (a, b) if a <= b else (b, a)


def _mu_quotient_scaled(h: int) -> tuple[tuple[int, int], str]:
    """1792 * mu(M_h/tau_h) as a sorted pair of ints mod 1792, and its verdict.

    Reads h alone and builds no record: the signed p1 comes from
    :func:`bundles._p1`, the constants from the record classes.  Raises
    :class:`NotDiffeoS7Error` unless 56 | h(h-1).  The closed form is
    cross-checked against the term-by-term assembly scaled by 1792: half the
    bounding-manifold term of the covering sphere, p1^2 - 4 signature, plus
    4 A_2, minus 4 times the equivariant signature, plus 1792 * (1/2) A_1 =
    +/- 28 p1, both signs.  Any difference raises :class:`DerivationMismatch`.
    The verdict is the value of a :class:`Verdict`, "RP7" or "RP7#14M2"; a
    pair that is neither raises :class:`DichotomyViolationError`.  Both
    formulas are looked up per residue, the assembly by p1 mod 1792 in
    ``_ASSEMBLY``; the closed form and p1 are still read once per call, with
    h, and the comparison and the verdict made on every call.
    """
    if h * (h - 1) % 56:
        raise NotDiffeoS7Error(f"h={h}: h(h-1) = {h * (h - 1)} is not divisible by 56")
    closed = _closed_form_scaled(h)
    p1 = _p1(h) % MU_SCALE
    assembled = _ASSEMBLY[p1]
    if assembled is None:  # the residue's first use
        assembled = _ASSEMBLY[p1] = _assembly_mod(p1)
    if closed != assembled:
        raise DerivationMismatch(
            f"mu(M_{h}/tau): fixed-point assembly {_scaled_set(assembled, MU_SCALE)} "
            f"!= closed form {_scaled_set(closed, MU_SCALE)}"
        )
    if closed == _RP7_SCALED:
        return closed, "RP7"
    if closed == _RP7_SUM_14M2_SCALED:
        return closed, "RP7#14M2"
    raise DichotomyViolationError(
        f"mu(M_{h}/tau) = {_scaled_set(closed, MU_SCALE)} matches neither RP^7 nor RP^7 # 14 M_2"
    )


def mu_quotient(bundle: MilnorBundle) -> AmbiguousResidue:
    """mu(M_h/tau_h) = h(h-1)/112 +/- (2h-1)/32 mod 1, as a value set.

    Raises :class:`NotDiffeoS7Error` unless 56 | h(h-1): the fixed-point
    reduction is only asserted for quotients of the standard sphere, and
    extrapolating it would produce numbers with no meaning.  The value is
    computed and cross-checked by :func:`_mu_quotient_scaled`.
    """
    return _scaled_set(_mu_quotient_scaled(bundle.h)[0], MU_SCALE)


def classify_quotient(bundle: MilnorBundle) -> QuotientReport:
    """Identify M_h/tau_h, or report not-applicable when M_h is exotic."""
    contrib = fixed_point_contributions(bundle)
    if not is_diffeo_s7(bundle):
        return QuotientReport(bundle.h, contrib, None, Verdict.NOT_APPLICABLE)
    scaled, verdict = _mu_quotient_scaled(bundle.h)
    return QuotientReport(bundle.h, contrib, _scaled_set(scaled, MU_SCALE), Verdict(verdict))
