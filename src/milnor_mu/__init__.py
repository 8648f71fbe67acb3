"""Exact Eells-Kuiper mu-invariants for the Milnor sphere-bundle family.

``MU_RP7`` and ``MU_RP7_SUM_14M2`` are read from :mod:`milnor_mu.quotient`
when first asked for (PEP 562), so that importing the package loads no
``fractions``.
"""

from .bundles import (
    CharacteristicData,
    DerivationMismatch,
    DiskBundleInvariants,
    MilnorBundle,
    characteristic_data,
    disk_bundle_invariants,
    is_diffeo_s7,
    mu_total_space,
    theta7_class,
)
from . import quotient
from .quotient import (
    DichotomyViolationError,
    FixedPointContributions,
    NotDiffeoS7Error,
    QuotientReport,
    Verdict,
    classify_quotient,
    fixed_point_contributions,
    mu_quotient,
)
from .qz import (
    AmbiguousResidue,
    DoubleAmbiguityError,
    ResidueModZ,
    add_ambiguous,
    ambiguous,
    reduce_mod_z,
)
from .verify import (
    Case,
    CaseReport,
    EmptyRangeError,
    ResidueSolution,
    TheoremSweep,
    VerifyRow,
    brute_force_theorem,
    check_case,
    direct_mu_set,
    enumerate_residues,
    residues_by_crt,
    verify_range,
)

__all__ = [
    "AmbiguousResidue",
    "Case",
    "CaseReport",
    "CharacteristicData",
    "DerivationMismatch",
    "DichotomyViolationError",
    "DiskBundleInvariants",
    "DoubleAmbiguityError",
    "EmptyRangeError",
    "FixedPointContributions",
    "MU_RP7",
    "MU_RP7_SUM_14M2",
    "MilnorBundle",
    "NotDiffeoS7Error",
    "QuotientReport",
    "ResidueModZ",
    "ResidueSolution",
    "TheoremSweep",
    "Verdict",
    "VerifyRow",
    "add_ambiguous",
    "ambiguous",
    "brute_force_theorem",
    "characteristic_data",
    "check_case",
    "classify_quotient",
    "direct_mu_set",
    "disk_bundle_invariants",
    "enumerate_residues",
    "fixed_point_contributions",
    "is_diffeo_s7",
    "mu_quotient",
    "mu_total_space",
    "reduce_mod_z",
    "residues_by_crt",
    "theta7_class",
    "verify_range",
]


def __getattr__(name: str) -> object:
    if name in quotient._VALUE_SETS:
        return getattr(quotient, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
