"""Expected CLI output, computed without importing milnor_mu.

Every byte the benchmark compares against comes from here.  The values are
rebuilt from the closed formulas with ``fractions.Fraction`` and formatted by
hand, so a change in the program's arithmetic, formatting or exit status
shows up as a mismatch rather than being echoed back.
"""

from __future__ import annotations

import json
from fractions import Fraction

SWEEP_HEADER = "h,residue_class,mu_quotient_set,verdict,pass"

#: Residues r mod 56 with 56 | r(r-1): the admissible classes of h.
RESIDUES = tuple(r for r in range(56) if r * (r - 1) % 56 == 0)

_MU_RP7 = ["1/32", "31/32"]


def admissible(h: int) -> bool:
    """M_h is the standard S^7 exactly when 56 | h(h-1)."""
    return h * (h - 1) % 56 == 0


def admissible_in(h_min: int, h_max: int) -> list[int]:
    """Admissible h in [h_min, h_max], ascending."""
    start = h_min - h_min % 56
    return [
        base + r
        for base in range(start, h_max + 1, 56)
        for r in RESIDUES
        if h_min <= base + r <= h_max
    ]


def sweep_csv(h_min: int, h_max: int) -> tuple[str, str, int]:
    """(stdout, stderr, rows) of ``verify --h-range h_min..h_max --format csv``.

    The theorem says every admissible row is {1/32, 31/32} and RP7, so that
    is what each row must read.
    """
    hs = admissible_in(h_min, h_max)
    lines = [SWEEP_HEADER]
    lines.extend(f"{h},{h % 56},1/32;31/32,RP7,true" for h in hs)
    n = len(hs)
    return "\n".join(lines) + "\n", f"checked {n}  passed {n}  failed 0\n", n


def _centered(q: Fraction) -> Fraction:
    """Representative of q mod 1 in (-1/2, 1/2]."""
    q %= 1
    return q - 1 if q > Fraction(1, 2) else q


def cases_table() -> str:
    """stdout of ``cases --k-range A..B`` when every case matches.

    For h = 56k + r the quadratic term h(h-1)/112 is (r(r-1)/112) + k/2 and
    the linear term (2h-1)/32 is ((2r-1)/32) + k/2, both mod 1; the printed
    constants are those k = 0 values.
    """
    header = ["case", "h_residue", "quad_constant", "linear_constant", "matches"]
    rows = [
        [name, str(r), str(Fraction(r * (r - 1), 112) % 1),
         str(_centered(Fraction(2 * r - 1, 32))), "true"]
        for name, r in zip(("I", "II", "III", "IV"), RESIDUES)
    ]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        for row in [header, *rows]
    )


def quotient_json(h: int) -> str:
    """stdout of ``quotient --h H --format json``."""
    a1 = Fraction(abs(2 * h - 1), 16)
    mu = verdict = None
    if admissible(h):
        base, shift = Fraction(h * (h - 1), 112), Fraction(2 * h - 1, 32)
        mu = [str(v) for v in sorted({(base + shift) % 1, (base - shift) % 1})]
        # any other set makes the program exit 2, which mismatches either way
        verdict = "RP7" if mu == _MU_RP7 else "RP7#14M2"
    record = {
        "h": h,
        "a1": [str(-a1), str(a1)],
        "a2": "1",
        "equivariant_signature": 1,
        "mu_quotient": mu,
        "verdict": verdict or "not_applicable",
    }
    return json.dumps(record, indent=2) + "\n"


def invariants_json(h: int) -> str:
    """stdout of ``invariants --h H --format json``."""
    p1 = abs(2 * (2 * h - 1))
    record = {
        "h": h,
        "euler": 1,
        "p1_magnitude": p1,
        "signature": 1,
        "p1_squared": p1 * p1,
        "mu": str(Fraction(h * (h - 1), 56) % 1),
        "diffeo_s7": admissible(h),
        "theta7": h * (h - 1) // 2 % 28,
    }
    return json.dumps(record, indent=2) + "\n"
