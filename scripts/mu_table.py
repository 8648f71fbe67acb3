#!/usr/bin/env python3
"""Browse the family: mu, exotic class, and quotient verdict per h.

Exit codes match the ``milnor-mu`` CLI: 0 ok, 1 usage error, 2 a derivation
check failed at some h or an unexpected error (one line on stderr), 141 stdout
was closed early.  Example:

    python scripts/mu_table.py --h-range -7..10
"""

import sys

from milnor_mu.bundles import (
    DerivationMismatch,
    MilnorBundle,
    is_diffeo_s7,
    mu_total_space,
    theta7_class,
)
from milnor_mu.cli import (
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    _parse_span,
    _Parser,
    _report_unexpected,
    _stdout_closed,
)
from milnor_mu.quotient import DichotomyViolationError, classify_quotient


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--h-range", type=_parse_span, default="-7..10", metavar="A..B",
                        help="inclusive h interval (default -7..10)")
    args = parser.parse_args(argv)
    lo, hi = args.h_range
    header = f"{'h':>8}  {'mu(M_h)':>10}  {'theta7':>6}  {'S^7?':>5}  quotient"
    try:
        print(header)
        print("-" * len(header))
        for h in range(lo, hi + 1):
            b = MilnorBundle(h)
            report = classify_quotient(b)
            mu = report.mu_quotient
            quotient = report.verdict.value if mu is None else f"{report.verdict.value} {mu}"
            print(f"{h:>8}  {str(mu_total_space(b).rep):>10}  {theta7_class(b):>6}  "
                  f"{'yes' if is_diffeo_s7(b) else 'no':>5}  {quotient}")
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
    except BrokenPipeError:
        return _stdout_closed()
    except (DerivationMismatch, DichotomyViolationError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except Exception as exc:
        return _report_unexpected(parser.prog, exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
