#!/usr/bin/env python3
"""Browse the family: mu, exotic class, and quotient verdict per h.

Exit codes are those of the ``milnor-mu`` CLI (see ``milnor_mu.cli._run``);
a derivation check that fails at some h exits 2.  Example:

    python scripts/mu_table.py --h-range -7..10
"""

import sys

from milnor_mu.bundles import MilnorBundle, is_diffeo_s7, mu_total_space, theta7_class
from milnor_mu.cli import EXIT_OK, _parse_span, _Parser, _run
from milnor_mu.quotient import classify_quotient


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--h-range", type=_parse_span, default="-7..10", metavar="A..B",
                        help="inclusive h interval (default -7..10)")
    return _run(parser, argv, table)


def table(args) -> int:
    """The table over ``args.h_range``; the exit status."""
    lo, hi = args.h_range
    header = f"{'h':>8}  {'mu(M_h)':>10}  {'theta7':>6}  {'S^7?':>5}  quotient"
    print(header)
    print("-" * len(header))
    for h in range(lo, hi + 1):
        b = MilnorBundle(h)
        report = classify_quotient(b)
        mu = report.mu_quotient
        quotient = report.verdict.value if mu is None else f"{report.verdict.value} {mu}"
        print(f"{h:>8}  {str(mu_total_space(b).rep):>10}  {theta7_class(b):>6}  "
              f"{'yes' if is_diffeo_s7(b) else 'no':>5}  {quotient}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
