#!/usr/bin/env python3
"""End-to-end exact verification run: residues, case analysis, theorem sweep.

Reproduces the whole classification argument at configurable scale.  Exit
codes match the ``milnor-mu`` CLI: 0 all checks passed, 1 usage error, 2 a
check failed.  Example:

    python scripts/full_verification.py --h-span 100000 --k-span 1000000
"""

import math
import sys
import time
from itertools import zip_longest

from milnor_mu.cli import EXIT_OK, EXIT_VERIFICATION_FAILED, _Parser, _worker_count
from milnor_mu.verify import (
    _SCAN_LIMIT,
    Case,
    _sweep,
    brute_force_theorem,
    check_case,
    enumerate_residues,
    residues_by_crt,
)


def crt_disagreements(periods: int) -> list[int]:
    """The m in [1, periods] at which the scan and the CRT lift of 56m differ.

    The residues of 56m are those of 56 * periods below 56m, on both sides, so
    the two agree for 56m exactly when 56m does not exceed their first
    difference: one scan and one lift decide every m, in linear time.
    """
    if periods < 1:
        return []
    scan = enumerate_residues(56 * periods).residues
    crt = residues_by_crt(56 * periods).residues
    pairs = zip_longest(scan, crt, fillvalue=math.inf)
    first = next((min(s, c) for s, c in pairs if s != c), None)
    return [] if first is None else list(range(first // 56 + 1, periods + 1))


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--h-span", type=int, default=100_000,
                        help="sweep h over [-H, H] (default 100000)")
    parser.add_argument("--k-span", type=int, default=1_000_000,
                        help="check cases over k in [-K, K] (default 10^6)")
    parser.add_argument("--crt-periods", type=int, default=100,
                        help="cross-check scan vs CRT for moduli 56m, m <= this")
    parser.add_argument("--parallel", type=_worker_count, default=None,
                        help="worker processes for the h sweep")
    args = parser.parse_args(argv)
    for flag, size in (("--h-span", args.h_span), ("--k-span", args.k_span),
                       ("--crt-periods", args.crt_periods)):
        if size < 0:
            parser.error(f"{flag} must be non-negative, got {size}")
    if args.crt_periods > _SCAN_LIMIT // 56:
        parser.error(f"--crt-periods must be at most {_SCAN_LIMIT // 56}, got {args.crt_periods}")

    failed = False

    t0 = time.perf_counter()
    base = enumerate_residues(56)
    print(f"residues mod 56 with 56 | r(r-1): {base.residues}")
    disagree = crt_disagreements(args.crt_periods)
    if disagree:
        failed = True
        print(f"  !! scan vs CRT disagree at m = {disagree}")
    else:
        print(f"  scan agrees with CRT construction for all 56m, m <= {args.crt_periods}")

    print(f"case analysis over k in [-{args.k_span}, {args.k_span}]:")
    for case in Case:
        report = check_case(case, -args.k_span, args.k_span)
        mark = "ok" if report.matches else "FAIL"
        print(f"  case {case.name:>3} (h = 56k + {report.h_residue:>2}): "
              f"h(h-1)/112 = {report.quad_constant} + k/2, "
              f"(2h-1)/32 = {report.linear_constant} + k/2  [{mark}]")
        failed = failed or not report.matches

    sweep = brute_force_theorem(-args.h_span, args.h_span)
    print(f"direct-formula sweep over [-{args.h_span}, {args.h_span}]: "
          f"{sweep.checked} admissible h, {sweep.failed} failures")
    failed = failed or sweep.failed > 0

    rows = bad = 0
    for _, _, passed, _ in _sweep(-args.h_span, args.h_span, args.parallel):
        rows += 1
        bad += not passed
    print(f"oracle-vs-pipeline sweep: {rows} rows, {bad} disagreements")
    failed = failed or bad > 0

    print(f"total {time.perf_counter() - t0:.1f}s: "
          f"{'FAILED' if failed else 'all checks passed'}")
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
