#!/usr/bin/env python3
"""End-to-end exact verification run: residues, case analysis, theorem sweep.

Reproduces the whole classification argument.  The case analysis and the
direct-formula sweep each decide one period, and so every k and h;
``--h-span`` sizes only the oracle-vs-pipeline sweep.  Exit codes are those
of the ``milnor-mu`` CLI (see ``milnor_mu.cli._run``); any failed check
exits 2.  Example:

    python scripts/full_verification.py --h-span 100000
"""

# The case analysis and the direct-formula sweep build Fractions.  Loading the
# module here, before the first line is written, keeps a Ctrl-C after that line
# out of its import, where a second Ctrl-C can print an "Exception ignored" trace.
import fractions
import sys
import time
from itertools import zip_longest

from milnor_mu.cli import EXIT_OK, EXIT_VERIFICATION_FAILED, _int_in, _Parser, _run
from milnor_mu.verify import (
    _CASE_MODULUS,
    _SCAN_LIMIT,
    Case,
    _map_spans,
    _verify_chunk,
    brute_force_theorem,
    check_case,
    enumerate_residues,
    residues_by_crt,
)

#: One period of the direct-formula sweep: 224 * direct_mu_set(h) is an
#: integer polynomial in h mod 224, and P(h + m) = P(h) mod m (Polya 1915).
#: 1792, the kernel's scale, stays a period under any constant on its grid.
H_PERIOD = 1792


def crt_disagreements(periods: int) -> list[int]:
    """The m in [1, periods] at which the scan and the CRT lift of 56m differ.

    The residues of 56m are those of 56 * periods below 56m, on both sides, so
    the two agree for 56m exactly when 56m does not exceed their first
    difference: one scan and one lift decide every m, in linear time.  That
    difference is clamped into [0, 56 * periods): a residue listed at or
    above the modulus fails m = periods, and a negative one every m.
    """
    if periods < 1:
        return []
    scan = enumerate_residues(56 * periods).residues
    crt = residues_by_crt(56 * periods).residues
    pairs = zip_longest(scan, crt, fillvalue=56 * periods)
    first = next((min(s, c) for s, c in pairs if s != c), None)
    if first is None:
        return []
    return list(range(min(max(first, 0), 56 * periods - 1) // 56 + 1, periods + 1))


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--h-span", type=_int_in(0), default=100_000,
                        help="oracle-vs-pipeline sweep over h in [-H, H] (default 100000)")
    parser.add_argument("--crt-periods", type=_int_in(0, _SCAN_LIMIT // 56), default=100,
                        help="cross-check scan vs CRT for moduli 56m, m <= this")
    parser.add_argument("--parallel", type=_int_in(1), default=None,
                        help="worker processes for the h sweep (default: sequential)")
    return _run(parser, argv, run)


def run(args) -> int:
    """All checks at the sizes in ``args``; the exit status."""
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

    # every class of h mod 224, the modulus each check reads; check_case raises
    # if its period leaves one of them undecided
    k_max = _CASE_MODULUS // 56 - 1
    reports = [check_case(case, 0, k_max) for case in Case]
    print(f"case analysis over one period, k in [0, {k_max}], so for every k:")
    for report in reports:
        mark = "ok" if report.matches else "FAIL"
        print(f"  case {report.case.name:>3} (h = 56k + {report.h_residue:>2}): "
              f"h(h-1)/112 = {report.quad_constant} + k/2, "
              f"(2h-1)/32 = {report.linear_constant} + k/2  [{mark}]")
        failed = failed or not report.matches

    sweep = brute_force_theorem(0, H_PERIOD - 1)
    print(f"direct-formula sweep over one period, h in [0, {H_PERIOD - 1}], so for every h: "
          f"{sweep.checked} admissible h, {sweep.failed} failures")
    failed = failed or sweep.failed > 0

    rows = bad = 0  # under --parallel a child sends these two counts per span, not the runs
    for span_rows, span_bad in _map_spans(lambda span: _verify_chunk(span)[:2],
                                          -args.h_span, args.h_span, args.parallel):
        rows += span_rows
        bad += span_bad
    print(f"oracle-vs-pipeline sweep: {rows} rows, {bad} disagreements")
    failed = failed or bad > 0

    print(f"total {time.perf_counter() - t0:.1f}s: "
          f"{'FAILED' if failed else 'all checks passed'}")
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
