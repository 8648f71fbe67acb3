"""Command-line frontend: compute, classify, enumerate, and verify.

Data goes to stdout and is deterministic byte for byte; anything else
(errors, csv summaries) goes to stderr.  Rationals are always printed as
exact ``p/q`` strings and ambiguous values as sorted arrays, so textual
equality is set equality.  Exit codes: 0 success, 1 usage error, 2 a
verification check failed or the command hit an unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections.abc import Iterable, Sequence

from .bundles import (
    DerivationMismatch,
    MilnorBundle,
    characteristic_data,
    disk_bundle_invariants,
    is_diffeo_s7,
    mu_total_space,
    theta7_class,
)
from .quotient import DichotomyViolationError, classify_quotient
from .qz import AmbiguousResidue
from .verify import Case, _expand, _sweep, check_case, enumerate_residues

PARALLEL_ENV_VAR = "MILNOR_MU_PARALLEL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION_FAILED = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # let range values like -5600..5600 through as arguments, not flags
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+\.\.-?\d+$"
        )

    # usage problems exit 1; argparse's default of 2 is reserved for
    # verification failures
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_span(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected <a>..<b>, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer endpoints, got {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive worker count, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="milnor-mu",
        description=(
            "Exact Eells-Kuiper mu-invariants of Milnor sphere bundles "
            "and their antipodal quotients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )

    p = sub.add_parser("invariants", help="characteristic data and mu of M_h")
    p.add_argument("--h", type=int, required=True, help="clutching parameter h")
    add_format(p)

    p = sub.add_parser("quotient", help="classify the antipodal quotient M_h/tau_h")
    p.add_argument("--h", type=int, required=True, help="clutching parameter h")
    add_format(p)

    p = sub.add_parser("enumerate", help="residues r mod m with 56 | r(r-1)")
    p.add_argument("--modulus", type=int, required=True, help="scan modulus (<= 10^6)")
    add_format(p)

    p = sub.add_parser("cases", help="check the four residue cases over a k-range")
    p.add_argument("--k-range", type=_parse_span, required=True, metavar="A..B")
    add_format(p)

    p = sub.add_parser("verify", help="oracle-vs-pipeline sweep over an h-range")
    p.add_argument("--h-range", type=_parse_span, required=True, metavar="A..B")
    p.add_argument(
        "--parallel",
        type=_worker_count,
        default=None,
        metavar="N",
        help=f"worker processes (default: ${PARALLEL_ENV_VAR} or sequential)",
    )
    add_format(p)

    return parser


def _mu_strings(mu: AmbiguousResidue) -> list[str]:
    return [str(v.rep) for v in mu]


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2))


def _emit_csv(header: list[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_table(header: list[str], rows: list[Sequence[object]]) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        _emit_json(record)
    elif fmt == "csv":
        _emit_csv(list(record), [[_flat(v) for v in record.values()]])
    else:
        for key, value in record.items():
            print(f"{key:>22}  {_flat(value)}")


def _flat(value: object) -> object:
    # csv/table cells: lists join with ';', booleans lowercase, None empty
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return value


class _PerValueSet(dict):
    """Text of each distinct value set of the sweep, rendered on first use."""

    def __init__(self, render) -> None:
        super().__init__()
        self._render = render

    def __missing__(self, mu):
        text = self[mu] = self._render(mu)
        return text


def _cmd_invariants(args: argparse.Namespace) -> int:
    bundle = MilnorBundle(args.h)
    data = characteristic_data(bundle)
    disk = disk_bundle_invariants(bundle)
    try:
        mu = mu_total_space(bundle)
    except DerivationMismatch as exc:
        print(f"milnor-mu: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    record = {
        "h": bundle.h,
        "euler": data.euler_coeff,
        "p1_magnitude": data.p1_magnitude,
        "signature": disk.signature,
        "p1_squared": disk.p1_squared,
        "mu": str(mu.rep),
        "diffeo_s7": is_diffeo_s7(bundle),
        "theta7": theta7_class(bundle),
    }
    _emit_record(record, args.format)
    return EXIT_OK


def _cmd_quotient(args: argparse.Namespace) -> int:
    bundle = MilnorBundle(args.h)
    try:
        report = classify_quotient(bundle)
    except (DerivationMismatch, DichotomyViolationError) as exc:
        print(f"milnor-mu: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    contrib = report.contributions
    record = {
        "h": report.h,
        "a1": [str(v) for v in contrib.a1_pair],
        "a2": str(contrib.a2),
        "equivariant_signature": contrib.equivariant_signature,
        "mu_quotient": None
        if report.mu_quotient is None
        else _mu_strings(report.mu_quotient),
        "verdict": report.verdict.value,
    }
    _emit_record(record, args.format)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        solution = enumerate_residues(args.modulus)
    except ValueError as exc:
        print(f"milnor-mu: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _emit_json({"modulus": solution.modulus, "residues": list(solution.residues)})
    else:
        header = ["modulus", "residue"]
        rows = [[solution.modulus, r] for r in solution.residues]
        (_emit_csv if args.format == "csv" else _emit_table)(header, rows)
    return EXIT_OK


def _cmd_cases(args: argparse.Namespace) -> int:
    k_min, k_max = args.k_range
    reports = [check_case(case, k_min, k_max) for case in Case]
    if args.format == "json":
        _emit_json(
            {
                "k_min": k_min,
                "k_max": k_max,
                "cases": [
                    {
                        "case": r.case.name,
                        "h_residue": r.h_residue,
                        "quad_constant": str(r.quad_constant),
                        "linear_constant": str(r.linear_constant),
                        "matches": r.matches,
                    }
                    for r in reports
                ],
                "all_match": all(r.matches for r in reports),
            }
        )
    else:
        header = ["case", "h_residue", "quad_constant", "linear_constant", "matches"]
        rows = [
            [r.case.name, r.h_residue, str(r.quad_constant), str(r.linear_constant),
             _flat(r.matches)]
            for r in reports
        ]
        (_emit_csv if args.format == "csv" else _emit_table)(header, rows)
    return EXIT_OK if all(r.matches for r in reports) else EXIT_VERIFICATION_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    h_min, h_max = args.h_range
    workers = args.parallel
    env = os.environ.get(PARALLEL_ENV_VAR, "")
    if workers is None and env:
        try:
            workers = _worker_count(env)
        except argparse.ArgumentTypeError as exc:
            print(f"milnor-mu: error: ${PARALLEL_ENV_VAR}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rows = _sweep(h_min, h_max, workers)
    if args.format == "json":
        rows = list(rows)  # passed and failed come before the rows
        failed = sum(1 for row in rows if not row[2])
        members = _PerValueSet(lambda mu: _mu_strings(_expand(mu)))
        _emit_json(
            {
                "h_min": h_min,
                "h_max": h_max,
                "checked": len(rows),
                "passed": len(rows) - failed,
                "failed": failed,
                "rows": [
                    {
                        "h": h,
                        "residue_class": h % 56,
                        "mu_quotient": members[mu],
                        "verdict": verdict,
                        "pass": passed,
                    }
                    for h, verdict, passed, mu in rows
                ],
            }
        )
        return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED
    joined = _PerValueSet(lambda mu: ";".join(_mu_strings(_expand(mu))))
    checked = failed = 0

    def cells():
        nonlocal checked, failed
        for h, verdict, passed, mu in rows:
            checked += 1
            failed += not passed
            yield h, h % 56, joined[mu], verdict, "true" if passed else "false"

    header = ["h", "residue_class", "mu_quotient_set", "verdict", "pass"]
    if args.format == "csv":
        _emit_csv(header, cells())  # each row is written as it arrives
    else:
        _emit_table(header, list(cells()))  # the widths need every row first
    print(f"checked {checked}  passed {checked - failed}  failed {failed}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


_COMMANDS = {
    "invariants": _cmd_invariants,
    "quotient": _cmd_quotient,
    "enumerate": _cmd_enumerate,
    "cases": _cmd_cases,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # a bug, not a usage error: never exit 1 with a traceback
        detail = " ".join(str(exc).split())
        print(f"milnor-mu: unexpected {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
