"""Command-line frontend: compute, classify, enumerate, and verify.

Data goes to stdout and is deterministic byte for byte; anything else
(errors, the csv and table summaries of ``verify``) goes to stderr.
Rationals are always printed as exact ``p/q`` strings and ambiguous values
as sorted arrays, so textual equality is set equality.  Exit codes: 0 success, 1 usage error, 2 a
verification check failed or the command hit an unexpected error.

``verify`` renders each span of its range where the span is decided (see
:func:`_render_span`), in a pool worker under ``--parallel``, so this process
only adds up the counts and writes finished text.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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
from .verify import Case, _expand, _map_spans, _verify_chunk, check_case, enumerate_residues

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


def _emit_table(header: list[str], cells: Sequence[Sequence[str]]) -> None:
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
        rows = [[str(solution.modulus), str(r)] for r in solution.residues]
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
            [r.case.name, str(r.h_residue), str(r.quad_constant), str(r.linear_constant),
             _flat(r.matches)]
            for r in reports
        ]
        (_emit_csv if args.format == "csv" else _emit_table)(header, rows)
    return EXIT_OK if all(r.matches for r in reports) else EXIT_VERIFICATION_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    h_min, h_max = args.h_range
    fmt = args.format
    workers = args.parallel
    env = os.environ.get(PARALLEL_ENV_VAR, "")
    if workers is None and env:
        try:
            workers = _worker_count(env)
        except argparse.ArgumentTypeError as exc:
            print(f"milnor-mu: error: ${PARALLEL_ENV_VAR}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    spans = _map_spans(functools.partial(_render_span, fmt), h_min, h_max, workers)
    header = ["h", "residue_class", "mu_quotient_set", "verdict", "pass"]
    if fmt == "csv":
        _emit_csv(header, ())
    checked = failed = 0
    kept = []  # json needs the counts first, table every row for its widths
    for span_checked, span_failed, chunk in spans:
        checked += span_checked
        failed += span_failed
        if fmt == "csv":  # csv writes each span as it arrives
            sys.stdout.write(chunk)
        elif fmt == "table":
            kept.extend(chunk)
        elif chunk:  # a span with no admissible h adds no json text
            kept.append(chunk)
    if fmt == "json":
        payload = json.dumps(
            {
                "h_min": h_min,
                "h_max": h_max,
                "checked": checked,
                "passed": checked - failed,
                "failed": failed,
                "rows": [],
            },
            indent=2,
        )
        if kept:  # the row blocks go where json.dumps put the empty list
            payload = payload.removesuffix("[]\n}") + "[\n" + ",\n".join(kept) + "\n  ]\n}"
        print(payload)
    else:
        if fmt == "table":
            _emit_table(header, kept)
        print(f"checked {checked}  passed {checked - failed}  failed {failed}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


def _render_span(fmt: str, span: tuple[int, int]) -> tuple[int, int, str | list[list[str]]]:
    """Decide one span of ``verify`` and render its rows: (checked, failed, chunk).

    It runs where the span is decided, in a pool worker under ``--parallel``,
    so the parent only adds counts and writes text.  The chunk is the csv
    lines, the json row objects joined by ``",\n"`` at their indentation in
    the whole payload, or the table cells.  The tail of a row (value set,
    verdict, pass) is rendered once per distinct value in the span; per row
    only h and h mod 56 are formatted.
    """
    rows = _verify_chunk(span)
    tail = functools.cache(functools.partial(_render_tail, fmt))
    failed = sum(1 for row in rows if not row[2])
    if fmt == "csv":
        chunk = "".join([f"{h},{h % 56},{tail(mu, verdict, passed)}"
                         for h, verdict, passed, mu in rows])
    elif fmt == "json":
        chunk = ",\n".join([
            f'    {{\n      "h": {h},\n      "residue_class": {h % 56},\n'
            f"    {tail(mu, verdict, passed)}\n    }}"
            for h, verdict, passed, mu in rows
        ])
    else:
        chunk = [[str(h), str(h % 56), *tail(mu, verdict, passed)]
                 for h, verdict, passed, mu in rows]
    return len(rows), failed, chunk


def _render_tail(fmt: str, mu: tuple[int, ...], verdict: str, passed: bool) -> str | list[str]:
    members = _mu_strings(_expand(mu))
    if fmt == "json":
        # the last three members of a row object, indented as json.dumps puts them
        text = json.dumps({"mu_quotient": members, "verdict": verdict, "pass": passed}, indent=2)
        return text[2:-2].replace("\n", "\n    ")
    cells = [";".join(members), verdict, _flat(passed)]
    if fmt == "table":
        return cells
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(cells)
    return line.getvalue()


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
