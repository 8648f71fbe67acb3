"""Command-line frontend: compute, classify, enumerate, and verify.

Data goes to stdout and is deterministic byte for byte; anything else
(errors, the csv and table summaries of ``verify``) goes to stderr.
Rationals are always printed as exact ``p/q`` strings and ambiguous values
as sorted arrays, so textual equality is set equality.  Exit codes: 0 success, 1 usage error, 2 a
verification check failed or the command hit an unexpected error, 130 the run
was interrupted (Ctrl-C, as for a process killed by SIGINT), 141 stdout was
closed before the output was all written (as for a process killed by SIGPIPE).
One runner, :func:`_run`, parses the command line, runs the command and
maps every outcome to them, for this CLI and for both scripts in
``scripts/``; each entry point's ``main`` returns the status it gives.

``verify`` renders each span of its range where the span is decided (see
:func:`_render_span`): under ``--parallel N`` this process is worker 0 of N
and the others are children forked for the call, so for their spans this
process only adds up the counts and writes finished text.

Only what a command uses is imported for it: ``json`` and ``csv`` by the
format that writes them (a table loads neither), and ``pickle`` and
``signal`` by the first pooled sweep, so importing the CLI stays cheap.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
from collections.abc import Callable, Iterable, Sequence

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
from .verify import (_SCAN_LIMIT, Case, CoverageError, _expand, _map_spans, _verify_chunk,
                     check_case, enumerate_residues)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_INTERRUPTED = 128 + 2  # killed by SIGINT (2), as the shell reports it
EXIT_STDOUT_CLOSED = 128 + 13  # killed by SIGPIPE (13), as the shell reports it


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a token that starts with a minus and a digit (-1_000, -5600..5600,
        # -.5) is a value, never a flag, since no option of these parsers starts
        # so; the option's type function then reads it or reports it malformed
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage problems exit 1; argparse's default of 2 is reserved for
    # verification failures.  The text is best-effort, so that a stderr that
    # fails to write (fd 2 closed at start, see _run) keeps status 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        try:
            sys.stderr.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
        except OSError:
            pass
        sys.exit(EXIT_USAGE)


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


def _int_in(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """An argparse type for an int in [lo, hi], or at least lo when hi is None."""
    bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"

    def read(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < lo or hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"expected an int {bounds}, got {n}")
        return n

    return read


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
    p.add_argument("--modulus", type=_int_in(1, _SCAN_LIMIT), required=True,
                   help="scan modulus (<= 10^6)")
    add_format(p)

    p = sub.add_parser("cases", help="check the four residue cases over a k-range")
    p.add_argument("--k-range", type=_parse_span, required=True, metavar="A..B")
    add_format(p)

    p = sub.add_parser("verify", help="oracle-vs-pipeline sweep over an h-range")
    p.add_argument("--h-range", type=_parse_span, required=True, metavar="A..B")
    p.add_argument(
        "--parallel",
        type=_int_in(1),
        default=None,
        metavar="N",
        help="worker processes (default: sequential)",
    )
    add_format(p)

    return parser


def _emit(fmt: str, payload: dict | None, header: list[str] | None = None,
          rows: Iterable[Iterable[object]] = ()) -> None:
    """Write a command's output to stdout in ``fmt``.

    json prints ``payload``.  With no header, ``payload`` is one record: a
    csv row under its keys, or a table line per key.  Otherwise ``rows`` go
    under ``header`` as csv or table cells, each value through :func:`_flat`.
    """
    if fmt == "json":
        import json  # here, not at the top: only json output needs it

        print(json.dumps(payload, indent=2))
        return
    if header is None:
        if fmt == "table":
            for key, value in payload.items():
                print(f"{key:>22}  {_flat(value)}")
            return
        header, rows = list(payload), [payload.values()]
    cells = [[_flat(v) for v in row] for row in rows]
    if fmt == "csv":
        sys.stdout.write(_csv_lines([header, *cells]))
    else:
        _emit_table(header, cells)


def _csv_lines(rows: Iterable[Sequence[str]]) -> str:
    """The csv text of ``rows``; every csv line the CLI writes is made here."""
    import csv  # here, not at the top: only csv output needs it

    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _emit_table(header: list[str], cells: Sequence[Sequence[str]]) -> None:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _flat(value: object) -> str:
    # csv/table cells: lists join with ';', booleans lowercase, None empty
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _cmd_invariants(args: argparse.Namespace) -> int:
    bundle = MilnorBundle(args.h)
    data = characteristic_data(bundle)
    disk = disk_bundle_invariants(bundle)
    mu = mu_total_space(bundle)
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
    _emit(args.format, record)
    return EXIT_OK


def _cmd_quotient(args: argparse.Namespace) -> int:
    report = classify_quotient(MilnorBundle(args.h))
    contrib = report.contributions
    record = {
        "h": report.h,
        "a1": [str(v) for v in contrib.a1_pair],
        "a2": str(contrib.a2),
        "equivariant_signature": contrib.equivariant_signature,
        "mu_quotient": None
        if report.mu_quotient is None
        else [str(v.rep) for v in report.mu_quotient],
        "verdict": report.verdict.value,
    }
    _emit(args.format, record)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    solution = enumerate_residues(args.modulus)
    _emit(args.format, {"modulus": solution.modulus, "residues": list(solution.residues)},
          ["modulus", "residue"], ([solution.modulus, r] for r in solution.residues))
    return EXIT_OK


def _cmd_cases(args: argparse.Namespace) -> int:
    k_min, k_max = args.k_range
    reports = [check_case(case, k_min, k_max) for case in Case]
    cases = [{"case": r.case.name, "h_residue": r.h_residue, "quad_constant": str(r.quad_constant),
              "linear_constant": str(r.linear_constant), "matches": r.matches} for r in reports]
    all_match = all(r.matches for r in reports)
    _emit(args.format, {"k_min": k_min, "k_max": k_max, "cases": cases, "all_match": all_match},
          list(cases[0]), (case.values() for case in cases))
    return EXIT_OK if all_match else EXIT_VERIFICATION_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    h_min, h_max = args.h_range
    fmt = args.format
    if fmt == "json":  # before _map_spans forks, so that no child imports it again
        import json
    spans = _map_spans(functools.partial(_render_span, fmt), h_min, h_max, args.parallel)
    header = ["h", "residue_class", "mu_quotient_set", "verdict", "pass"]
    if fmt == "csv":
        _emit(fmt, None, header)
    checked = failed = 0
    kept = []  # json needs the counts first, table every row for its widths
    for span_checked, span_failed, chunk in spans:
        checked += span_checked
        failed += span_failed
        if fmt == "csv":  # csv writes each span as it arrives
            sys.stdout.write(chunk)
        elif fmt == "table":
            kept.extend(chunk)
        elif chunk:  # json: a separator and the span's rows; no text for a span with no rows
            kept += [",\n" if kept else "\n", chunk]
    if fmt == "json":  # the kept text goes, piece by piece, where json.dumps put the empty list
        head, _, tail = json.dumps({"h_min": h_min, "h_max": h_max, "checked": checked,
                                    "passed": checked - failed, "failed": failed, "rows": []},
                                   indent=2).rpartition("[]")
        sys.stdout.writelines([head, "[", *kept, "\n  ]" if kept else "]", tail, "\n"])
    else:
        if fmt == "table":
            _emit_table(header, kept)
        print(f"checked {checked}  passed {checked - failed}  failed {failed}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


def _render_span(fmt: str, span: tuple[int, int]) -> tuple[int, int, str | list[list[str]]]:
    """Decide one span of ``verify`` and render its rows: (checked, failed, chunk).

    It runs where the span is decided: under ``--parallel``, this process
    for the spans of worker 0 and a forked child for the others, so the
    children send back only counts and text.  The chunk is the csv lines,
    the json row objects joined by ``",\n"`` at their indentation in the
    whole payload, or the table cells.  One pass over the span's runs
    counts the failed rows and renders them all: a row's tail (value set,
    verdict, pass) is rendered once per distinct outcome in the span, and
    each run's rows in one comprehension over its h.
    """
    tails, checked, failed, chunk = {}, 0, 0, []
    for outcome, hs in _verify_chunk(span):
        tail = tails.get(outcome)
        if tail is None:
            tail = tails[outcome] = _render_tail(fmt, *outcome)
        checked += len(hs)
        if not outcome[1]:  # the run failed
            failed += len(hs)
        if fmt == "csv":
            chunk += [f"{h},{h % 56},{tail}" for h in hs]
        elif fmt == "json":
            chunk += [f'    {{\n      "h": {h},\n      "residue_class": {h % 56},\n'
                      f"    {tail}\n    }}" for h in hs]
        else:
            chunk += [[str(h), str(h % 56), *tail] for h in hs]
    if fmt != "table":
        chunk = ("" if fmt == "csv" else ",\n").join(chunk)
    return checked, failed, chunk


def _render_tail(fmt: str, verdict: str, passed: bool, mu: tuple[int, ...]) -> str | list[str]:
    members = [str(v.rep) for v in _expand(mu)]
    if fmt == "json":
        import json  # loaded already: _cmd_verify imports it before the sweep forks

        # the last three members of a row object, indented as json.dumps puts them
        text = json.dumps({"mu_quotient": members, "verdict": verdict, "pass": passed}, indent=2)
        return text[2:-2].replace("\n", "\n    ")
    cells = [";".join(members), verdict, _flat(passed)]
    return cells if fmt == "table" else _csv_lines([cells])


_COMMANDS = {
    "invariants": _cmd_invariants,
    "quotient": _cmd_quotient,
    "enumerate": _cmd_enumerate,
    "cases": _cmd_cases,
    "verify": _cmd_verify,
}


def _stdout_closed() -> bool:
    """Whether the reader of stdout has gone, so that a broken pipe was stdout's.

    A reader that stops (``| head``) is neither a failed check nor a bug.
    A pipe or socket whose reader has gone polls as an error or a hang-up;
    it is then pointed at the null device, so the interpreter's flush at
    exit meets no broken pipe either.  A stdout with no descriptor, as in
    tests, cannot be told apart and counts as closed, and so does one with a
    descriptor where ``select.poll`` is missing (Windows).
    """
    import select  # only a broken pipe comes here

    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, as with io.StringIO
        return True
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(fd, 0)  # POLLERR and POLLHUP are reported unasked
        if not poller.poll(0):
            return False  # the pipe that broke was another stream's, such as stderr
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)
    return True


def _run(parser: argparse.ArgumentParser, argv: Sequence[str] | None,
         command: Callable[[argparse.Namespace], int]) -> int:
    """The exit status of ``command(parser.parse_args(argv))``, for the CLI and both scripts.

    A stdout closed at start ends the run at once with 141, before the
    parser could write ``--help`` anywhere.  ``--help`` returns 0 and a
    usage error 1.  ``command`` runs with the interpreter's limit on the
    digits of an int written as text lifted, and returns 0 or a status of
    its own.  A stdout closed later ends the run quietly with 141.  An
    interrupt (Ctrl-C) writes one ``<prog>: interrupted`` line to stderr and
    exits 130; the process then ignores any further Ctrl-C, so a second one
    cuts short neither the ending of a sweep's children nor the exit.  A
    failed pipeline check, or any other exception (a bug, never a usage
    error, and a broken pipe on stderr among them), writes one ``<prog>:
    ...`` line and exits 2, and so does a stderr that cannot take that line.
    """
    if sys.stdout is None:  # fd 1 was closed at start; a sweep's pipe would take fd 1
        return EXIT_STDOUT_CLOSED
    if sys.stderr is None:  # fd 2 was closed at start; print(file=None) would go to stdout
        sys.stderr = io.TextIOBase()  # whose write raises, as a closed descriptor's does
    # the parser holds each int to the interpreter's limit on the digits it writes,
    # but invariants and quotient write up to twice as many (p1^2 = 4(2h-1)^2);
    # before Python 3.10.7 there is no such limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        args = parser.parse_args(argv)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        code = command(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except SystemExit as exc:  # the parser's: 0 after --help, 1 for a usage error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except KeyboardInterrupt:
        import _signal  # loaded at start; importing signal here would take a millisecond

        # held, no SIGINT can come while signal() switches the handler (CPython
        # would report it as "ignored due to race condition"), and SIG_IGN drops
        # one held meanwhile.  The interrupt came by an unheld SIGINT, so the
        # release puts the mask back.  A call before the try would let a second
        # Ctrl-C that came meanwhile raise out of _run.
        try:  # it raises here instead, at the latest in the hold
            if hasattr(_signal, "pthread_sigmask"):  # not on Windows
                _signal.pthread_sigmask(_signal.SIG_BLOCK, {_signal.SIGINT})
            _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        except KeyboardInterrupt:
            _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        if hasattr(_signal, "pthread_sigmask"):
            _signal.pthread_sigmask(_signal.SIG_UNBLOCK, {_signal.SIGINT})
        code, message = EXIT_INTERRUPTED, "interrupted"
    except Exception as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            return EXIT_STDOUT_CLOSED
        code = EXIT_VERIFICATION_FAILED
        message = (str(exc) if isinstance(exc, (DerivationMismatch, DichotomyViolationError,
                                                 CoverageError))
                   else f"unexpected {type(exc).__name__}: {exc}")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    try:
        print(f"{parser.prog}: {' '.join(message.split())}", file=sys.stderr)
    except OSError:
        pass
    return code


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser(), argv, lambda args: _COMMANDS[args.command](args))


if __name__ == "__main__":
    sys.exit(main())
