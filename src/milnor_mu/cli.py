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

``verify`` handles each span of its range where the span is decided (see
:func:`_render_span`): under ``--parallel N`` this process is worker 0 of N
and the others are children forked for the call.  A span comes back as its
counts and either its csv text, written as it arrives, or its runs of equal
outcome, three values a run, from which json and table write every row once
the last span is in; so no format keeps a row until the end.  A row is its h
as text followed by one of four suffixes per outcome, one per residue of h
mod 56 (see :func:`_render_runs`).
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import operator
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
from .verify import (_SCAN_LIMIT, Case, CoverageError, _admissible, _expand, _map_spans,
                     _verify_chunk, check_case, enumerate_residues)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_INTERRUPTED = 128 + 2  # killed by SIGINT (2), as the shell reports it
EXIT_STDOUT_CLOSED = 128 + 13  # killed by SIGPIPE (13), as the shell reports it

#: The residues of an admissible h mod 56, in the order that consecutive
#: admissible h take them: h = 56k + r for each r in turn, then k + 1.
_RESIDUES = tuple(case.h_residue for case in Case)
_CYCLE_AT = {r: i for i, r in enumerate(_RESIDUES)}  # the place of each in that order


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a token that starts with a minus and a digit (-1_000, -5600..5600,
        # -.5) is a value, never a flag, since no option of these parsers starts
        # so; the option's type function then reads it or reports it malformed
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage problems exit 1; argparse's default of 2 is reserved for
    # verification failures.  The text is best-effort, so that a stderr that
    # fails to write (closed at start, see _run, or its reader gone) keeps 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        try:
            sys.stderr.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
        except OSError:
            _to_null(sys.stderr)
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


def _emit(fmt: str, payload: dict, header: list[str] | None = None,
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
    """The csv text of ``rows``; every csv line the CLI writes is made here,
    but for the h and its comma that :func:`_render_runs` puts before each
    ``verify`` row.

    No cell needs quoting: each is an int, an exact fraction, a name, a
    lowercase boolean, empty, or a ';'-joined list of those, so none holds a
    comma, a quote or a line break.
    """
    return "".join(",".join(cells) + "\n" for cells in rows)


def _emit_table(header: list[str], cells: Sequence[Sequence[str]]) -> None:
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    for row in [header, *cells]:
        print(_table_line(row, widths))


def _table_line(cells: Iterable[str], widths: Iterable[int]) -> str:
    """A table line: each cell left-justified to its width, two blanks apart, none trailing."""
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()


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
    """Sweep ``--h-range`` and write its rows from the runs of each span.

    The spans come from :func:`_render_span`, in h order, each with the
    counts of :func:`_verify_chunk`, which are summed here.  csv writes each
    span's lines as it arrives.  json needs the counts before its rows, and
    table the widest cell of each column before its first row, so for those
    only each span's runs are kept, three values a run, and the rows are
    written span by span from them once every span is in: memory grows with
    the number of runs, not of rows.
    """
    h_min, h_max = args.h_range
    fmt = args.format
    spans = _map_spans(functools.partial(_render_span, fmt), h_min, h_max, args.parallel)
    header = ["h", "residue_class", "mu_quotient_set", "verdict", "pass"]
    if fmt == "csv":
        sys.stdout.write(_csv_lines([header]))
    checked = failed = 0
    span_runs = []  # json and table: the runs of each span with rows
    for span_checked, span_failed, chunk in spans:
        checked += span_checked
        failed += span_failed
        if fmt == "csv":
            sys.stdout.write(chunk)
        elif chunk:
            span_runs.append(chunk)
    tails, h_width = {}, None
    if fmt == "json":  # laid out as json.dumps(..., indent=2) lays it out
        sys.stdout.write(f'{{\n  "h_min": {h_min},\n  "h_max": {h_max},\n  "checked": {checked},\n'
                         f'  "passed": {checked - failed},\n  "failed": {failed},\n  "rows": [')
    elif fmt == "table":
        widths, tails = _table_layout(header, span_runs)
        h_width = widths[0]
        print(_table_line(header, widths))
    for i, runs in enumerate(span_runs):
        if fmt == "json":  # a newline before the first row, a separator before the rest
            sys.stdout.write(",\n" if i else "\n")
        sys.stdout.write(_render_runs(fmt, runs, tails, h_width))
    if fmt == "json":
        sys.stdout.write("\n  ]\n}\n" if span_runs else "]\n}\n")
    else:
        print(f"checked {checked}  passed {checked - failed}  failed {failed}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


def _render_span(fmt: str, span: tuple[int, int]) -> tuple[int, int, str | list[tuple]]:
    """Decide one span of ``verify``: (checked, failed, chunk).

    It runs where the span is decided: under ``--parallel``, this process
    for the spans of worker 0 and a forked child for the others, so the
    children send back only counts and a chunk.  The counts and runs are
    those of :func:`_verify_chunk`; the runs are kept as
    ``(outcome, first_h, last_h)``: for json and table they are the chunk,
    which :func:`_cmd_verify` renders once every span is in; for csv the
    chunk is the span's lines, rendered here by :func:`_render_runs` from
    the h that :func:`_verify_chunk` listed.
    """
    checked, failed, runs = _verify_chunk(span)
    ends = [(outcome, hs[0], hs[-1]) for outcome, hs in runs]
    if fmt == "csv":
        lists = {hs[0]: hs for _, hs in runs}
        return checked, failed, _render_runs(fmt, ends, {}, hs_of=lambda first, last: lists[first])
    return checked, failed, ends


def _render_runs(fmt: str, runs: Iterable[tuple[tuple, int, int]], tails: dict,
                 h_width: int | None = None,
                 hs_of: Callable[[int, int], list[int]] = _admissible) -> str:
    """The rows of ``runs`` ``(outcome, first_h, last_h)``, each of consecutive admissible h.

    A row is its h as text, left-justified to ``h_width`` in a table,
    followed by one of the four suffixes of its outcome, kept in ``tails``
    (:func:`_render_tail` gives those of csv and json as they are first
    met): h mod 56 steps through 0, 1, 8, 49 from one admissible h to the
    next, so a run's suffixes cycle from its first h's.  A run of one h is
    one row; a longer run's h are ``hs_of(first_h, last_h)``.  csv and table
    rows are lines; json rows are objects at their depth in ``verify``'s
    payload, joined by ``",\n"``.
    """
    opener, sep = ('    {\n      "h": ', ",\n") if fmt == "json" else ("", "")
    texts = []
    for outcome, first, last in runs:
        suffixes = tails.get(outcome)
        if suffixes is None:  # twice over, so that four in a row start at any residue
            suffixes = tails[outcome] = 2 * _render_tail(fmt, *outcome)
        i = _CYCLE_AT[first % 56]
        if first == last:
            h = str(first)
            texts.append(opener + (h if h_width is None else h.ljust(h_width)) + suffixes[i])
            continue
        heads = map(str, hs_of(first, last))
        if h_width is not None:
            heads = map(str.ljust, heads, itertools.repeat(h_width))
        rows = map(operator.add, heads, itertools.cycle(suffixes[i:i + 4]))
        texts.append(opener + (sep + opener).join(rows))
    return sep.join(texts)


def _render_tail(fmt: str, verdict: str, passed: bool, mu: tuple[int, ...]) -> tuple[str, ...]:
    """What follows h in a csv or json row of one outcome, per residue in ``_RESIDUES``.

    csv: the rest of the line.  json: the rest of the row object, laid out
    as json.dumps(..., indent=2) lays it out; no member (an exact fraction)
    or verdict (a name) needs escaping.
    """
    if fmt == "csv":
        cells = _tail_cells(verdict, passed, mu)
        return tuple("," + _csv_lines([[str(r), *cells]]) for r in _RESIDUES)
    values = ",\n".join(f'        "{v.rep}"' for v in _expand(mu))
    tail = (f'      "mu_quotient": [\n{values}\n      ],\n      "verdict": "{verdict}",\n'
            f'      "pass": {_flat(passed)}\n    }}')
    return tuple(f',\n      "residue_class": {r},\n{tail}' for r in _RESIDUES)


def _tail_cells(verdict: str, passed: bool, mu: tuple[int, ...]) -> list[str]:
    """The value set, verdict and pass cells of a csv or table row of one outcome."""
    return [";".join(str(v.rep) for v in _expand(mu)), verdict, _flat(passed)]


def _table_layout(header: list[str], span_runs: list[list[tuple]]) -> tuple[list[int], dict]:
    """``verify``'s table column widths over runs ``(outcome, first_h, last_h)``, and its tails.

    Each width is the widest of its title and its cells.  Within a run of
    ascending h, ``len(str(h))`` peaks at an end; a residue cell, two digits
    at most, is narrower than its title; and a run's tail cells are its
    outcome's.  The tails are each outcome's row suffixes for
    :func:`_render_runs`: the line after h, its trailing blanks stripped,
    which are the pass cell's alone, since that cell is never blank.
    """
    cells = {}
    h_width = len(header[0])
    for runs in span_runs:
        for outcome, first, last in runs:
            if outcome not in cells:
                cells[outcome] = _tail_cells(*outcome)
            h_width = max(h_width, len(str(first)), len(str(last)))
    widths = [h_width, len(header[1])]
    widths += [max([len(title), *(len(row[i]) for row in cells.values())])
               for i, title in enumerate(header[2:])]
    tails = {}
    for outcome, row in cells.items():
        tails[outcome] = 2 * tuple(f"  {_table_line([str(r), *row], widths[1:])}\n"
                                   for r in _RESIDUES)
    return widths, tails


_H = dict(type=int, required=True, help="clutching parameter h")
_SPAN = dict(type=_parse_span, required=True, metavar="A..B")

#: Each command: the function it runs, its help line, and the add_argument
#: keywords of each of its options but ``--format``, which every command takes.
_COMMANDS = {
    "invariants": (_cmd_invariants, "characteristic data and mu of M_h", {"--h": _H}),
    "quotient": (_cmd_quotient, "classify the antipodal quotient M_h/tau_h", {"--h": _H}),
    "enumerate": (_cmd_enumerate, "residues r mod m with 56 | r(r-1)", {
        "--modulus": dict(type=_int_in(1, _SCAN_LIMIT), required=True,
                          help="scan modulus (<= 10^6)"),
    }),
    "cases": (_cmd_cases, "check the four residue cases over a k-range", {"--k-range": _SPAN}),
    "verify": (_cmd_verify, "oracle-vs-pipeline sweep over an h-range", {
        "--h-range": _SPAN,
        "--parallel": dict(type=_int_in(1), default=None, metavar="N",
                           help="worker processes (default: sequential)"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="milnor-mu",
        description=(
            "Exact Eells-Kuiper mu-invariants of Milnor sphere bundles "
            "and their antipodal quotients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table",
                       help="output format (default: table)")
    return parser


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
    _to_null(sys.stdout)
    return True


def _to_null(stream: io.TextIOBase) -> None:
    """Point the descriptor of ``stream``, where it has one, at the null device,
    so that the text it failed to write is dropped when the interpreter
    flushes it at exit, which would otherwise fail again and exit 120."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, as with io.StringIO
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


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
        _to_null(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser(), argv, lambda args: _COMMANDS[args.command][0](args))


if __name__ == "__main__":
    sys.exit(main())
