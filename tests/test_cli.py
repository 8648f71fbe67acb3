import contextlib
import csv
import errno
import functools
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import WORKERS, fork_only
from test_faults import (FAULTS, closed_form_off_by_one, oracle_off_on_odd_h, per_h_rows,
                         reference_verify_rows)

from milnor_mu import cli, verify
from milnor_mu.cli import main

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rewritten(text):
    """``text`` cut at its line breaks and commas and written again by ``csv.writer``.

    It equals ``text`` when no cell needs quoting, as the CLI's csv assumes.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(line.split(",") for line in text.splitlines())
    return out.getvalue()


class TestInvariants:
    def test_json_record_for_h8(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--h", "8", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record == {
            "h": 8,
            "euler": 1,
            "p1_magnitude": 30,
            "signature": 1,
            "p1_squared": 900,
            "mu": "0",
            "diffeo_s7": True,
            "theta7": 0,
        }

    def test_exotic_h_reports_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--h", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["mu"] == "1/28"
        assert record["diffeo_s7"] is False
        assert record["theta7"] == 1

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--h", "8")
        assert code == 0
        assert "p1_squared" in out and "900" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--h", "8", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["h", "euler", "p1_magnitude"]
        assert rows[1][0] == "8"

    def test_huge_h(self, capsys):
        h = str(10**40 + 1)
        code, out, _ = run_cli(capsys, "invariants", "--h", h, "--format", "json")
        assert code == 0
        assert json.loads(out)["h"] == 10**40 + 1


def all_digits(n):
    """str(n) past the interpreter's limit on the digits of an int written as text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def largest_h():
    """The largest h the parser accepts: every digit the interpreter lets int() read."""
    return 10 ** sys.get_int_max_str_digits() - 1


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int digits before 3.10.7"
)


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("h", [10**2200 + 8, "largest", "-largest"])
def test_records_of_an_h_past_half_the_digit_limit_print(capsys, fmt, h):
    # p1^2 has twice the digits of h, and 2h - 1 may have one more
    h = {"largest": largest_h(), "-largest": -largest_h()}.get(h, h)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "invariants", "--h", str(h), "--format", fmt)
    assert (code, err) == (0, "")
    assert all_digits((2 * (2 * h - 1)) ** 2) in out
    assert fmt != "csv" or csv_rewritten(out) == out
    code, out, err = run_cli(capsys, "quotient", "--h", str(h), "--format", fmt)
    assert (code, err) == (0, "")
    assert all_digits(abs(2 * h - 1)) + "/16" in out
    assert fmt != "csv" or csv_rewritten(out) == out
    assert sys.get_int_max_str_digits() == limit


@needs_digit_limit
@pytest.mark.parametrize("command", ["invariants", "quotient"])
def test_an_h_past_the_digit_limit_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--h", "9" + str(largest_h()))
    assert (code, out) == (1, "")
    assert "invalid int value" in err


class TestQuotient:
    def test_rp7_for_h8(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "--h", "8", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "RP7"
        assert record["mu_quotient"] == ["1/32", "31/32"]
        assert record["a1"] == ["-15/16", "15/16"]
        assert record["a2"] == "1"
        assert record["equivariant_signature"] == 1

    def test_not_applicable_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "--h", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "not_applicable"
        assert record["mu_quotient"] is None


class TestEnumerate:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--modulus", "56", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"modulus": 56, "residues": [0, 1, 8, 49]}

    @pytest.mark.parametrize("modulus", ["0", str(10**6 + 1)])
    def test_modulus_out_of_range_is_usage_error(self, capsys, modulus):
        code, out, err = run_cli(capsys, "enumerate", "--modulus", modulus)
        assert (code, out) == (1, "")
        assert f"argument --modulus: expected an int in [1, 1000000], got {modulus}\n" in err

    @pytest.mark.parametrize("modulus", [1, 10**6])
    def test_modulus_at_either_bound_is_accepted(self, capsys, modulus):
        code, out, _ = run_cli(capsys, "enumerate", "--modulus", str(modulus), "--format", "json")
        assert code == 0
        assert json.loads(out)["modulus"] == modulus


class TestCases:
    def test_all_four_match(self, capsys):
        code, out, _ = run_cli(capsys, "cases", "--k-range", "-10..10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_match"] is True
        constants = [(c["quad_constant"], c["linear_constant"]) for c in payload["cases"]]
        assert constants == [("0", "-1/32"), ("0", "1/32"), ("1/2", "15/32"), ("0", "1/32")]

    def test_range_of_two_times_ten_to_the_eighteen(self, capsys):
        # a per-k loop could never finish this; one period of h (4 k) decides it
        code, out, _ = run_cli(
            capsys, "cases", "--k-range", f"{-(10**18)}..{10**18}", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["all_match"] is True

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "cases", "--k-range", "0..5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["case", "h_residue", "quad_constant", "linear_constant", "matches"]
        assert [r[0] for r in rows[1:]] == ["I", "II", "III", "IV"]


class TestVerify:
    def test_csv_rows_and_exit(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--h-range", "-56..56", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["h", "residue_class", "mu_quotient_set", "verdict", "pass"]
        assert len(rows) - 1 == 9
        assert all(r[2] == "1/32;31/32" and r[4] == "true" for r in rows[1:])
        assert "checked 9" in err

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--h-range", "0..112", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 9
        assert payload["failed"] == 0
        assert payload["rows"][0]["h"] == 0

    def test_hundred_period_sweep(self, capsys):
        # 4 admissible h per 56-period plus the admissible endpoints
        code, out, _ = run_cli(capsys, "verify", "--h-range", "-5600..5600", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) - 1 == 801
        assert all(r[4] == "true" for r in rows[1:])

    def test_range_with_no_admissible_h(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--h-range", "2..7", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["h,residue_class,mu_quotient_set,verdict,pass"]

    def test_empty_sweep_is_a_pass(self, capsys):
        # nothing admissible means nothing failed: exit 0, with checked 0 on stderr
        code, _, err = run_cli(capsys, "verify", "--h-range", "2..7")
        assert (code, err) == (0, "checked 0  passed 0  failed 0\n")
        code, out, _ = run_cli(capsys, "verify", "--h-range", "2..7", "--format", "json")
        assert code == 0
        assert out == json.dumps({
            "h_min": 2, "h_max": 7, "checked": 0, "passed": 0, "failed": 0, "rows": []
        }, indent=2) + "\n"

    @pytest.mark.parametrize("workers", ["1", "2"])  # 1 is the least count accepted
    def test_parallel_output_matches_sequential(self, capsys, monkeypatch, workers):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        code_a, out_a, _ = run_cli(capsys, "verify", "--h-range", "-200..200", "--format", "csv")
        code_b, out_b, _ = run_cli(
            capsys, "verify", "--h-range", "-200..200", "--format", "csv", "--parallel", workers
        )
        assert (code_a, code_b) == (0, 0)
        assert out_a == out_b

    @pytest.mark.parametrize("value", ["abc", "-3", "0"])
    def test_bad_parallel_flag_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--h-range", "-56..56", "--parallel", value)
        assert code == 1
        assert out == ""
        assert "argument --parallel: " in err


class TestUnexpectedErrors:
    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_unexpected_error_exits_2_with_one_line(self, capsys, monkeypatch, fmt):
        def broken(*args, **kwargs):
            raise RuntimeError("worker\nlost")

        monkeypatch.setattr(cli, "_map_spans", broken)
        code, out, err = run_cli(capsys, "verify", "--h-range", "-56..56", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "milnor-mu: unexpected RuntimeError: worker lost\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_error_after_some_rows_exits_2_with_one_line(self, capsys, monkeypatch, fmt):
        def breaks_mid_sweep(decide, h_min, h_max, workers=None):
            yield decide((0, 8))  # h = 0, 1 and 8
            raise RuntimeError("worker\nlost")

        monkeypatch.setattr(cli, "_map_spans", breaks_mid_sweep)
        code, out, err = run_cli(capsys, "verify", "--h-range", "-56..56", "--format", fmt)
        assert code == 2
        assert err == "milnor-mu: unexpected RuntimeError: worker lost\n"
        # csv has written each row as it came; json and table had nothing to print yet
        rendered = render_verify(reference_verify_rows(per_h_rows(0, 8)), -56, 56, "csv")[0]
        assert out == (rendered if fmt == "csv" else "")

    @pytest.mark.parametrize("how", ["killed", "exited"])
    def test_a_lost_worker_exits_2_with_one_line(self, capsys, monkeypatch, how):
        real = cli._verify_chunk

        def dies_on_the_second_span(span):
            if span[0] > 0:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return real(span)

        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_verify_chunk", dies_on_the_second_span)
        code, _, err = run_cli(capsys, "verify", "--h-range", "-3000..3000", "--parallel", "2")
        assert code == 2
        assert err == ("milnor-mu: unexpected RuntimeError: "
                       "the worker for h in [1, 3000] ended without its result\n")

    def test_unexpected_error_in_quotient_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "classify_quotient", lambda bundle: 1 / 0)
        code, out, err = run_cli(capsys, "quotient", "--h", "8")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "ZeroDivisionError" in err


class TestCliContract:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bogus")
        assert code == 1

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("flags", [[], ["--format", "xml"]], ids=["bare", "format-xml"])
    def test_missing_or_invalid_option_is_usage_error(self, capsys, command, flags):
        # bare, the command lacks its required options; with --format xml, the
        # invalid choice is reported before them
        options = cli._COMMANDS[command][2]
        named = {"--format"} if flags else {f for f, kw in options.items() if kw.get("required")}
        code, out, err = run_cli(capsys, command, *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: milnor-mu {command} ") and err.count("usage:") == 1
        error = err.splitlines()[-1]
        assert error.startswith(f"milnor-mu {command}: error: ")
        assert named and set(re.findall(r"--[\w-]+", error)) == named

    def test_backwards_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--h-range", "5..1")
        assert code == 1

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "cases", "--k-range", "17")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "--h", "8", "--format", "json"),
            ("quotient", "--h", "49", "--format", "json"),
            ("enumerate", "--modulus", "112", "--format", "csv"),
            ("cases", "--k-range", "-5..5", "--format", "json"),
            ("verify", "--h-range", "-56..56", "--format", "csv"),
        ],
    )
    def test_identical_invocations_are_byte_identical(self, capsys, argv):
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "csv" not in argv or csv_rewritten(out_a) == out_a

    def test_json_round_trips(self, capsys):
        for argv in (
            ("invariants", "--h", "8"),
            ("quotient", "--h", "0"),
            ("enumerate", "--modulus", "56"),
            ("cases", "--k-range", "0..0"),
            ("verify", "--h-range", "0..1"),
        ):
            _, out, _ = run_cli(capsys, *argv, "--format", "json")
            payload = json.loads(out)
            assert json.loads(json.dumps(payload)) == payload


def stdout_of(*argv):
    """What ``milnor-mu *argv`` writes to stdout, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


class TestFormatsAgree:
    """csv and table carry the json values: the csv header is the json keys, and
    each csv and table cell is the json value through ``_flat``."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["invariants", "quotient"]), st.integers(-(10**30), 10**30))
    def test_record(self, command, h):
        argv = [command, "--h", str(h), "--format"]
        record = json.loads(stdout_of(*argv, "json"))
        flat = [cli._flat(value) for value in record.values()]
        text = stdout_of(*argv, "csv")
        assert list(csv.reader(io.StringIO(text))) == [list(record), flat]
        assert csv_rewritten(text) == text
        table = stdout_of(*argv, "table").splitlines()
        assert [(line[:22].lstrip(), line[24:]) for line in table] == list(zip(record, flat))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-(10**18), 10**18), st.integers(0, 10**18))
    def test_cases(self, k_min, width):
        argv = ["cases", "--k-range", f"{k_min}..{k_min + width}", "--format"]
        cases = json.loads(stdout_of(*argv, "json"))["cases"]
        header = list(cases[0])
        assert all(list(case) == header for case in cases)
        cells = [[cli._flat(value) for value in case.values()] for case in cases]
        text = stdout_of(*argv, "csv")
        assert list(csv.reader(io.StringIO(text))) == [header, *cells]
        assert csv_rewritten(text) == text
        table = stdout_of(*argv, "table").splitlines()
        assert [line.split() for line in table] == [header, *cells]


FORMATS = ["csv", "json", "table"]
VERIFY_HEADER = ["h", "residue_class", "mu_quotient_set", "verdict", "pass"]

#: Three full sweep spans and 17 h more, a window near 10^18, one admissible point.
WINDOWS = [
    (-40000, -40000 + 3 * 56 * 512 + 16),
    (10**18 - 3000, 10**18 + 3000),
    (8, 8),
]

PARTIAL_WINDOW = (-3000, 3000)

#: Each fault of test_faults on a window near 10^18, where it fails every row,
#: and two that fail some rows only, on a window holding h = 8: the oracle off
#: target on odd h and the closed form off at h = 8 alone.
FAULT_INPUTS = {
    **{name: (inject, WINDOWS[1]) for name, (inject, _) in FAULTS.items()},
    "oracle_on_odd_h": (oracle_off_on_odd_h, PARTIAL_WINDOW),
    "closed_form_at_8": (functools.partial(closed_form_off_by_one, only_h=8), PARTIAL_WINDOW),
}


def render_verify(rows, h_min, h_max, fmt):
    """(stdout, stderr, exit status) of ``verify`` as rendered from VerifyRows."""
    failed = sum(1 for r in rows if not r.passed)
    code = 2 if failed else 0
    members = [[str(v.rep) for v in r.mu_set] for r in rows]
    if fmt == "json":
        payload = {
            "h_min": h_min,
            "h_max": h_max,
            "checked": len(rows),
            "passed": len(rows) - failed,
            "failed": failed,
            "rows": [
                {"h": r.h, "residue_class": r.residue_class, "mu_quotient": mu,
                 "verdict": r.verdict, "pass": r.passed}
                for r, mu in zip(rows, members)
            ],
        }
        return json.dumps(payload, indent=2) + "\n", "", code
    cells = [
        [str(r.h), str(r.residue_class), ";".join(mu), r.verdict, "true" if r.passed else "false"]
        for r, mu in zip(rows, members)
    ]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([VERIFY_HEADER, *cells])
        out = buf.getvalue()
    else:
        widths = [max(len(row[i]) for row in [VERIFY_HEADER, *cells]) for i in range(5)]
        out = "".join(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
            for row in [VERIFY_HEADER, *cells]
        )
    return out, f"checked {len(rows)}  passed {len(rows) - failed}  failed {failed}\n", code


def render_per_h_rows(window, fmt):
    """:func:`render_verify` of the rows ``test_faults.per_h_rows`` decides over ``window``."""
    return render_verify(reference_verify_rows(per_h_rows(*window)), *window, fmt)


@functools.lru_cache(maxsize=None)
def expected_verify(window, fmt):
    """:func:`render_per_h_rows` with no fault patched in, once per window and format."""
    return render_per_h_rows(window, fmt)


def run_verify(capsys, window, fmt, workers):
    argv = ["verify", "--h-range", "%d..%d" % window, "--format", fmt]
    if workers is not None:
        argv += ["--parallel", str(workers)]
    code, out, err = run_cli(capsys, *argv)
    return out, err, code


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.usefixtures("two_usable_cpus")
class TestVerifyBytes:
    """``verify`` output equals a renderer over rows decided h by h, byte for byte."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_equals_rendered_per_h_rows(self, capsys, window, fmt, workers):
        assert run_verify(capsys, window, fmt, workers) == expected_verify(window, fmt)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_csv_equals_the_benchmark_oracle(self, capsys, window, workers):
        out, err, _ = load_oracle().sweep_csv(*window)
        assert run_verify(capsys, window, "csv", workers) == (out, err, 0)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("fault", sorted(FAULT_INPUTS))
    def test_equals_rendered_rows_under_each_fault(self, capsys, monkeypatch, fault, fmt,
                                                   workers):
        inject, window = FAULT_INPUTS[fault]
        inject(monkeypatch)
        expected = render_per_h_rows(window, fmt)
        assert expected[2] == 2
        out, err, code = run_verify(capsys, window, fmt, workers)
        assert (out, err, code) == expected
        assert fmt != "csv" or csv_rewritten(out) == out

    @pytest.mark.parametrize(
        "window, workers, spans",
        [
            (PARTIAL_WINDOW, None, 1),
            (WINDOWS[0], None, 4),
            # a csv span is rendered in the process that decides it: of the two
            # spans, this process decides the first and a child the second
            pytest.param(PARTIAL_WINDOW, 2, 1, marks=fork_only),
        ],
    )
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("odd_h_fault, value_sets", [(False, 1), (True, 2)])
    def test_renders_each_value_set_once_per_span(self, capsys, monkeypatch, odd_h_fault,
                                                  value_sets, fmt, window, workers, spans):
        # json and table render every span here, from its runs, and each value
        # set once in the whole sweep
        if odd_h_fault:
            oracle_off_on_odd_h(monkeypatch)
        calls = []

        def counted(pair, expand=cli._expand):
            calls.append(pair)
            return expand(pair)

        monkeypatch.setattr(cli, "_expand", counted)
        run_verify(capsys, window, fmt, workers)
        per_value_set = spans if fmt == "csv" else 1
        assert sorted(Counter(calls).values()) == [per_value_set] * value_sets

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_whole_member_prints_without_a_denominator(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(verify, "_direct_mu_pair", lambda h: (0, 112))
        expected = render_per_h_rows((-56, 56), fmt)
        assert "0;1/2" in expected[0] or '"0",' in expected[0]
        assert run_verify(capsys, (-56, 56), fmt, None) == expected

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_the_command_builds_no_verify_row(self, capsys, monkeypatch, fmt):
        def no_rows(*args, **kwargs):
            raise AssertionError("the verify command built a VerifyRow")

        window = WINDOWS[1]
        expected = expected_verify(window, fmt)
        monkeypatch.setattr(verify, "VerifyRow", no_rows)
        assert run_verify(capsys, window, fmt, None) == expected


VERDICTS = ["RP7", "RP7#14M2", "derivation_mismatch", "dichotomy_violation"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VERDICTS), st.booleans(),
       st.lists(st.integers(0, 223), min_size=1, max_size=2, unique=True).map(sorted),
       st.integers(-(10**30), 10**30), st.integers(1, 5))
@example("RP7", True, [0, 112], 8, 1)  # whole members: "0" and "1/2"
@example("RP7", True, [0], 8, 1)
def test_json_rows_are_laid_out_as_json_dumps_lays_them_out(verdict, passed, pair, start, count):
    outcome = verdict, passed, tuple(pair)
    hs = verify._admissible(start, start + 2 * 56)[:count]  # consecutive admissible h
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_verify_chunk",
                      lambda span: (len(hs), 0 if passed else len(hs), [(outcome, hs)]))
        checked, failed, runs = cli._render_span("json", (hs[0], hs[-1]))
    assert runs == [(outcome, hs[0], hs[-1])]
    chunk = cli._render_runs("json", runs, {})
    mu = [str(Fraction(v, 224)) for v in pair]
    rows = [{"h": h, "residue_class": h % 56, "mu_quotient": mu, "verdict": verdict,
             "pass": passed} for h in hs]
    text = json.dumps({"rows": rows}, indent=2)  # the rows at their depth in verify's payload
    assert (checked, failed) == (len(hs), 0 if passed else len(hs))
    assert chunk == text[len('{\n  "rows": [\n'):-len("\n  ]\n}")]


README_PATH = Path(__file__).resolve().parent.parent / "README.md"

#: Every README example.  The cases block is reformatted there, so it is
#: compared as parsed json; the verify block is cut after its first lines.
README_EXAMPLES = ("invariants", "quotient", "enumerate", "cases", "verify")


def readme_examples():
    """(argv, stdout) of each ``$ milnor-mu ...`` block in the README."""
    examples = {}
    for block in README_PATH.read_text().split("```sh\n")[1:]:
        command, _, out = block.split("\n```", 1)[0].partition("\n")
        if command.startswith("$ milnor-mu "):
            argv = command.split()[2:]
            examples[argv[0]] = (argv, out + "\n")
    return examples


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_readme_example_is_the_real_output(capsys, command):
    argv, expected = readme_examples()[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    if command == "cases":
        assert (json.loads(out), err) == (json.loads(expected), "")
    elif command == "verify":  # the lines before "..." start the output
        shown, elided = expected.split("...\n")
        assert elided == "" and out.startswith(shown) and len(out) > len(shown)
    else:
        assert (out, err) == (expected, "")


def test_readme_library_snippet_gives_its_commented_results():
    snippet = README_PATH.read_text().split("```python\n", 1)[1].split("\n```", 1)[0]
    scope, results = {}, []
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        try:
            results.append((comment.strip(), eval(code, scope)))
        except SyntaxError:  # a statement: an import or an assignment
            exec(code, scope)
    (mu_text, mu), (verdict_text, verdict), (residue_text, residue) = results
    assert mu_text == f"{type(mu).__name__}: {mu}"
    assert verdict_text == str(verdict)
    assert residue_text == str(residue)


SRC_PATH = Path(__file__).resolve().parent.parent / "src"

#: Modules whose import would make every CLI start slower: ``dataclasses``
#: pulls in ``inspect``, and ``typing`` and ``concurrent.futures`` cost
#: milliseconds each; ``pickle`` and ``signal`` are imported on the first
#: pooled sweep only, ``json`` by the json records of the other commands
#: (``verify`` writes its json by template), and ``csv`` never.
SLOW_IMPORTS = ("dataclasses", "inspect", "typing", "concurrent.futures", "pickle", "signal",
                "json", "csv")


def test_importing_the_cli_loads_no_slow_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import milnor_mu.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC_PATH)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "milnor_mu.cli" in loaded
    assert [name for name in SLOW_IMPORTS if name in loaded] == []


def test_a_pooled_sweep_loads_no_pool_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from milnor_mu import verify; "
        "verify._usable_cpus = lambda: 2; from milnor_mu.cli import main; "
        "code = main(['verify', '--h-range', '-3000..3000', '--parallel', '2']); "
        "print(code, *sorted({'concurrent.futures', 'multiprocessing', 'pickle'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC_PATH)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    # pickle shows that the sweep did fan out
    assert done.stdout.splitlines()[-1] == "0 pickle"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["cases", "--k-range", "0..3"], ""),
        (["verify", "--h-range", "-56..56", "--format", "csv"], ""),
        (["verify", "--h-range", "-56..56", "--format", "json"], ""),
        (["quotient", "--h", "8", "--format", "json"], "json"),
    ],
    ids=["table", "csv", "verify-json", "json"],
)
def test_each_format_loads_only_its_own_writer(argv, loaded):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from milnor_mu.cli import main; "
        "code = main(sys.argv[2:]); print(code, *sorted({'csv', 'json'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC_PATH), *argv],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines()[-1] == f"0 {loaded}".rstrip()


@fork_only
def test_a_pooled_json_sweep_renders_every_span_without_json():
    # every span, this process's and the child's, is rendered with json absent,
    # and the finished output is written without it too
    code = """if 1:
        import sys; sys.path.insert(0, sys.argv[1])
        from milnor_mu import cli, verify
        verify._usable_cpus = lambda: 2
        real = cli._render_span

        def render(fmt, span):
            assert "json" not in sys.modules, "a span was rendered with json loaded"
            return real(fmt, span)

        cli._render_span = render
        code = cli.main(["verify", "--h-range", "-3000..3000", "--format", "json",
                         "--parallel", "2"])
        assert "json" not in sys.modules, "the sweep loaded json"
        sys.exit(code)
    """
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC_PATH)],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.stdout, done.stderr, done.returncode) == expected_verify(PARTIAL_WINDOW, "json")


@fork_only
@pytest.mark.parametrize("fault", [None, "closed_form"])
def test_a_pooled_json_sweep_equals_the_sequential_one(capsys, monkeypatch, forks, fault):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    if fault is not None:
        FAULTS[fault][0](monkeypatch)
    sequential = run_verify(capsys, PARTIAL_WINDOW, "json", None)
    assert run_verify(capsys, PARTIAL_WINDOW, "json", 2) == sequential
    assert len(forks) == 1 and sequential[2] == (0 if fault is None else 2)


@pytest.mark.parametrize("parallel", [[], ["--parallel", "1"]], ids=["sequential", "parallel-1"])
def test_a_sequential_sweep_loads_neither_pickle_nor_signal(parallel):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from milnor_mu.cli import main; "
        "code = main(['verify', '--h-range', '-1000..1000', '--format', 'csv', *sys.argv[2:]]); "
        "print(code, *sorted({'pickle', 'signal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC_PATH), *parallel],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0"


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class UnwritableStderr(io.StringIO):
    """A stderr whose descriptor is closed: every write raises EBADF."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


def test_an_unwritable_stderr_still_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", UnwritableStderr())
    argv = ["verify", "--h-range", "0..60", "--format", "csv"]
    assert main(argv) == 2  # the summary line could not be written
    assert capsys.readouterr().out == expected_verify((0, 60), "csv")[0]


def test_a_usage_error_with_no_stderr_still_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", None)  # as when fd 2 was closed at start
    assert main(["bogus"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("argv, code", [
    pytest.param(["verify", "--h-range", "-3000..3000", "--format", "csv"], 2,
                 id="verify"),  # its summary is lost
    pytest.param(["bogus"], 1, id="usage-error"),
])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stderr_whose_reader_has_gone_exits_2_with_all_of_stdout(unbuffered, argv, code):
    # buffered, the text that stderr failed to write stays in its buffer, and
    # the interpreter's flush at exit must not fail on it (exit status 120)
    read_end, write_end = os.pipe()
    os.close(read_end)  # stderr meets a broken pipe, stdout does not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC_PATH)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "milnor_mu.cli", *argv],
                              stdout=subprocess.PIPE, stderr=write_end, env=env, timeout=60)
    finally:
        os.close(write_end)
    out = expected_verify(PARTIAL_WINDOW, "csv")[0] if code == 2 else ""
    assert (done.returncode, done.stdout.decode()) == (code, out)


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("argv, code", [
    (["verify", "--h-range", "0..60", "--format", "csv"], 2),  # its summary is lost
    (["verify", "--h-range", "0..60", "--format", "json"], 0),  # it writes no stderr
    (["bogus"], 1),
    (["enumerate", "--modulus", "0"], 1),
])
def test_a_closed_stderr_is_an_error_and_leaves_stdout_clean(argv, code):
    env = {**os.environ, "PYTHONPATH": str(SRC_PATH)}
    done = subprocess.run([sys.executable, "-m", "milnor_mu.cli", *argv], stdout=subprocess.PIPE,
                          env=env, timeout=60, preexec_fn=lambda: os.close(2))
    out = "" if code == 1 else expected_verify((0, 60), argv[-1])[0]
    assert (done.returncode, done.stdout.decode()) == (code, out)


@pytest.mark.parametrize("argv", [
    ["verify", "--h-range", "-3000..3000", "--format", "csv", "--parallel", "2"],
    ["verify", "--h-range", "-56..56", "--format", "json"],
    ["quotient", "--h", "8"],
])
def test_a_closed_stdout_exits_141_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


def test_a_closed_stdout_exits_141_quietly_where_select_has_no_poll(capsys, monkeypatch):
    # as on Windows: a stdout with a descriptor cannot be polled, so it counts
    # as closed and is pointed at the null device
    import select

    monkeypatch.delattr(select, "poll")
    read_end, write_end = os.pipe()  # the stub's own descriptor, not the runner's fd 1
    try:
        stdout = ClosedStdout()
        stdout.fileno = lambda: write_end
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["quotient", "--h", "8"]) == 141
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)
    assert capsys.readouterr().err == ""


def two_cpu_cli(*argv):
    """``milnor-mu argv`` on ``SRC_PATH``, unbuffered (``-I`` drops ``PYTHONUNBUFFERED``),
    with two usable CPUs whatever the CPU mask: ``--parallel 2`` forks even on one CPU."""
    stub = ("import sys; sys.path.insert(0, sys.argv[1]); from milnor_mu import cli, verify; "
            "verify._usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[2:]))")
    return [sys.executable, "-I", "-S", "-u", "-c", stub, str(SRC_PATH), *argv]


@pytest.mark.usefixtures("time_limit")
def test_a_closed_pipe_ends_a_pooled_sweep_and_its_children(tmp_path):
    argv = two_cpu_cli("verify", "--h-range", "-100000000..100000000", "--format", "csv",
                       "--parallel", "2")
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            assert proc.stdout.readline() == b"h,residue_class,mu_quotient_set,verdict,pass\n"
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    assert (code, (tmp_path / "stderr").read_bytes()) == (141, b"")
    with pytest.raises(ProcessLookupError):  # no process of its session is left
        os.killpg(proc.pid, 0)


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("workers", [None, pytest.param(2, marks=fork_only)])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_json_or_table_sweep_read_by_head_1_exits_141_quietly(tmp_path, fmt, workers):
    # json and table write their rows once every span is in, more than a pipe
    # holds here; the reader leaves after the first line
    argv = two_cpu_cli("verify", "--h-range", "-100000..100000", "--format", fmt)
    if workers:
        argv += ["--parallel", str(workers)]
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            assert proc.stdout.readline() == (b"{\n" if fmt == "json" else
                                               b"h       residue_class  mu_quotient_set  "
                                               b"verdict  pass\n")
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    assert (code, (tmp_path / "stderr").read_bytes()) == (141, b"")


#: A cap on the address space of one child, in bytes.  A sweep over
#: -2000000..2000000 (285,716 rows) peaks near 17 MB of address space in
#: json and in table, where each kept only its runs until the writer; when
#: every row was kept until then, it peaked at 63 MB in json and 95 MB in
#: table (Python 3.11, Linux).
ADDRESS_SPACE_CAP = 40 << 20


def admissible_count(lo, hi):
    """The number of h in [lo, hi] with 56 | h(h-1), counted per residue class mod 56."""
    return sum((hi - r) // 56 - (lo - 1 - r) // 56 for r in (0, 1, 8, 49))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps the address space as measured here on Linux only")
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_wide_sweep_writes_json_and_table_in_bounded_memory(tmp_path, fmt):
    # the cap is set in the child alone, before it imports the program
    code = ("import resource, sys; cap = int(sys.argv[2]); "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "sys.path.insert(0, sys.argv[1]); from milnor_mu.cli import main; "
            "sys.exit(main(sys.argv[3:]))")
    argv = [sys.executable, "-I", "-S", "-c", code, str(SRC_PATH), str(ADDRESS_SPACE_CAP),
            "verify", "--h-range", "-2000000..2000000", "--format", fmt]
    with open(tmp_path / "stdout", "wb") as out:
        done = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, timeout=120)
    rows = admissible_count(-2000000, 2000000)
    summary = f"checked {rows}  passed {rows}  failed 0\n".encode()
    assert (done.returncode, done.stderr) == (0, b"" if fmt == "json" else summary)
    text = (tmp_path / "stdout").read_text()
    if fmt == "json":
        assert text.startswith(f'{{\n  "h_min": -2000000,\n  "h_max": 2000000,\n'
                               f'  "checked": {rows},\n  "passed": {rows},\n  "failed": 0,\n')
        assert text.count('"h": ') == rows and text.endswith("\n  ]\n}\n")
    else:
        lines = text.splitlines()
        first = next(h for h in range(-2000000, 2000001) if h * (h - 1) % 56 == 0)
        last = next(h for h in range(2000000, -2000001, -1) if h * (h - 1) % 56 == 0)
        assert len(lines) == rows + 1
        assert [lines[1], lines[-1]] == [f"{h:<8}  {h % 56:<13}  1/32;31/32       RP7      true"
                                         for h in (first, last)]


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("workers", [None, pytest.param(2, marks=fork_only)])
def test_a_terminated_sweep_dies_by_sigterm_and_leaves_no_process(workers):
    argv = two_cpu_cli("verify", "--h-range", "-100000000..100000000", "--format", "csv")
    if workers:
        argv += ["--parallel", str(workers)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        for _ in range(2):  # the header, then a row: the sweep and its children have begun
            assert proc.stdout.readline()
        os.kill(proc.pid, signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (-signal.SIGTERM, b"")
    with pytest.raises(ProcessLookupError):  # no process of its session is left
        os.killpg(proc.pid, 0)


def interrupt(argv, target, lines, again_after=None):
    """Run argv in a session of its own and send it SIGINT once it has written
    ``lines`` lines, to its first process or to its process group (as a
    terminal's Ctrl-C does), and once more ``again_after`` seconds later if
    that is given; its exit status and stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC_PATH), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        for _ in range(lines):
            assert proc.stdout.readline()
        send = os.killpg if target == "group" else os.kill
        send(proc.pid, signal.SIGINT)
        if again_after is not None:
            time.sleep(again_after)
            send(proc.pid, signal.SIGINT)  # the process is not reaped yet, so it is there
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        # closed here too when an assertion failed, so that no ResourceWarning
        # of an unclosed pipe fails some later test instead of this one
        proc.stdout.close()
        proc.stderr.close()
    with pytest.raises(ProcessLookupError):  # no process of its session is left
        os.killpg(proc.pid, 0)
    return proc.returncode, err


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("target", ["process", "group"])
@pytest.mark.parametrize("workers", [None, pytest.param(2, marks=fork_only)])
def test_an_interrupted_sweep_exits_130_with_one_line(target, workers):
    argv = two_cpu_cli("verify", "--h-range", "-50000000..50000000", "--format", "csv")
    if workers:
        argv += ["--parallel", str(workers)]
    # the header, then a row: the sweep, and under --parallel its children, have begun
    assert interrupt(argv, target, lines=2) == (130, b"milnor-mu: interrupted\n")


@pytest.fixture
def sigint_restored():
    previous = signal.getsignal(signal.SIGINT)
    yield
    signal.signal(signal.SIGINT, previous)


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="no signal mask to hold")
def test_an_interrupt_ignores_sigint_only_while_sigint_is_held(sigint_restored, capsys,
                                                                monkeypatch):
    # signal() runs pending handlers before it switches, so a SIGINT that came in
    # between would be reported on stderr as "Signal 2 ignored due to race condition"
    import _signal

    real = _signal.signal
    held_at_ignore = []

    def spy(signum, handler):
        if signum == signal.SIGINT and handler == signal.SIG_IGN:
            held_at_ignore.append(signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ()))
        return real(signum, handler)

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(_signal, "signal", spy)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert cli._run(cli._Parser(prog="prog"), [], interrupted) == 130
    assert held_at_ignore == [True]
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
    assert capsys.readouterr().err == "prog: interrupted\n"


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("again_after_ms", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("workers", [None, pytest.param(2, marks=fork_only)])
def test_a_second_interrupt_is_ignored(workers, again_after_ms):
    # a Ctrl-C pressed twice: the second must not interrupt the exit of the first
    argv = two_cpu_cli("verify", "--h-range", "-50000000..50000000", "--format", "csv")
    if workers:
        argv += ["--parallel", str(workers)]
    assert interrupt(argv, "group", lines=2, again_after=again_after_ms / 1000) == (
        130, b"milnor-mu: interrupted\n")
