"""The two scripts: exit codes and the shared range and worker-count parsing."""

import importlib.util
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import WORKERS, fork_only
from test_cli import SRC_PATH, ClosedStdout, UnwritableStderr, interrupt
from test_faults import FAULTS, closed_form_off_by_one

from milnor_mu import cli, quotient, verify
from milnor_mu.bundles import DerivationMismatch
from milnor_mu.quotient import DichotomyViolationError
from milnor_mu.qz import AmbiguousResidue, reduce_mod_z

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_as_main(monkeypatch, name, argv):
    """The exit status of ``python scripts/<name>.py *argv``, run in this process."""
    monkeypatch.setattr("sys.argv", [f"{name}.py", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / f"{name}.py"), run_name="__main__")
    return exc.value.code


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["--h-span", "300", "--crt-periods", "2"]

#: The stdout of full_verification.py at SMALL, but for its last line, the elapsed time.
SMALL_STDOUT = """\
residues mod 56 with 56 | r(r-1): (0, 1, 8, 49)
  scan agrees with CRT construction for all 56m, m <= 2
case analysis over one period, k in [0, 3], so for every k:
  case   I (h = 56k +  0): h(h-1)/112 = 0 + k/2, (2h-1)/32 = -1/32 + k/2  [ok]
  case  II (h = 56k +  1): h(h-1)/112 = 0 + k/2, (2h-1)/32 = 1/32 + k/2  [ok]
  case III (h = 56k +  8): h(h-1)/112 = 1/2 + k/2, (2h-1)/32 = 15/32 + k/2  [ok]
  case  IV (h = 56k + 49): h(h-1)/112 = 0 + k/2, (2h-1)/32 = 1/32 + k/2  [ok]
direct-formula sweep over one period, h in [0, 1791], so for every h: 128 admissible h, 0 failures
oracle-vs-pipeline sweep: 44 rows, 0 disagreements
"""

WRONG = AmbiguousResidue.of(reduce_mod_z(Fraction(15, 32)), reduce_mod_z(Fraction(17, 32)))


class TestFullVerification:
    def test_passing_run_exits_0(self, capsys):
        assert load("full_verification").main(SMALL) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", WORKERS)
    def test_stdout_at_small(self, capsys, monkeypatch, workers):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        argv = SMALL if workers is None else [*SMALL, "--parallel", str(workers)]
        assert load("full_verification").main(argv) == 0
        *lines, elapsed = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines) == SMALL_STDOUT
        assert re.fullmatch(r"total \d+\.\ds: all checks passed\n", elapsed)

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "direct_mu_set", lambda h: WRONG)
        assert load("full_verification").main(SMALL) == 2
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("h_span", ["0", "300"])
    def test_referee_and_cases_run_over_one_period(self, monkeypatch, h_span):
        calls = []

        def record(name):
            real = getattr(verify, name)

            def recorded(*args):
                calls.append((name, *args))
                return real(*args)

            monkeypatch.setattr(verify, name, recorded)

        record("check_case")
        record("brute_force_theorem")
        assert load("full_verification").main(["--h-span", h_span, "--crt-periods", "2"]) == 0
        assert calls == [*(("check_case", case, 0, 3) for case in verify.Case),
                         ("brute_force_theorem", 0, 1791)]

    @pytest.mark.parametrize("period, missing", [(223, "168"), (112, "112, 168")])
    def test_a_shrunk_case_period_fails_the_run(self, capsys, monkeypatch, period, missing):
        # the case analysis claims every k, so it must reach every class of h mod 224
        monkeypatch.setattr(verify, "_CASE_PERIOD", period)
        assert run_as_main(monkeypatch, "full_verification", SMALL) == 2
        out, err = capsys.readouterr()
        assert "case analysis" not in out and "all checks passed" not in out
        assert err == (f"full_verification.py: case I over k in [0, 3] left "
                       f"h = {missing} mod 224 undecided\n")

    def test_a_periodic_referee_fault_fails_whatever_the_h_span(self, capsys, monkeypatch):
        # off at h = 49 mod 56 only, so the window [0, 0] never meets it
        real = verify.direct_mu_set
        monkeypatch.setattr(verify, "direct_mu_set", lambda h: WRONG if h % 56 == 49 else real(h))
        assert load("full_verification").main(["--h-span", "0", "--crt-periods", "2"]) == 2
        out = capsys.readouterr().out
        assert "h in [0, 1791], so for every h: 128 admissible h, 32 failures" in out
        assert "oracle-vs-pipeline sweep: 1 rows, 0 disagreements" in out

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_every_fault_fails_the_run(self, capsys, monkeypatch, fault):
        FAULTS[fault][0](monkeypatch)
        assert load("full_verification").main(SMALL) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_sweep_counts_rows_without_building_them(self, capsys, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("the script built the verify_range rows")

        monkeypatch.setattr(verify, "verify_range", no_rows)
        monkeypatch.setattr(verify, "VerifyRow", no_rows)
        assert load("full_verification").main(SMALL) == 0
        assert "oracle-vs-pipeline sweep: 44 rows, 0 disagreements" in capsys.readouterr().out

    def test_disagreements_are_counted(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_direct_mu_pair", lambda h: (105, 119))
        assert load("full_verification").main(SMALL) == 2
        assert "oracle-vs-pipeline sweep: 44 rows, 44 disagreements" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", WORKERS)
    def test_per_span_counts_add_up(self, capsys, monkeypatch, workers):
        closed_form_off_by_one(monkeypatch, only_h=8)
        monkeypatch.setattr(verify, "_SPAN_WIDTH", 56)  # about a dozen spans over [-300, 300]
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        argv = SMALL if workers is None else [*SMALL, "--parallel", str(workers)]
        assert load("full_verification").main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "oracle-vs-pipeline sweep: 44 rows, 1 disagreements" in lines

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
    def test_bad_worker_count_is_usage_error(self, capsys, value):
        assert load("full_verification").main([*SMALL, "--parallel", value]) == 1
        reason = (f"invalid int value: {value!r}" if value in ("abc", "2.5")
                  else f"expected an int at least 1, got {value}")
        assert f"argument --parallel: {reason}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--h-span", "-1"),
            ("--k-span", "5"),  # no longer an option: one period decides every k
            ("--crt-periods", "-1"),
            ("--crt-periods", str(verify._SCAN_LIMIT // 56 + 1)),
        ],
    )
    def test_out_of_range_size_is_usage_error(self, capsys, flag, value):
        assert load("full_verification").main([*SMALL, flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    @pytest.mark.parametrize("argv", [
        ["--h-span", "0", "--crt-periods", str(verify._SCAN_LIMIT // 56)],
        ["--h-span", "0", "--crt-periods", "0", "--parallel", "1"],
    ])
    def test_zero_spans_and_largest_crt_periods_are_accepted(self, monkeypatch, argv):
        # only the bounds are under test, not the residue scans
        base = verify.enumerate_residues(56)
        monkeypatch.setattr(verify, "enumerate_residues", lambda m: base)
        monkeypatch.setattr(verify, "residues_by_crt", lambda m: base)
        assert load("full_verification").main(argv) == 0

    @pytest.mark.parametrize(
        "side,flipped,first_bad_m",
        [
            ("crt", 56 * 5 + 8, 6),  # a residue above 56 * 5 goes missing
            ("scan", 56 * 5 + 20, 6),  # a spurious residue appears
            ("crt", 56 * 11 + 49, 12),  # the last residue goes missing
        ],
    )
    def test_crt_check_lists_the_per_m_disagreements(self, capsys, monkeypatch, side, flipped,
                                                     first_bad_m):
        name = "residues_by_crt" if side == "crt" else "enumerate_residues"
        real = getattr(verify, name)

        def faulty(modulus):
            residues = set(real(modulus).residues) ^ ({flipped} & set(range(modulus)))
            return verify.ResidueSolution(modulus, tuple(sorted(residues)))

        monkeypatch.setattr(verify, name, faulty)
        per_m = [m for m in range(1, 13)
                 if verify.enumerate_residues(56 * m) != verify.residues_by_crt(56 * m)]
        assert per_m == list(range(first_bad_m, 13))
        script = load("full_verification")
        assert script.crt_disagreements(12) == per_m
        assert script.main(["--h-span", "300", "--crt-periods", "12"]) == 2
        assert f"scan vs CRT disagree at m = {per_m}" in capsys.readouterr().out

    @pytest.mark.parametrize("side", ["crt", "scan"])
    @pytest.mark.parametrize(
        "extra,per_m",
        [
            (56 * 12 + 3, [12]),  # a residue at or above the modulus fails that modulus
            (-3, list(range(1, 13))),  # a negative residue fails every modulus
        ],
    )
    def test_crt_check_lists_a_residue_outside_the_modulus(self, capsys, monkeypatch, side,
                                                          extra, per_m):
        name = "residues_by_crt" if side == "crt" else "enumerate_residues"
        real = getattr(verify, name)

        def faulty(modulus):
            residues = tuple(sorted((*real(modulus).residues, extra)))
            return verify.ResidueSolution(modulus, residues)

        monkeypatch.setattr(verify, name, faulty)
        script = load("full_verification")
        assert script.crt_disagreements(12) == per_m
        assert script.main(["--h-span", "300", "--crt-periods", "12"]) == 2
        assert f"scan vs CRT disagree at m = {per_m}" in capsys.readouterr().out

    def test_unexpected_exception_exits_2_with_one_line(self, capsys, monkeypatch):
        def broken(h_min, h_max):
            raise RuntimeError("injected\nfault")

        monkeypatch.setattr(verify, "brute_force_theorem", broken)
        assert run_as_main(monkeypatch, "full_verification", SMALL) == 2
        err = capsys.readouterr().err
        assert err == "full_verification.py: unexpected RuntimeError: injected fault\n"

    def test_largest_crt_check_runs_unpatched(self):
        assert load("full_verification").crt_disagreements(verify._SCAN_LIMIT // 56) == []


class TestMuTable:
    def test_negative_range(self, capsys):
        assert load("mu_table").main(["--h-range", "-9..-7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["-9", "-8", "-7"]
        assert lines[-1].endswith("RP7 {1/32, 31/32} mod 1")

    def test_default_range(self, capsys):
        assert load("mu_table").main([]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 18

    @pytest.mark.parametrize("text", ["5..1", "5", "a..b", ""])
    def test_empty_or_malformed_range_is_usage_error(self, capsys, text):
        assert load("mu_table").main(["--h-range", text]) == 1
        assert "--h-range" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["closed_form", "dichotomy"])
    def test_pipeline_fault_exits_2_with_one_line(self, capsys, monkeypatch, fault):
        if fault == "closed_form":
            real = quotient._closed_form_scaled
            monkeypatch.setattr(
                quotient, "_closed_form_scaled", lambda h: tuple(sorted((v + 1) % 1792 for v in real(h)))
            )
        else:
            monkeypatch.setattr(quotient, "_RP7_SCALED", (0, 0))
        assert load("mu_table").main(["--h-range", "0..0"]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2  # the header only
        assert len(err.splitlines()) == 1
        assert ("closed form" if fault == "closed_form" else "neither RP^7") in err

    def test_unexpected_exception_exits_2_with_one_line(self, capsys, monkeypatch):
        def broken(bundle):
            return 1 // 0

        monkeypatch.setattr(quotient, "classify_quotient", broken)
        assert run_as_main(monkeypatch, "mu_table", ["--h-range", "0..0"]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2  # the header only
        assert err == ("mu_table.py: unexpected ZeroDivisionError: "
                       "integer division or modulo by zero\n")


@pytest.mark.parametrize("name, argv", [("full_verification", SMALL), ("mu_table", [])])
def test_a_closed_stdout_exits_141_quietly(capsys, monkeypatch, name, argv):
    monkeypatch.setattr("sys.stdout", ClosedStdout())
    assert load(name).main(argv) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["milnor-mu", "full_verification", "mu_table"])
def test_every_main_returns_the_status_of_help_usage_errors_and_a_closed_stdout(
        capsys, monkeypatch, name):
    main = cli.main if name == "milnor-mu" else load(name).main
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: ") and err == ""
    assert main(["--no-such-option"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and ": error: " in err.splitlines()[-1]
    monkeypatch.setattr("sys.stdout", None)  # as when fd 1 was closed at start
    assert main(["--help"]) == 141
    assert capsys.readouterr().err == ""


def test_mu_table_with_an_unwritable_stderr_still_exits_2(capsys, monkeypatch):
    closed_form_off_by_one(monkeypatch)
    monkeypatch.setattr("sys.stderr", UnwritableStderr())
    assert load("mu_table").main(["--h-range", "0..0"]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 2  # the header only


def _raises(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


#: entry point -> (module and name of a function its command calls, how to run it)
ENTRY_POINTS = {
    "milnor-mu": ((cli, "classify_quotient"), lambda mp: cli.main(["quotient", "--h", "8"])),
    "mu_table.py": ((quotient, "classify_quotient"),
                    lambda mp: run_as_main(mp, "mu_table", ["--h-range", "0..0"])),
    "full_verification.py": ((verify, "brute_force_theorem"),
                             lambda mp: run_as_main(mp, "full_verification", SMALL)),
}


# Unexpected errors and a closed stdout have tests per entry point above and
# in test_cli.py; a failed pipeline check reaches full_verification.py only by
# injection, since its sweeps catch these errors per row.
@pytest.mark.parametrize("exc, line", [
    (DerivationMismatch("mu(M_8/tau): a != b"), "mu(M_8/tau): a != b"),
    (DichotomyViolationError("mu(M_8/tau) matches neither"), "mu(M_8/tau) matches neither"),
])
@pytest.mark.parametrize("prog", sorted(ENTRY_POINTS))
def test_a_failed_pipeline_check_is_one_line_from_every_entry_point(capsysbinary, monkeypatch,
                                                                   prog, exc, line):
    (module, name), run = ENTRY_POINTS[prog]
    monkeypatch.setattr(module, name, _raises(exc))
    assert run(monkeypatch) == 2
    assert capsysbinary.readouterr().err == f"{prog}: {line}\n".encode()


def _script(name, *argv):
    return [sys.executable, str(SCRIPTS / f"{name}.py"), *argv]


def _two_cpu_script(name, *argv):
    """``scripts/name.py argv`` on ``SRC_PATH``, unbuffered, with two usable CPUs
    whatever the CPU mask, like ``test_cli.two_cpu_cli``: ``--parallel 2`` forks
    even on one CPU."""
    stub = ("import runpy, sys; sys.path.insert(0, sys.argv[1]); from milnor_mu import verify; "
            "verify._usable_cpus = lambda: 2; sys.argv = sys.argv[2:]; "
            "runpy.run_path(sys.argv[0], run_name='__main__')")
    return [sys.executable, "-I", "-S", "-u", "-c", stub, str(SRC_PATH),
            str(SCRIPTS / f"{name}.py"), *argv]


_ENV = {**os.environ, "PYTHONPATH": str(SRC_PATH)}


@pytest.mark.usefixtures("time_limit")
def test_mu_table_read_by_head_1_exits_141_quietly(tmp_path):
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(_script("mu_table", "--h-range", "-200000..200000"),
                                stdout=subprocess.PIPE, stderr=err, env=_ENV)
        try:
            assert proc.stdout.readline().split() == [b"h", b"mu(M_h)", b"theta7", b"S^7?",
                                                      b"quotient"]
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert (code, (tmp_path / "stderr").read_bytes()) == (141, b"")


def test_full_verification_passes_at_its_defaults():
    done = subprocess.run([sys.executable, "-W", "error", str(SCRIPTS / "full_verification.py")],
                          capture_output=True, env=_ENV, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    for line in (b"128 admissible h, 0 failures", b"14284 rows, 0 disagreements",
                 b"all checks passed"):
        assert line in done.stdout


@pytest.mark.usefixtures("time_limit")
def test_full_verification_read_by_head_0_exits_141_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the script writes a byte
    try:
        done = subprocess.run(_script("full_verification", *SMALL), stdout=write_end,
                              stderr=subprocess.PIPE, env=_ENV, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


#: (script, argv, lines it writes before the first SIGINT, seconds to a second SIGINT)
INTERRUPTS = [
    pytest.param("full_verification", ["--h-span", "100000000"], 1, None, id="full_verification"),
    pytest.param("mu_table", ["--h-range", "-100000000..100000000"], 3, None, id="mu_table"),
    # a Ctrl-C pressed twice: the second must not interrupt the exit of the first
    *(pytest.param("full_verification", ["--h-span", "100000000", *parallel], 1, ms / 1000,
                   marks=marks, id=f"full_verification{'-parallel' if parallel else ''}-again-{ms}ms")
      for parallel, marks in [([], ()), (["--parallel", "2"], fork_only)] for ms in (0, 2)),
]


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("target", ["process", "group"])
@pytest.mark.parametrize("name, argv, lines, again_after", INTERRUPTS)
def test_an_interrupted_script_exits_130_with_one_line(name, argv, lines, again_after, target):
    code, err = interrupt(_two_cpu_script(name, *argv), target, lines, again_after)
    assert (code, err) == (130, f"{name}.py: interrupted\n".encode())


README = SCRIPTS.parent / "README.md"

#: A long option as written in the README and in argparse's help: --h, --h-range.
OPTION = re.compile(r"(?<![\w-])--[a-z](?:[\w-]*\w)?")


def readme_section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_only_options_the_parsers_offer(capsys):
    documented = {opt for title in ("CLI", "Scripts")
                  for opt in OPTION.findall(readme_section(title))}
    helps = []
    for command in cli._COMMANDS:
        assert cli.main([command, "--help"]) == 0
        helps.append(capsys.readouterr().out)
    for name in ("full_verification", "mu_table"):
        assert load(name).main(["--help"]) == 0
        helps.append(capsys.readouterr().out)
    offered = {opt for text in helps for opt in OPTION.findall(text)}
    assert "--parallel" in documented
    assert sorted(documented - offered) == []


def test_readme_names_only_variables_the_program_reads():
    source = "".join(path.read_text() for path in SRC_PATH.rglob("*.py"))
    names = set(re.findall(r"MILNOR_MU_\w+", README.read_text()))
    assert sorted(name for name in names if name not in source) == []


#: (entry point, argv with a negative number written with ``_``, the same argv without)
UNDERSCORED = [
    ("milnor-mu", ["invariants", "--h", "-1_000"], ["invariants", "--h", "-1000"]),
    ("milnor-mu", ["verify", "--h-range", "-1_000..-900"], ["verify", "--h-range", "-1000..-900"]),
    ("milnor-mu", ["cases", "--k-range", "-1_0..5"], ["cases", "--k-range", "-10..5"]),
    ("mu_table", ["--h-range", "-1_0..-8"], ["--h-range", "-10..-8"]),
    ("full_verification", ["--h-span", "-1_0"], ["--h-span", "-10"]),
]


@pytest.mark.parametrize("prog, underscored, plain", UNDERSCORED,
                         ids=[argv[0] if prog == "milnor-mu" else prog
                              for prog, argv, _ in UNDERSCORED])
def test_a_negative_number_written_with_underscores_is_a_value(capsys, monkeypatch, prog,
                                                               underscored, plain):
    def run(argv):
        code = cli.main(argv) if prog == "milnor-mu" else run_as_main(monkeypatch, prog, argv)
        return code, *capsys.readouterr()

    assert run(underscored) == run(plain)
    assert "expected one argument" not in run(underscored)[2]


#: Each entry point with a command line that writes to stdout, the sweeps with and without
#: forked workers among them, and each with its help, which argparse would write to
#: stderr when stdout is None.
STDOUT_WRITERS = {
    "quotient": ["-m", "milnor_mu.cli", "quotient", "--h", "8"],
    "verify": ["-m", "milnor_mu.cli", "verify", "--h-range", "-3000..3000", "--format", "csv"],
    "verify-parallel": ["-m", "milnor_mu.cli", "verify", "--h-range", "-3000..3000",
                        "--format", "csv", "--parallel", "2"],
    "mu_table": [str(SCRIPTS / "mu_table.py")],
    "full_verification": [str(SCRIPTS / "full_verification.py"), *SMALL],
    "milnor-mu-help": ["-m", "milnor_mu.cli", "--help"],
    "verify-help": ["-m", "milnor_mu.cli", "verify", "-h"],
    "mu_table-help": [str(SCRIPTS / "mu_table.py"), "-h"],
    "full_verification-help": [str(SCRIPTS / "full_verification.py"), "-h"],
}


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("argv", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS)
def test_a_stdout_closed_at_start_exits_141_quietly(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC_PATH)}
    done = subprocess.run([sys.executable, *argv], stderr=subprocess.PIPE, env=env, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (141, b"")
