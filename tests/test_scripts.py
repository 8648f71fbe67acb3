"""The two scripts: exit codes and the shared range and worker-count parsing."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from milnor_mu import quotient, verify
from milnor_mu.qz import AmbiguousResidue, reduce_mod_z

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["--h-span", "300", "--k-span", "300", "--crt-periods", "2"]


class TestFullVerification:
    def test_passing_run_exits_0(self, capsys):
        assert load("full_verification").main(SMALL) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        wrong = AmbiguousResidue.of(reduce_mod_z(Fraction(15, 32)), reduce_mod_z(Fraction(17, 32)))
        monkeypatch.setattr(verify, "direct_mu_set", lambda h: wrong)
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

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
    def test_bad_worker_count_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            load("full_verification").main([*SMALL, "--parallel", value])
        assert exc.value.code == 1
        assert "positive worker count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--h-span", "-1"),
            ("--k-span", "-5"),
            ("--crt-periods", "-1"),
            ("--crt-periods", str(verify._SCAN_LIMIT // 56 + 1)),
        ],
    )
    def test_out_of_range_size_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            load("full_verification").main([*SMALL, flag, value])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    def test_zero_spans_and_largest_crt_periods_are_accepted(self, monkeypatch):
        # scanning every 56m up to the limit takes minutes; only the bound is under test
        base = verify.enumerate_residues(56)
        monkeypatch.setattr(verify, "enumerate_residues", lambda m: base)
        monkeypatch.setattr(verify, "residues_by_crt", lambda m: base)
        argv = ["--h-span", "0", "--k-span", "0", "--crt-periods", str(verify._SCAN_LIMIT // 56)]
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
        assert script.main(["--h-span", "300", "--k-span", "300", "--crt-periods", "12"]) == 2
        assert f"scan vs CRT disagree at m = {per_m}" in capsys.readouterr().out

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
        with pytest.raises(SystemExit) as exc:
            load("mu_table").main(["--h-range", text])
        assert exc.value.code == 1
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
