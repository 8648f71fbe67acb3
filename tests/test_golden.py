"""Every command's output, byte for byte, against the digests in ``golden.json``.

Each case is one run, in this process, of the CLI's or a script's ``main``:
its digest is the sha256 of its stdout and of its stderr, and its exit
status.  ``--help`` and usage errors are left out, since argparse words them
differently from one Python version to the next, and so is the wall time
that ends ``full_verification.py``'s stdout.  When a change of output is
meant, write the digests again from the code on the path with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from conftest import fork_only
from test_faults import oracle_off_on_odd_h
from test_scripts import load

from milnor_mu import cli, verify

pytestmark = pytest.mark.usefixtures("two_usable_cpus")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
FORMATS = ("table", "json", "csv")
FAULTS = {"oracle_off_on_odd_h": oracle_off_on_odd_h}
VERIFY_WINDOWS = ["-56..56", "2..7", "-100000..100000", "-56..1000000",
                  f"{10**18 - 3000}..{10**18 + 3000}"]


MAINS = {"milnor-mu": cli.main, "full_verification.py": load("full_verification").main,
         "mu_table.py": load("mu_table").main}


def cases():
    """Each case as (fault, program, argv): the fault is a key of ``FAULTS`` or None."""
    for fmt in FORMATS:
        for h in (8, 3, 10**18 + 1):
            yield None, "milnor-mu", ("invariants", "--h", str(h), "--format", fmt)
            yield None, "milnor-mu", ("quotient", "--h", str(h), "--format", fmt)
        for modulus in (56, 112):
            yield None, "milnor-mu", ("enumerate", "--modulus", str(modulus), "--format", fmt)
        yield None, "milnor-mu", ("cases", "--k-range", "-5..5", "--format", fmt)
    for pooled in ((), ("--parallel", "2")):
        for fmt in FORMATS:
            for window in VERIFY_WINDOWS:
                yield None, "milnor-mu", ("verify", "--h-range", window, "--format", fmt, *pooled)
            yield ("oracle_off_on_odd_h", "milnor-mu",
                   ("verify", "--h-range", "-3000..3000", "--format", fmt, *pooled))
        yield None, "full_verification.py", pooled
    yield None, "mu_table.py", ()


def case_id(fault, program, argv):
    return f"{fault + ': ' if fault else ''}{' '.join([program, *argv])}"


def digest(patch, fault, program, argv):
    """The digest of one case run here, under ``fault`` patched in by ``patch``."""
    if fault:
        FAULTS[fault](patch)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = MAINS[program](list(argv))
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not (program == "full_verification.py" and line.startswith("total ")))
    return {"stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(), "exit": code}


CASES = list(cases())


def test_every_case_has_a_digest_and_every_digest_a_case():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", [
    pytest.param(case, id=case_id(*case), marks=[fork_only] if "--parallel" in case[2] else [])
    for case in CASES
])
def test_output_matches_its_golden_digest(monkeypatch, case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digest(monkeypatch, *case) == golden[case_id(*case)]


if __name__ == "__main__":
    golden = {}
    for case in CASES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_usable_cpus", lambda: 2)  # as the two_usable_cpus fixture does
            golden[case_id(*case)] = digest(patch, *case)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
