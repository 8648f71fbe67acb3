"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload briefly in both modes and checks that the outputs are
judged correct, that every metric named in BENCHMARK.json is reported and
that tracing leaves no wrapper behind.  Then it hands the checker calls with
corrupted stdout, a nonzero exit status or an exception, and checks that
every one of them is counted as failed.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import sys

import oracle
import run

TOY = run.Sizes(sweep_width=2_001, case_width=1_000, query_block=4, setup_reps=1)
SECONDS = 0.2


def corrupt_stdout(argv: list[str]) -> int:
    code = run.cli_runner(argv)
    print("corrupted")
    return code


def nonzero_exit(argv: list[str]) -> int:
    run.cli_runner(argv)
    return 2


def crash(argv: list[str]) -> int:
    raise RuntimeError("injected fault")


def main() -> int:
    run.load_program()
    import milnor_mu.cli
    import milnor_mu.qz

    originals = (milnor_mu.cli.main, milnor_mu.qz.reduce_mod_z)
    problems = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    check(json.loads(oracle.quotient_json(8)) == {
        "h": 8, "a1": ["-15/16", "15/16"], "a2": "1", "equivariant_signature": 1,
        "mu_quotient": ["1/32", "31/32"], "verdict": "RP7",
    }, "oracle: quotient record for h=8")
    check(json.loads(oracle.invariants_json(2))["mu"] == "1/28", "oracle: mu(M_2) = 1/28")
    check(oracle.admissible_in(-56, 56) == [-56, -55, -48, -7, 0, 1, 8, 49, 56],
          "oracle: admissible h in -56..56")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _ = run.run(workload, 7, SECONDS, trace, TOY)
            mode = "traced" if trace else "untraced"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} {mode}: every call correct")
            check(set(result["metrics"]) == set(run.declared_metrics(trace)),
                  f"{workload} {mode}: every declared metric reported")
            check((milnor_mu.cli.main, milnor_mu.qz.reduce_mod_z) == originals,
                  f"{workload} {mode}: original functions restored")
        for fault in (corrupt_stdout, nonzero_exit, crash):
            result, _ = run.run(workload, 7, SECONDS, False, TOY, fault)
            check(not result["correct"] and result["failed"] == result["attempted"],
                  f"{workload}: {fault.__name__} counted as failed")
    print(f"{len(problems)} failed check(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
