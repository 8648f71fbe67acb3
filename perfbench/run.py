"""milnor-mu benchmark: four CLI workloads driven through ``cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_seq --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout and called in-process,
one call at a time (a closed loop with one client), with an argv built from
the seed.  Every call's stdout, stderr and exit status are compared with
bytes computed by :mod:`oracle`, which shares no code with the program.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
with times scaled to a nominal host (see :mod:`hostrate`); ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics, the
tracing overhead and the host speed.  The last line of stdout is the result
object; the line before it holds run metadata, unscaled rates included.  See
``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import oracle
from hostrate import REF_RATE, host_rate, sampling
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_seq", "sweep_par", "case_scan", "point_queries")

#: Layers timed in the traced run: every public function the issue names.
LAYERS = [
    "cli.build_parser",
    "cli.main",
    "verify.verify_range",
    "verify.direct_mu_set",
    "verify.check_case",
    "quotient.classify_quotient",
    "quotient.mu_quotient",
    "quotient.fixed_point_contributions",
    "bundles.mu_total_space",
    "bundles.characteristic_data",
    "bundles.disk_bundle_invariants",
    "bundles.is_diffeo_s7",
    "qz.reduce_mod_z",
    "qz.ambiguous",
    "qz.add_ambiguous",
]

#: On sweep_par only these run in the parent; worker-side costs come from sweep_seq.
PARENT_SIDE = ["cli.build_parser", "cli.main", "verify.verify_range"]

# The child times its own imports and probes the host speed on its own CPU,
# so interpreter start-up (and with -I -S any site hooks of the host's
# Python) stays out of the figure.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from hostrate import host_rate
before = host_rate()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import milnor_mu, milnor_mu.cli
took = time.perf_counter() - start
print(took, (before + host_rate()) / 2)
"""


@dataclass(frozen=True)
class Sizes:
    """Sizes of one run; the defaults are the benchmark, the self-test shrinks them."""

    sweep_width: int = 200_001  # h per verify call, about 14.3k admissible rows
    case_width: int = 1_000_000  # k per cases call, times four cases
    query_block: int = 100  # point queries per host-speed figure and per traced block
    setup_reps: int = 11  # fresh interpreters timed for setup_s


@dataclass(frozen=True)
class Op:
    """One CLI call and the exact output it must produce."""

    argv: list[str]
    stdout: str
    stderr: str
    items: int  # rows, k values or queries covered by this call


@dataclass(frozen=True)
class Call:
    seconds: float  # wall time of the call
    items: int
    ok: bool
    host: float = 0.0  # reference-loop rate measured around the call

    @property
    def adjusted(self) -> float:
        """Wall seconds scaled to a host that runs the reference loop at REF_RATE."""
        return self.seconds * self.host / REF_RATE


def sweep_ops(rng: random.Random, sizes: Sizes, workers: int | None) -> Iterator[Op]:
    w = sizes.sweep_width
    extra = [] if workers is None else ["--parallel", str(workers)]
    while True:
        h_min = -(w // 2) + rng.randrange(-(w // 4), w // 4 + 1)
        h_max = h_min + w - 1
        out, err, rows = oracle.sweep_csv(h_min, h_max)
        argv = ["verify", "--h-range", f"{h_min}..{h_max}", "--format", "csv", *extra]
        yield Op(argv, out, err, rows)


def case_ops(rng: random.Random, sizes: Sizes) -> Iterator[Op]:
    w = sizes.case_width
    table = oracle.cases_table()
    while True:
        k_min = -(w // 2) + rng.randrange(-(w // 4), w // 4 + 1)
        yield Op(["cases", "--k-range", f"{k_min}..{k_min + w - 1}"], table, "", 4 * w)


def point_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        digits = rng.randint(1, 18)  # |h| is log-uniform below 10^18
        h = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
        if rng.randrange(2):
            h += rng.choice(oracle.RESIDUES) - h % 56
        if rng.randrange(2):
            yield Op(["quotient", "--h", str(h), "--format", "json"],
                     oracle.quotient_json(h), "", 1)
        else:
            yield Op(["invariants", "--h", str(h), "--format", "json"],
                     oracle.invariants_json(h), "", 1)


def workers_for(workload: str) -> int | None:
    return min(2, os.cpu_count() or 1) if workload == "sweep_par" else None


def make_ops(workload: str, seed: int, sizes: Sizes) -> Iterator[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "case_scan":
        return case_ops(rng, sizes)
    if workload == "point_queries":
        return point_ops(rng)
    return sweep_ops(rng, sizes, workers_for(workload))


def cli_runner(argv: list[str]) -> int:
    """Call the program's public entry point, looked up at call time."""
    return sys.modules["milnor_mu.cli"].main(argv)


def call(op: Op, runner: Callable[[list[str]], int]) -> Call:
    """Time one CLI call and check its exit status and output bytes."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = runner(list(op.argv))
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code = None
    seconds = time.perf_counter() - start
    ok = code == 0 and out.getvalue() == op.stdout and err.getvalue() == op.stderr
    return Call(seconds, op.items, ok)


def drive(ops: Iterator[Op], seconds: float, runner: Callable, block: int) -> list[Call]:
    """Closed loop: blocks of calls until ``seconds`` have passed (at least one).

    Each call of a block carries the mean host speed sampled while the block
    ran (one call, or ``Sizes.query_block`` point queries).
    """
    calls: list[Call] = []
    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    with sampling(samples):
        while not calls or time.perf_counter() < deadline:
            batch = [call(next(ops), runner) for _ in range(block)]
            if not samples:  # a block shorter than the sampling interval
                samples.append(host_rate())
            host = statistics.fmean(samples)
            samples.clear()
            calls.extend(replace(c, host=host) for c in batch)
    return calls


def drive_alternating(ops: Iterator[Op], seconds: float, runner: Callable,
                      tracer: Tracer, only: list[str] | None,
                      block: int) -> tuple[list[Call], list[Call]]:
    """Alternate blocks of untraced and traced calls, so both see the same host."""
    untraced: list[Call] = []
    traced: list[Call] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.extend(drive(ops, 0, runner, block))
        tracer.install(only)
        try:
            traced.extend(drive(ops, 0, runner, block))
        finally:
            tracer.uninstall()
    return untraced, traced


def work_per_s(calls: list[Call], adjusted: bool = False) -> float:
    seconds = sum(c.adjusted if adjusted else c.seconds for c in calls)
    return sum(c.items for c in calls) / seconds


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(reps: int) -> list[Call]:
    """Fresh interpreters importing milnor_mu and milnor_mu.cli, one Call each."""
    samples = []
    for _ in range(reps):
        child = subprocess.run(
            [sys.executable, "-I", "-S", "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, check=True, capture_output=True, text=True)
        took, host = map(float, child.stdout.split())
        samples.append(Call(took, 1, True, host))
    return samples


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def aliases(workload: str, calls: list[Call]) -> dict[str, float]:
    """Unadjusted rate and latencies under the names the workloads speak of."""
    rate = work_per_s(calls)
    if workload == "case_scan":
        return {"k_per_s": rate}
    if workload == "point_queries":
        times = [c.seconds * 1e6 for c in calls]
        return {"queries_per_s": rate, "query_p50_us": statistics.median(times),
                "query_p99_us": quantile(times, 99)}
    return {"rows_per_s": rate}


def block_for(workload: str, sizes: Sizes) -> int:
    return sizes.query_block if workload == "point_queries" else 1


def run_untraced(workload: str, seed: int, seconds: float, sizes: Sizes,
                 runner: Callable) -> tuple[list[Call], dict, dict]:
    setup = measure_setup(sizes.setup_reps)
    ops = make_ops(workload, seed, sizes)
    calls = drive(ops, seconds, runner, block_for(workload, sizes))
    times_ms = [c.adjusted * 1e3 for c in calls]
    metrics = {
        "setup_s": statistics.median(c.adjusted for c in setup),
        "adj_work_per_s": work_per_s(calls, adjusted=True),
        "adj_call_p50_ms": statistics.median(times_ms),
        "adj_call_p99_ms": quantile(times_ms, 99),
        "peak_rss_mb": peak_rss_mb(with_children=workers_for(workload) is not None),
    }
    meta = {"setup_samples_s": [c.seconds for c in setup],
            "host.ref_ops_per_s": statistics.median(c.host for c in calls),
            **aliases(workload, calls)}
    return calls, metrics, meta


def run_traced(workload: str, seed: int, seconds: float, sizes: Sizes,
               runner: Callable) -> tuple[list[Call], dict, dict]:
    tracer = Tracer(LAYERS)
    sweep = {"rows": 0, "scanned": 0, "last": None}

    def observe_verify(args: tuple, rows: tuple) -> None:
        sweep["rows"] += len(rows)
        sweep["scanned"] += args[1] - args[0] + 1
        sweep["last"] = rows

    tracer.observers["verify.verify_range"] = observe_verify
    workers = workers_for(workload)
    only = PARENT_SIDE if workers is not None else None
    ops = make_ops(workload, seed, sizes)
    untraced, traced = drive_alternating(ops, seconds, runner, tracer, only,
                                         block_for(workload, sizes))
    calls = untraced + traced

    metrics: dict[str, float] = {"host.ref_ops_per_s": statistics.median(c.host for c in calls)}
    mains = tracer.count("cli.main")
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.count(layer) / mains
        metrics[f"{layer}.self_us"] = tracer.self_us(layer)
    rows = sweep["rows"]
    metrics["verify.scan_ratio"] = rows / sweep["scanned"] if sweep["scanned"] else 0.0
    metrics["qz.calls_per_row"] = tracer.count("qz.reduce_mod_z") / rows if rows else 0.0
    metrics["verify.fanout.result_bytes"] = (
        len(pickle.dumps(sweep["last"])) if sweep["last"] is not None else 0)
    sweep["last"] = None
    metrics["verify.fanout.efficiency"] = 0.0
    notes = {}
    if workers is not None:
        # the same window once more without --parallel gives the sequential wall
        par_op = next(ops)
        seq_op = Op(par_op.argv[:-2], par_op.stdout, par_op.stderr, par_op.items)
        par, seq = call(par_op, runner), call(seq_op, runner)
        calls += [par, seq]
        metrics["verify.fanout.efficiency"] = seq.seconds / (workers * par.seconds)
        notes["inner_layers"] = "sweep_par traces the parent side only; see sweep_seq"
    else:
        notes["verify.fanout"] = "efficiency is measured on sweep_par only"
    metrics["trace.untraced.work_per_s"] = work_per_s(untraced)
    metrics["trace.traced.work_per_s"] = work_per_s(traced)
    metrics["trace.untraced.call_p50_ms"] = statistics.median(c.seconds * 1e3 for c in untraced)
    metrics["trace.traced.call_p50_ms"] = statistics.median(c.seconds * 1e3 for c in traced)
    uncalled = [layer for layer in LAYERS if not tracer.count(layer)]
    if uncalled:
        notes["zero"] = f"{workload} makes no call to: {', '.join(uncalled)}"
    spans_file = OUT_DIR / f"spans-{workload}-{seed}.json"
    tracer.dump(spans_file)
    meta = {"traced_calls": len(traced), "untraced_calls": len(untraced),
            "spans_file": str(spans_file.relative_to(ROOT)), "notes": notes,
            **aliases(workload, untraced)}
    return calls, metrics, meta


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), runner: Callable = cli_runner) -> tuple[dict, dict]:
    """(result, metadata) of one benchmark run; the program must be imported."""
    measure = run_traced if trace else run_untraced
    calls, metrics, extra = measure(workload, seed, seconds, sizes, runner)
    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    failed = sum(not c.ok for c in calls)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
        "sizes": asdict(sizes),
        "workers": workers_for(workload),
        "ops_failed_frac": failed / len(calls),
        **extra,
    }
    return result, meta


def load_program() -> None:
    """Import milnor_mu from this checkout's src/, never from elsewhere."""
    if not (SRC / "milnor_mu" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'milnor_mu'}")
    sys.path.insert(0, str(SRC))
    import milnor_mu.cli

    if SRC.resolve() not in Path(milnor_mu.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported milnor_mu from {milnor_mu.cli.__file__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    load_program()
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
