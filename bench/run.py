"""archflow benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 38 --trace 0

Workloads: cli-cold, classify-sweep, portrait-render (see README.md).
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run and the tracing overhead.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The benchmark is one client in a closed loop: each op starts when the last
one has returned. It exits 2 without a result when the checkout lacks
BENCHMARK.json, the archflow sources or the golden files the checks compare
against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORKDIR = ROOT / ".bench_work"
EXE = sys.executable
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}

PROBES = 6  # fresh interpreters behind setup_s and each cli.* probe, after a warm-up
CHUNKS = 8  # throughput is the median over this many consecutive slices of a run
CLI_TIMEOUT_S = 60
IMPORT_PROBE = "import time; t = time.perf_counter(); import archflow; print(time.perf_counter() - t)"


def preflight(workload: str) -> str | None:
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    if not (SRC / "archflow" / "__init__.py").is_file():
        return f"no archflow sources at {SRC}"
    if workload == "cli-cold":
        for preset in workloads.PRESETS:
            for name in (f"{preset}_analyze.txt", f"{preset}_classify.txt", f"{preset}.svg"):
                if not (GOLDEN / name).is_file():
                    return f"missing golden file {GOLDEN / name}"
    return None


def run_worker(mode: str, workload: str, seed: int, seconds: float = 0.0) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [EXE, str(BENCH / "worker.py"), mode, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=seconds + 90,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_to_ready(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    start = perf_counter()
    with subprocess.Popen(
        [EXE, str(BENCH / "worker.py"), "setup", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup worker for {workload} failed (exit {proc.returncode})")
    return elapsed


def median_of_runs(probe) -> float:
    """Median of PROBES calls of ``probe`` after one unmeasured warm-up call."""
    probe()
    return statistics.median(probe() for _ in range(PROBES))


def subprocess_ms(argv: list[str]) -> float:
    start = perf_counter_ns()
    subprocess.run(argv, cwd=ROOT, env=ENV, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
    return (perf_counter_ns() - start) / 1e6


def import_ms() -> float:
    proc = subprocess.run([EXE, "-c", IMPORT_PROBE], cwd=ROOT, env=ENV, check=True,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return float(proc.stdout) * 1e3


def chunked_throughput(latencies_ns: list[int]) -> float:
    """Median over CHUNKS consecutive slices of the run of ops per second inside archflow.

    The median shrugs off a slice slowed by other load on the machine.
    """
    k = min(CHUNKS, len(latencies_ns))
    edges = [len(latencies_ns) * i // k for i in range(k + 1)]
    return statistics.median((b - a) / (sum(latencies_ns[a:b]) / 1e9) for a, b in zip(edges, edges[1:]))


def cli_loop(seed: int, seconds: float, tally: workloads.Tally) -> list[int]:
    """Sequential ``python -m archflow`` runs for ``seconds``; returns per-call ns."""
    mix = workloads.make_inputs("cli-cold", seed)
    latencies: list[int] = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        op = mix[i % len(mix)]
        i += 1
        start = perf_counter_ns()
        try:
            proc = subprocess.run([EXE, "-m", "archflow", *op.argv], cwd=WORKDIR, env=ENV,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            latencies.append(perf_counter_ns() - start)
            tally.record("timeout")
            continue
        latencies.append(perf_counter_ns() - start)
        workloads.check_cli(op, proc.returncode, proc.stdout, WORKDIR, GOLDEN, tally)
    return latencies


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, workloads.Tally, list[str]]:
    # Half the set-up probes run before the loop and half after it, so that
    # one stretch of unusual machine load does not set setup_s alone.
    def ready() -> float:
        return time_to_ready(workload, seed)

    ready()  # unmeasured warm-up: file cache, bytecode
    setup = [ready() for _ in range(PROBES // 2)]
    if workload == "cli-cold":
        tally = workloads.Tally()
        latencies = cli_loop(seed, seconds, tally)
    else:
        result = run_worker("run", workload, seed, seconds)
        latencies, tally = result["latencies_ns"], workloads.Tally.from_json(result["tally"])
    setup += [ready() for _ in range(PROBES - PROBES // 2)]
    ms = sorted(v / 1e6 for v in latencies)
    n = len(ms)
    rank90 = math.ceil(0.9 * n)  # nearest-rank percentile
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p90_ms": ms[rank90 - 1],
        "peak_rss_mb": peak_rss_mb,
    }
    angle = tally.angle_err_max_deg
    drift = tally.h_drift_max
    notes = [
        f"setup_s: median of {PROBES} fresh interpreters (import archflow + inputs), half after the loop",
        f"latency_p90_ms: nearest rank over n={n} ops, {n - rank90} samples beyond it",
        "peak_rss_mb: max RSS of any child process (RUSAGE_CHILDREN)",
        "not gated (see bench/README.md):",
        f"throughput_ops_per_s = {chunked_throughput(latencies):.6g} 1/s "
        f"(median of {CHUNKS} slices; {n} ops over {sum(ms) / 1e3:.3f} s inside archflow)",
        f"latency_p50_ms = {statistics.median(ms):.6g} ms (n={n})",
        f"failed_ops_ratio = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted}) "
        f"reasons={tally.reasons}",
        f"angle_err_max_deg = {'n/a' if angle is None else f'{angle:.3g}'} deg (passing ops)",
        f"h_drift_max = {'n/a' if drift is None else f'{drift:.3g}'} (relative, passing ops)",
    ]
    return metrics, tally, notes


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, workloads.Tally, list[str]]:
    interpreter = median_of_runs(lambda: subprocess_ms([EXE, "-c", "pass"]))
    imported = median_of_runs(import_ms)
    traced = run_worker("trace", workload, seed, seconds)
    again = run_worker("counters", workload, seed)
    tally = workloads.Tally.from_json(traced["tally"])
    metrics = {"cli.interpreter_ms": interpreter, "cli.import_ms": imported, **traced["metrics"]}
    notes = [
        f"traced ops={traced['traced_ops']} spans={traced['spans']}; spans written to {WORKDIR.name}/",
        f"trace.throughput_ratio = traced / untraced throughput over the same ops: "
        f"{traced['metrics']['trace.throughput_ratio']:.4f}",
        f"exact counters (first ops of the traced run): {traced['counters']}",
    ]
    if again["counters"] != traced["counters"]:
        tally.silent += 1  # same inputs, different work: a wrong result nobody announced
        notes.append(f"COUNTER MISMATCH between two same-seed runs: {again['counters']}")
    else:
        notes.append("exact counters repeat identically in a second same-seed process")
    return metrics, tally, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problem = preflight(args.workload)
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    WORKDIR.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    metrics, tally, notes = measure(args.workload, args.seed, args.seconds)
    if set(metrics) != set(listed):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json lists {sorted(listed)}")

    print(f"archflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {listed[name]}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": tally.silent == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": listed[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
