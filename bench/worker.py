"""In-process side of the archflow benchmark; run.py starts it in a fresh interpreter.

Usage: worker.py {setup,run,trace,counters} --workload W --seed N [--seconds S]

* ``setup``: import archflow and generate the inputs, print ``ready``, exit.
* ``run``: closed loop of untraced ops for S seconds; prints latencies.
* ``trace``: S/2 seconds untraced, then S/2 seconds with spans recorded;
  prints per-layer metrics and the exact counters of the first
  COUNTER_OPS traced ops.
* ``counters``: only those COUNTER_OPS traced ops, to check the counters repeat.

Every mode ends by printing one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from archflow import analysis, cli, portrait  # noqa: E402  (this checkout's src/)
from archflow.systems import ArchSystem, Window  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".bench_work"
COUNTER_OPS = 100  # ops behind the exact counters; about 20 of each subcommand on cli-cold
SVG_NS = "{http://www.w3.org/2000/svg}"


def classify_op(inp):
    theta, apex, fraction = inp
    return analysis.classify_arch(theta, apex=apex, fraction=fraction)


def check_classify(inp, result, tally: workloads.Tally) -> None:
    theta, apex, fraction = inp
    err = abs(result.opening_angle_deg - workloads.closed_form_angle(theta, apex, fraction))
    if err > workloads.ANGLE_TOL_DEG:
        tally.record("angle", announced=False)
    elif result.category != workloads.category(theta):
        tally.record("category", announced=False)
    else:
        tally.angle(err)
        tally.record(None)


def portrait_spec(inp) -> portrait.PortraitSpec:
    theta, scale, above, below = inp
    s = 4.0 * scale
    return portrait.PortraitSpec(
        system=ArchSystem(theta), window=Window(-s, s, -s, s), seeds_above=above, seeds_below=below
    )


def portrait_op(inp):
    spec = portrait_spec(inp)
    scene = portrait.build_portrait(spec)
    return spec, scene, portrait.render_svg(scene)


_seed_points = portrait.seed_points  # the checker's own reference, never traced


def check_portrait(inp, result, tally: workloads.Tally) -> None:
    spec, scene, svg = result
    theta = spec.system.theta
    seeds = _seed_points(spec)
    try:
        polylines = ET.fromstring(svg).findall(f"{SVG_NS}polyline")
    except ET.ParseError:
        tally.record("svg_parse", announced=False)
        return
    if not (len(polylines) == len(scene.paths) == 2 + len(seeds)):
        tally.record("portrait_paths", announced=False)
        return
    drift = 0.0
    for (seed, _role), path in zip(seeds, scene.paths[2:]):
        samples = [(p.x, p.y, workloads.first_integral(theta, p.x, p.y)) for p in path.points]
        h0 = workloads.first_integral(theta, seed.x, seed.y)
        drift = max(drift, workloads.relative_drift(theta, h0, samples))
    if not drift <= workloads.H_DRIFT_TOL:
        tally.record("h_drift", announced=False)
        return
    tally.drift(drift)
    tally.record(None)


def cli_op(op: workloads.CliOp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def check_cli(op, result, tally: workloads.Tally) -> None:
    code, stdout = result
    workloads.check_cli(op, code, stdout, WORKDIR, ROOT / "tests" / "golden", tally)


OPS = {
    "cli-cold": (cli_op, check_cli),
    "classify-sweep": (classify_op, check_classify),
    "portrait-render": (portrait_op, check_portrait),
}


def closed_loop(workload, inputs, seconds, tally, tracer=None, min_ops=0):
    """Run ops back to back for ``seconds`` (and at least ``min_ops``); return per-op ns.

    Only the archflow calls are timed; checks run between ops.
    """
    op, check = OPS[workload]
    if tracer is not None:
        op = tracer.span("op", op)
    latencies: list[int] = []
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.op = i
        start = perf_counter_ns()
        try:
            result = op(inp)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            latencies.append(perf_counter_ns() - start)
            tally.record(f"raised_{type(exc).__name__}")
        else:
            latencies.append(perf_counter_ns() - start)
            check(inp, result, tally)
        i += 1
    return latencies


def field_at_ns() -> float:
    """Median over 5 repeats of ns per untraced ArchSystem.field_at call, loop included."""
    field_at = ArchSystem(0.5).field_at
    calls = 100_000
    samples = []
    for _ in range(5):
        start = perf_counter_ns()
        for _ in range(calls):
            field_at(0.3, 0.7)
        samples.append((perf_counter_ns() - start) / calls)
    return statistics.median(samples)


ESCAPE_PROBE = ("trace", "--theta", "0.5", "--out", "escape.csv", "--format", "machine")


def escape_probe() -> int:
    """1 if the CLI's default trace reports its finite-time escape as ``step_underflow``, else 0.

    With tmax 10 the default trajectory reaches the singularity of
    ``y'' = -theta*y^2``. The workloads keep every op clear of it, so this
    one untraced call, outside the op tally, is where the escape shows.
    """
    code, stdout = cli_op(workloads.CliOp(ESCAPE_PROBE))
    Path("escape.csv").unlink(missing_ok=True)
    return int(code == 0 and "stop_reason=step_underflow" in stdout.splitlines())


def traced_loop(workload, inputs, seconds, tally):
    """``closed_loop`` with spans recorded, over at least COUNTER_OPS ops."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        latencies = closed_loop(workload, inputs, seconds, tally, tracer, min_ops=COUNTER_OPS)
    finally:
        tracer.uninstall()
    return latencies, tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "counters"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    inputs = workloads.make_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    WORKDIR.mkdir(exist_ok=True)
    os.chdir(WORKDIR)
    tally = workloads.Tally()
    if args.mode == "run":
        latencies = closed_loop(args.workload, inputs, args.seconds, tally)
        print(json.dumps({"latencies_ns": latencies, "tally": tally.to_json()}))
        return 0
    if args.mode == "counters":
        _, tracer = traced_loop(args.workload, inputs, 0.0, tally)
        counters = tracing.exact_counters(tracer.spans, COUNTER_OPS)
        print(json.dumps({"counters": counters, "tally": tally.to_json()}))
        return 0

    untraced = closed_loop(args.workload, inputs, args.seconds / 2, tally)
    traced, tracer = traced_loop(args.workload, inputs, args.seconds / 2, tally)
    spans = tracer.spans
    counters = tracing.exact_counters(spans, COUNTER_OPS)
    metrics = tracing.layer_metrics(spans, len(traced), counters, COUNTER_OPS)
    common = min(len(untraced), len(traced))
    metrics["trace.throughput_ratio"] = sum(untraced[:common]) / sum(traced[:common])
    metrics["systems.field_at_ns"] = field_at_ns()
    metrics["integrate.escape_probe_step_underflow"] = escape_probe()
    tracer.write(WORKDIR / f"spans-{args.workload}.csv")
    print(json.dumps({
        "metrics": metrics,
        "counters": counters,
        "traced_ops": len(traced),
        "spans": len(spans),
        "tally": tally.to_json(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
