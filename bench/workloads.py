"""Seeded inputs and per-op correctness checks for the archflow benchmark.

Stdlib only and free of archflow imports, so the orchestrator can generate
and check the cold-CLI workload without loading the package it measures.

Workloads (see README.md for why each exists):

* ``cli-cold``: one-shot ``python -m archflow`` runs over a balanced, seeded
  mix of all five subcommands.
* ``classify-sweep``: in-process ``classify_arch`` calls.
* ``portrait-render``: in-process ``build_portrait`` + ``render_svg`` calls.
"""

from __future__ import annotations

import csv
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-cold", "classify-sweep", "portrait-render")

SUBCOMMANDS = ("analyze", "classify", "trace", "portrait", "sweep")
PRESETS = {"plain": 0.001, "tented": 0.5, "strong": 5.0}

# Inputs are drawn once per run and cycled; each pool outlasts a 60 s run at
# the speeds measured when the benchmark was written.
POOL_SIZE = {"cli-cold": 1000, "classify-sweep": 16000, "portrait-render": 4000}

# Tolerances of the per-op checks.
ANGLE_TOL_DEG = 1e-6  # classify_arch angle against the closed form
PRINTED_ANGLE_TOL_DEG = 5e-5 + ANGLE_TOL_DEG  # CLI prints 4 decimals
H_DRIFT_TOL = 1e-6  # H drift along a trajectory, see relative_drift

# Stop reasons with which the program itself says a run did not finish.
ANNOUNCED_STOPS = ("step_underflow", "max_steps")


def closed_form_angle(theta: float, apex: float, fraction: float) -> float:
    """Crest opening angle in degrees from the level set H = apex^3/3."""
    slope = math.sqrt(2.0 * theta * (1.0 - fraction**3) / (3.0 * apex)) / fraction**2
    return 180.0 - 2.0 * math.degrees(math.atan(slope))


def first_integral(theta: float, x: float, y: float) -> float:
    return 0.5 * theta * x * x + y**3 / 3.0


def category(theta: float) -> str:
    """Arch category under classify_arch's default thresholds."""
    if theta < 0.1:
        return "plain"
    return "tented" if theta < 2.0 else "strong"


# --------------------------------------------------------------------------
# Inputs


class Draws:
    """Seeded draws, stratified per parameter.

    Every STRATA consecutive draws of one parameter land one in each of
    STRATA equal slices of its range, in seeded order. A run then sees nearly
    the same mix of cheap and costly inputs whatever the seed, while the
    inputs themselves still change with it.
    """

    STRATA = 8

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._slices: dict[str, list[int]] = {}

    def uniform(self, name: str, lo: float = 0.0, hi: float = 1.0) -> float:
        slices = self._slices.setdefault(name, [])
        if not slices:
            slices.extend(range(self.STRATA))
            self.rng.shuffle(slices)
        return lo + (hi - lo) * (slices.pop() + self.rng.random()) / self.STRATA

    def log_uniform(self, name: str, lo: float, hi: float) -> float:
        return 10.0 ** self.uniform(name, math.log10(lo), math.log10(hi))

    def choice(self, name: str, options: tuple):
        return options[int(self.uniform(name) * len(options))]

    def integer(self, name: str, lo: int, hi: int) -> int:
        """An integer in [lo, hi]."""
        return lo + int(self.uniform(name) * (hi - lo + 1))


@dataclass(frozen=True)
class CliOp:
    """One ``archflow`` invocation; ``golden`` names the expected output file."""

    argv: tuple[str, ...]
    golden: str | None = None
    out: str | None = None


def _theta_args(draw: Draws, command: str) -> tuple[list[str], str | None]:
    """A preset a third of the time, else theta log-uniform in [1e-3, 10].

    Returns the flags and, for preset runs, the preset name.
    """
    if draw.uniform(f"{command}.preset") < 1.0 / 3.0:
        name = draw.choice(f"{command}.preset_name", tuple(PRESETS))
        return ["--preset", name], name
    return ["--theta", repr(draw.log_uniform(f"{command}.theta", 1e-3, 10.0))], None


def _square(s: float) -> str:
    return f"--window={-s!r},{s!r},{-s!r},{s!r}"


def _cli_op(draw: Draws, command: str) -> CliOp:
    args, preset = _theta_args(draw, command)
    if command == "analyze":
        golden = f"{preset}_analyze.txt" if preset else None
        return CliOp(("analyze", *args, "--format", "machine"), golden)
    if command == "classify":
        if preset is None and draw.uniform("classify.shape") < 0.5:
            args += ["--apex", repr(draw.choice("classify.apex", (0.5, 1.0, 2.0))),
                     "--fraction", repr(draw.uniform("classify.fraction", 0.2, 0.8))]
        golden = f"{preset}_classify.txt" if preset else None
        return CliOp(("classify", *args, "--format", "machine"), golden)
    if command == "trace":
        # tmax 10 is the CLI default. Every forward trajectory escapes to
        # infinity in finite time, so each trace gets a stop box: it leaves
        # the box before the singularity and no op fails. The escape itself
        # is measured by the traced run's escape probe (worker.escape_probe).
        start = f"{draw.uniform('trace.x', -1.0, 1.0)!r},{draw.uniform('trace.y', 0.5, 1.5)!r}"
        args += [f"--start={start}", "--tmax", repr(draw.choice("trace.tmax", (5.0, 10.0))),
                 _square(draw.uniform("trace.window", 1.0, 4.0))]
        return CliOp(("trace", *args, "--out", "op.csv", "--format", "machine"), out="op.csv")
    if command == "portrait":
        if preset is not None:
            return CliOp(("portrait", *args, "--out", "op.svg"), f"{preset}.svg", "op.svg")
        args += [
            _square(4.0 * draw.uniform("portrait.scale", 0.5, 2.0)),
            "--seeds-above", str(draw.integer("portrait.above", 4, 16)),
            "--seeds-below", str(draw.integer("portrait.below", 2, 8)),
        ]
        return CliOp(("portrait", *args, "--out", "op.svg", "--format", "machine"), out="op.svg")
    lo = draw.log_uniform("sweep.theta", 1e-3, 10.0)
    hi = draw.log_uniform("sweep.theta", 1e-3, 10.0)
    return CliOp((
        "sweep", "--theta-from", repr(min(lo, hi)), "--theta-to", repr(max(lo, hi)),
        "--steps", str(draw.integer("sweep.steps", 1, 4)), "--format", "machine",
    ))


def cli_mix(seed: int, size: int) -> list[CliOp]:
    """Blocks of five ops, each block running every subcommand once in shuffled order."""
    draw = Draws(seed)
    ops: list[CliOp] = []
    while len(ops) < size:
        block = list(SUBCOMMANDS)
        draw.rng.shuffle(block)
        ops.extend(_cli_op(draw, command) for command in block)
    return ops[:size]


def classify_inputs(seed: int, size: int) -> list[tuple[float, float, float]]:
    """(theta, apex, fraction): theta log-uniform in [1e-3, 1e2]."""
    draw = Draws(seed)
    return [
        (draw.log_uniform("theta", 1e-3, 1e2), draw.choice("apex", (0.5, 1.0, 2.0)),
         draw.uniform("fraction", 0.2, 0.8))
        for _ in range(size)
    ]


def portrait_inputs(seed: int, size: int) -> list[tuple[float, float, int, int]]:
    """(theta, window scale, seeds above, seeds below) around the default window."""
    draw = Draws(seed)
    return [
        (draw.log_uniform("theta", 1e-3, 10.0), draw.uniform("scale", 0.5, 2.0),
         draw.integer("above", 4, 16), draw.integer("below", 2, 8))
        for _ in range(size)
    ]


def make_inputs(workload: str, seed: int) -> list:
    size = POOL_SIZE[workload]
    if workload == "cli-cold":
        return cli_mix(seed, size)
    if workload == "classify-sweep":
        return classify_inputs(seed, size)
    return portrait_inputs(seed, size)


# --------------------------------------------------------------------------
# Checks


@dataclass
class Tally:
    """Outcome counts of the ops of one run.

    ``failed`` counts every op that raised, exited non-zero or gave a wrong
    output. ``silent`` counts the subset whose wrong output the program did
    not announce (exit 0 and a normal stop reason); any silent failure makes
    the run incorrect. The accuracy maxima cover the ops that passed.
    """

    attempted: int = 0
    failed: int = 0
    silent: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    angle_err_max_deg: float | None = None
    h_drift_max: float | None = None

    def angle(self, err: float) -> None:
        if self.angle_err_max_deg is None or err > self.angle_err_max_deg:
            self.angle_err_max_deg = err

    def drift(self, value: float) -> None:
        if self.h_drift_max is None or value > self.h_drift_max:
            self.h_drift_max = value

    def record(self, failure: str | None, announced: bool = True) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if not announced:
            self.silent += 1
        self.reasons[failure] = self.reasons.get(failure, 0) + 1

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, data: dict) -> "Tally":
        return cls(**data)


def _machine_lines(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _theta_of(argv: tuple[str, ...]) -> float:
    if "--preset" in argv:
        return PRESETS[argv[argv.index("--preset") + 1]]
    return float(argv[argv.index("--theta") + 1])


def _flag(argv: tuple[str, ...], name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def relative_drift(theta: float, h0: float, samples) -> float:
    """Largest |H - h0| over ``samples`` of (x, y, H), each relative to the size of H's terms there.

    The scale |theta*x^2/2| + |y^3/3| is what floating point can resolve H
    against. It keeps the figure meaningful at starts near the separatrix,
    where h0 ~ 0, and on runs that grow large near the finite-time
    singularity, where the terms dwarf h0.
    """
    return max(
        abs(h - h0) / max(abs(0.5 * theta * x * x) + abs(y**3 / 3.0), 1e-300) for x, y, h in samples
    )


def _check_angle(tally: Tally, theta: float, apex: float, fraction: float, printed: float) -> str | None:
    err = abs(printed - closed_form_angle(theta, apex, fraction))
    if err > PRINTED_ANGLE_TOL_DEG:
        return "angle"
    tally.angle(err)
    return None


def check_cli(op: CliOp, returncode: int, stdout: str, workdir: Path, golden_dir: Path, tally: Tally) -> None:
    """Check one CLI invocation's exit code, stdout and output file."""
    if returncode != 0:
        tally.record(f"exit_{returncode}")
        return
    command = op.argv[0]
    output = (workdir / op.out) if op.out else None
    try:
        if op.golden is not None:
            actual = output.read_bytes() if output is not None else stdout.encode()
            same = actual == (golden_dir / op.golden).read_bytes()
            tally.record(None if same else "golden", announced=False)
            return
        lines = _machine_lines(stdout)
        if command == "analyze":
            theta = _theta_of(op.argv)
            ok = (
                lines.get("equilibria") == "1"
                and lines.get("classification") == "degenerate_nonhyperbolic"
                and lines.get("is_cusp") == "true"
                and lines.get("j21") == f"{-theta:.12g}"
            )
            tally.record(None if ok else "analyze", announced=False)
        elif command == "classify":
            theta = _theta_of(op.argv)
            apex = _flag(op.argv, "--apex", 1.0)
            fraction = _flag(op.argv, "--fraction", 0.5)
            failure = _check_angle(tally, theta, apex, fraction, float(lines["opening_angle_deg"]))
            if lines.get("category") != category(theta):
                failure = "category"
            tally.record(failure, announced=False)
        elif command == "sweep":
            rows = [_machine_lines(line.replace(" ", "\n")) for line in stdout.splitlines()]
            failure = None if len(rows) == int(_flag(op.argv, "--steps", 5)) else "sweep_rows"
            for row in rows:
                theta = float(row["theta"])
                failure = _check_angle(tally, theta, 1.0, 0.5, float(row["opening_angle_deg"])) or failure
                if row.get("category") != category(theta):
                    failure = "category"
            tally.record(failure, announced=False)
        elif command == "trace":
            theta = _theta_of(op.argv)
            with output.open(newline="") as handle:
                rows = list(csv.DictReader(handle))
            stop = lines.get("stop_reason")
            samples = [(float(r["x"]), float(r["y"]), float(r["H"])) for r in rows]
            drift = relative_drift(theta, first_integral(theta, *samples[0][:2]), samples)
            if len(rows) != int(lines["samples"]):
                tally.record("trace_csv", announced=False)
            elif stop not in ("time_horizon", "box_exit"):
                tally.record(f"stop_{stop}", announced=stop in ANNOUNCED_STOPS)
            elif not drift <= H_DRIFT_TOL:
                tally.record("h_drift", announced=False)
            else:
                tally.drift(drift)
                tally.record(None)
        elif command == "portrait":
            polylines = ET.parse(output).getroot().findall("{http://www.w3.org/2000/svg}polyline")
            seeds = int(_flag(op.argv, "--seeds-above", 8) + _flag(op.argv, "--seeds-below", 4))
            paths = int(lines["paths"])
            ok = len(polylines) == paths and 2 <= paths <= 2 + seeds
            tally.record(None if ok else "portrait_paths", announced=False)
        else:
            raise ValueError(f"unknown subcommand {command!r}")
    except (OSError, KeyError, ValueError, ET.ParseError) as exc:
        tally.record(f"unreadable_{type(exc).__name__}", announced=False)
    finally:
        if output is not None:
            output.unlink(missing_ok=True)
