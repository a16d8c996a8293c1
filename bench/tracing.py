"""Spans at archflow's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each public layer function, in every archflow
module that refers to it, with a wrapper that records a span: name, start,
end, parent span and op id. ``ArchSystem.field_at`` only counts. Spans stay
in memory; ``write`` dumps them once the run is over, and
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter_ns

MODULES = (
    "archflow",
    "archflow.cli",
    "archflow.analysis",
    "archflow.integrate",
    "archflow.portrait",
    "archflow.systems",
)

# (module defining the function, attribute, span name)
BOUNDARIES = (
    ("archflow.cli", "main", "cli.main"),
    ("archflow.cli", "parse_invocation", "cli.parse_invocation"),
    ("archflow.analysis", "classify_arch", "analysis.classify_arch"),
    ("archflow.analysis", "opening_angle", "analysis.opening_angle"),
    ("archflow.analysis", "trace_separatrix", "analysis.trace_separatrix"),
    ("archflow.analysis", "find_equilibria", "analysis.find_equilibria"),
    ("archflow.analysis", "sector_census", "analysis.sector_census"),
    ("archflow.integrate", "integrate", "integrate.integrate"),
    ("archflow.integrate", "crossing", "integrate.crossing"),
    ("archflow.portrait", "build_portrait", "portrait.build_portrait"),
    ("archflow.portrait", "render_svg", "portrait.render_svg"),
    ("archflow.portrait", "export_trajectory_csv", "portrait.export_csv"),
)

# Fixed here rather than read from archflow, so the metric names stay stable;
# a stop reason added later counts under "other".
STOP_REASONS = ("time_horizon", "box_exit", "max_steps", "equilibrium_reached", "step_underflow")


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    field_evals: int
    detail: object = None  # integrate: (samples, stop_reason); render_svg: bytes


def _detail(name: str, result: object) -> object:
    if name == "integrate.integrate":
        return len(result), result.stop_reason
    if name == "portrait.render_svg":
        return len(result.encode())
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.field_evals = 0
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            evals = self.field_evals
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                detail = _detail(name, result) if result is not None else None
                spans[sid] = Span(name, start, end, parent, self.op, self.field_evals - evals, detail)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for home, attr, name in BOUNDARIES:
            original = getattr(importlib.import_module(home), attr)
            wrapped = self.span(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

        arch = importlib.import_module("archflow.systems").ArchSystem
        field_at = arch.field_at

        def counted(system, x, y):
            self.field_evals += 1
            return field_at(system, x, y)

        self._undo.append((arch, "field_at", field_at))
        arch.field_at = counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("id,parent,op,name,start_ns,end_ns,field_evals\n")
            for sid, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                handle.write(f"{sid},{parent},{s.op},{s.name},{s.start},{s.end},{s.field_evals}\n")


def exact_counters(spans: list[Span], ops: int) -> dict[str, int]:
    """Machine-independent work counts of ops ``0 .. ops-1``."""
    counts = {
        "field_evals": 0,
        "integrate_calls": 0,
        "integrate_samples": 0,
        "integrate_field_evals": 0,
        "crossing_calls": 0,
        "crossing_reintegrations": 0,
        "svg_bytes": 0,
    }
    counts.update({f"stop_reason.{r}": 0 for r in (*STOP_REASONS, "other")})
    for s in spans:
        if s.op >= ops:
            continue
        if s.parent is None:
            counts["field_evals"] += s.field_evals
        if s.name == "integrate.integrate":
            counts["integrate_calls"] += 1
            counts["integrate_field_evals"] += s.field_evals
            if s.detail is not None:
                samples, reason = s.detail
                counts["integrate_samples"] += samples
                counts[f"stop_reason.{reason if reason in STOP_REASONS else 'other'}"] += 1
            if s.parent is not None and spans[s.parent].name == "integrate.crossing":
                counts["crossing_reintegrations"] += 1
        elif s.name == "integrate.crossing":
            counts["crossing_calls"] += 1
        elif s.name == "portrait.render_svg" and s.detail is not None:
            counts["svg_bytes"] += s.detail
    return counts


def layer_metrics(spans: list[Span], ops: int, counters: dict[str, int], counter_ops: int) -> dict[str, float]:
    """Per-layer figures: times per op over all ``ops``, counts per op over the first ``counter_ops``."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for sid, s in enumerate(spans):
        duration = s.end - s.start
        total_ns[s.name] = total_ns.get(s.name, 0) + duration
        self_ns[s.name] = self_ns.get(s.name, 0) + duration - child_ns[sid]

    def per_op_ms(table: dict[str, int], name: str) -> float:
        return table.get(name, 0) / 1e6 / ops

    c, n = counters, counter_ops
    metrics = {
        "cli.parse_ms_per_op": per_op_ms(total_ns, "cli.parse_invocation"),
        "cli.main_ms_per_op": per_op_ms(total_ns, "cli.main"),
        "systems.field_evals_per_op": c["field_evals"] / n,
        "integrate.calls_per_op": c["integrate_calls"] / n,
        "integrate.self_ms_per_op": per_op_ms(self_ns, "integrate.integrate"),
        "integrate.samples_per_op": c["integrate_samples"] / n,
        "integrate.evals_per_sample": (
            c["integrate_field_evals"] / c["integrate_samples"] if c["integrate_samples"] else 0.0
        ),
        "integrate.crossing_calls_per_op": c["crossing_calls"] / n,
        "integrate.crossing_self_ms_per_op": per_op_ms(self_ns, "integrate.crossing"),
        "integrate.crossing_reintegrations_per_call": (
            c["crossing_reintegrations"] / c["crossing_calls"] if c["crossing_calls"] else 0.0
        ),
        "analysis.opening_angle_self_ms_per_op": per_op_ms(self_ns, "analysis.opening_angle"),
        "analysis.trace_separatrix_ms_per_op": per_op_ms(total_ns, "analysis.trace_separatrix"),
        "portrait.build_portrait_self_ms_per_op": per_op_ms(self_ns, "portrait.build_portrait"),
        "portrait.render_svg_ms_per_op": per_op_ms(total_ns, "portrait.render_svg"),
        "portrait.svg_bytes_per_op": c["svg_bytes"] / n,
        "portrait.export_csv_ms_per_op": per_op_ms(total_ns, "portrait.export_csv"),
    }
    for reason in (*STOP_REASONS, "other"):
        metrics[f"integrate.stop_reason.{reason}"] = c[f"stop_reason.{reason}"]
    return metrics
