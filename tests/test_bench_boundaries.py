"""The benchmark's tracer wraps library functions that it looks up by name.

``bench/tracing.py`` lists them in ``BOUNDARIES`` as (module, attribute,
span name). A library change that removes or renames one would make every
traced benchmark run fail, so each must resolve in the package. The list is
read from the source with ``ast``; ``bench/`` is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _boundaries():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no BOUNDARIES")


def test_every_traced_boundary_resolves_in_the_package():
    boundaries = _boundaries()
    assert boundaries
    for module, attr, _ in boundaries:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_build_portrait_draws_its_separatrix_through_the_traced_name(monkeypatch):
    # The tracer rewraps a boundary in every module that holds it, so the
    # portrait's separatrix counts in the `analysis.trace_separatrix` span
    # only while `build_portrait` calls that name.
    from archflow import ArchSystem, PortraitSpec, build_portrait

    portrait = importlib.import_module("archflow.portrait")
    spec = PortraitSpec(ArchSystem(0.5))
    expected = build_portrait(spec)
    calls = []
    traced = portrait.trace_separatrix

    def counting(*args, **kwargs):
        calls.append(args)
        return traced(*args, **kwargs)

    monkeypatch.setattr(portrait, "trace_separatrix", counting)
    assert build_portrait(spec) == expected
    assert len(calls) == 1
