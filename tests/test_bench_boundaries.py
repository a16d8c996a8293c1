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
