"""The runtime needs nothing beyond the standard library, and starts light.

numpy is no dependency at all, and ``dataclasses`` (with the ``inspect``
it imports) is left out because its import and code generation cost every
CLI call. A child interpreter first checks that ``import archflow.cli``
pulls in none of them, then blocks numpy and ``dataclasses`` with
``sys.modules[name] = None`` so that any import of them, even one hidden
inside a function, raises. Every subcommand and the equilibrium search then
run in that interpreter.
"""

import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

CHILD = """
import contextlib
import io
import sys

import archflow.cli

for name in ("numpy", "dataclasses", "inspect"):
    assert name not in sys.modules, "import archflow.cli imported " + name
sys.modules["numpy"] = None
sys.modules["dataclasses"] = None

from archflow import ArchSystem, Point2, Window, find_equilibria

runs = {
    "analyze": ["analyze", "--preset", "tented", "--format", "machine"],
    "classify": ["classify", "--preset", "tented", "--format", "machine"],
    "trace": ["trace", "--preset", "tented", "--tmax", "5", "--out", "t.csv"],
    "portrait": ["portrait", "--preset", "tented", "--out", "p.svg"],
    "sweep": ["sweep", "--theta-from", "0.1", "--theta-to", "1", "--steps", "3"],
}
for name, argv in runs.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = archflow.cli.main(argv)
    assert code == 0, (name, code)
    with open(name + ".out", "w") as fh:
        fh.write(out.getvalue())

(eq,) = find_equilibria(ArchSystem(0.5), Window(-3, 3, -3, 3))
assert eq.location == Point2(0.0, 0.0), eq
assert eq.classification == "degenerate_nonhyperbolic", eq
print("ok")
"""


def test_runtime_runs_with_numpy_blocked(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
    assert (tmp_path / "analyze.out").read_text() == (GOLDEN / "tented_analyze.txt").read_text()
    assert (tmp_path / "classify.out").read_text() == (GOLDEN / "tented_classify.txt").read_text()
    assert (tmp_path / "p.svg").read_text() == (GOLDEN / "tented.svg").read_text()
    assert (tmp_path / "t.csv").read_text().startswith("t,x,y")
    assert len((tmp_path / "sweep.out").read_text().splitlines()) == 3
