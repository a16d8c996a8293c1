"""Every source and test file parses as Python 3.10, the oldest version CI runs.

This checks the grammar only. A call to something 3.10's standard library
lacks, such as ``math.cbrt``, still parses; only a 3.10 interpreter catches it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def test_the_source_tree_is_found():
    assert ROOT / "src" / "archflow" / "integrate.py" in FILES
    assert Path(__file__).resolve() in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_file_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
