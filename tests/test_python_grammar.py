"""Every source and test file parses as Python 3.10, the oldest version CI runs.

The grammar check cannot see a call to something 3.10's standard library
lacks, such as ``math.cbrt``, so each file is also scanned for the names that
the standard-library modules ``src/`` imports gained after 3.10.
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


# Names added after 3.10 to the standard-library modules src/ imports.
NEWER_THAN_3_10 = {
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "sys": {"exception"},
    "typing": {"Self", "Never", "LiteralString", "assert_never"},
}


def newer_names(tree):
    """(module, name) of each use, through ``import`` or ``from ... import``."""
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in NEWER_THAN_3_10:
            found += [(node.module, a.name) for a in node.names
                      if a.name in NEWER_THAN_3_10[node.module]]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if node.attr in NEWER_THAN_3_10.get(module, ()):
                found.append((module, node.attr))
    return found


def test_the_scan_finds_newer_names():
    tree = ast.parse("import math as m\nfrom typing import Self\nm.cbrt(8.0)\nmath.cbrt(1.0)\n")
    assert sorted(newer_names(tree)) == [("math", "cbrt"), ("typing", "Self")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_file_uses_no_standard_library_name_newer_than_3_10(path):
    assert newer_names(ast.parse(path.read_text(encoding="utf-8"))) == []
