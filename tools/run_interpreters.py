"""Run the Tier-1 tests and the golden regeneration on every installed pyenv Python.

    python3 tools/run_interpreters.py [extra pytest args, e.g. -W error]

CI runs the suite on several interpreters, but usually only one of them has
pytest installed. pytest and its dependencies are pure Python, so this script
links the running interpreter's copies into a temporary directory and puts it
on ``PYTHONPATH`` for each pyenv interpreter from 3.10 on. Python 3.10 also
gets a minimal ``exceptiongroup`` stand-in, and an ini file passed with
``-c``, since pytest reads ``pyproject.toml`` there through the missing
``tomli``.

Prints one pass/fail line per version and exits 1 if any failed. The golden
files are restored afterwards, so the checkout stays as it was.
"""

import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PACKAGES = ("pytest", "_pytest", "py", "pluggy", "iniconfig", "packaging", "pygments")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

EXCEPTIONGROUP = '''\
class BaseExceptionGroup(BaseException):
    def __class_getitem__(cls, item):
        return cls


class ExceptionGroup(BaseExceptionGroup, Exception):
    pass
'''


def interpreters():
    """(version, executable) of each pyenv Python 3.10 or newer, oldest first."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for path in root.glob("3.*"):
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", path.name)
        if match and int(match[1]) >= 10 and (path / "bin" / "python").exists():
            found.append(((3, int(match[1]), int(match[2])), path.name, path / "bin" / "python"))
    return [(name, exe) for _, name, exe in sorted(found)]


def link_packages(target):
    """Symlink the running interpreter's pytest and its dependencies into target."""
    for name in PACKAGES:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            raise SystemExit(f"{name} is not importable from {sys.executable}")
        origin = Path(spec.origin)
        source = origin.parent if origin.name == "__init__.py" else origin
        (target / source.name).symlink_to(source)


def run(cmd, env):
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def check(version, exe, shared, compat, extra):
    old = version.startswith("3.10.")
    paths = [str(ROOT / "src"), str(shared), *([str(compat)] if old else [])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONDONTWRITEBYTECODE": "1"}
    ini = ("-c", str(compat / "pytest.ini"), "--rootdir", str(ROOT)) if old else ()
    tests = run([str(exe), *TIER1, "-p", "no:cacheprovider", *ini, *extra], env)
    summary = (tests.stdout.strip() or tests.stderr.strip() or "no output").splitlines()[-1]

    before = {p: p.read_bytes() for p in GOLDEN.iterdir() if p.is_file()}
    try:
        regen = run([str(exe), str(GOLDEN / "regenerate.py")], env)
        changed = sorted(p.name for p, data in before.items() if p.read_bytes() != data)
    finally:
        for path, data in before.items():
            if path.read_bytes() != data:
                path.write_bytes(data)
    if regen.returncode:
        goldens = "regenerate.py failed"
    else:
        goldens = f"changed {', '.join(changed)}" if changed else "no diff"
    ok = tests.returncode == 0 and goldens == "no diff"
    print(f"{version}: {'pass' if ok else 'FAIL'} ({summary}; goldens {goldens})", flush=True)
    return ok


def main(extra):
    found = interpreters()
    if not found:
        raise SystemExit("no pyenv Python 3.10 or newer found")
    with tempfile.TemporaryDirectory() as tmp:
        shared, compat = Path(tmp, "shared"), Path(tmp, "compat310")
        shared.mkdir()
        compat.mkdir()
        link_packages(shared)
        (compat / "exceptiongroup.py").write_text(EXCEPTIONGROUP)
        (compat / "pytest.ini").write_text("[pytest]\ntestpaths = tests\n")
        results = [check(version, exe, shared, compat, extra) for version, exe in found]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
