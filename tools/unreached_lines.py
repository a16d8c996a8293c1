"""Fail if a ``src/`` line is executed by no Tier-1 test, outside an allow-list.

    python3 tools/unreached_lines.py [extra pytest args]

Runs the Tier-1 suite in this process and records which ``src/`` lines run,
with the standard library alone. On Python 3.12 and later a ``sys.monitoring``
recorder takes each line's first LINE event and then disables that line, so
the suite runs at nearly its plain speed; on 3.10 and 3.11 a ``sys.settrace``
tracer follows only frames of ``src/`` code, about five times slower. A
module's lines are those its compiled code objects map instructions to
(``co_lines``). Code run only in child processes, which is ``__main__.py``
behind ``python -m archflow``, is never reached here; ``ALLOWED`` names those
lines, each with its reason.

Prints the unreached lines of each module. Exits 1 if pytest fails, if a
line outside ``ALLOWED`` is unreached, or if an ``ALLOWED`` entry matches no
unreached line (it is stale); otherwise 0.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Lines allowed to stay unreached: {module path: {stripped source line, or
# "*" for all of them: why no in-process test runs it}}.
ALLOWED = {
    "src/archflow/__main__.py": {
        "*": "the `python -m archflow` entry point, which the CLI tests run in child processes",
    },
}


def code_lines(code):
    """Lines of ``code`` and of every code object nested in it; a module's entry
    instruction, at line 0, is none."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def record(names, reached):
    """Start adding (file name -> line) hits of the files in ``names`` to
    ``reached``; returns the function that stops recording."""
    if sys.version_info >= (3, 12):
        mon = sys.monitoring
        tool = mon.COVERAGE_ID

        def on_line(code, line):
            if code.co_filename in names:
                reached[code.co_filename].add(line)
            return mon.DISABLE

        mon.use_tool_id(tool, "unreached_lines")
        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.set_events(tool, mon.events.LINE)
        return lambda: (mon.set_events(tool, 0), mon.free_tool_id(tool))

    def trace_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code.co_filename in names else None

    sys.settrace(trace_call)
    return lambda: sys.settrace(None)


def main(extra):
    modules = sorted(SRC.rglob("*.py"))
    names = {str(path) for path in modules}
    reached = {name: set() for name in names}

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import pytest

    # archflow is first imported while recording, so its module-level lines count.
    stop = record(names, reached)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            *extra])
    finally:
        stop()

    failures = []
    for path in modules:
        name = str(path.relative_to(ROOT))
        text = path.read_text()
        missed = sorted(code_lines(compile(text, str(path), "exec")) - reached[str(path)])
        print(f"{name}: {', '.join(map(str, missed)) if missed else 'none'}")
        allowed = ALLOWED.get(name, {})
        source = text.splitlines()
        failures += [f"{name}:{n} is unreached and not allowed" for n in missed
                     if "*" not in allowed and source[n - 1].strip() not in allowed]
        matched = {source[n - 1].strip() for n in missed} | ({"*"} if missed else set())
        failures += [f"{name}: allowed line {key!r} is not unreached" for key in allowed
                     if key not in matched]
    for failure in failures:
        print(failure)
    return 1 if code or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
