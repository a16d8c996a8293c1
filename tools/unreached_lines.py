"""Print, per module under ``src/``, the lines that no Tier-1 test executes.

    python3 tools/unreached_lines.py [extra pytest args]

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer
that follows only frames of ``src/`` code, with the standard library alone.
A module's lines are those its compiled code objects map instructions to
(``co_lines``); a line is reached when a traced frame executes it. Code run
only in child processes, such as ``python -m archflow`` and the CLI's
``__main__`` guard, shows as unreached.

The tracer makes the suite about five times slower (35-45 s against 7-9 s
with Python 3.11 on 2 vCPUs), so this is a tool for finding untested
statements, not a CI step.
Exits with pytest's exit code.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def code_lines(code):
    """Lines of ``code`` and of every code object nested in it; a module's entry
    instruction, at line 0, is none."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(extra):
    modules = sorted(SRC.rglob("*.py"))
    names = {str(path) for path in modules}
    reached = {name: set() for name in names}

    def trace_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code.co_filename in names else None

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import pytest

    # archflow is first imported under the tracer, so its module-level lines count.
    sys.settrace(trace_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            *extra])
    finally:
        sys.settrace(None)

    for path in modules:
        lines = code_lines(compile(path.read_text(), str(path), "exec"))
        missed = sorted(lines - reached[str(path)])
        print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed)) if missed else 'none'}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
