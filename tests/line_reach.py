"""Run pytest with a line tracer; fail on a package line no test reaches.

    PYTHONPATH=src python tests/line_reach.py [pytest arguments]

The executable lines of a module are the line numbers in its code objects.
Each one under ``src/rstkit`` must be reached by some test, in the main
thread or in a thread started while the tests run, or be listed in
``ALLOWED`` with the reason no test reaches it. The exit status is pytest's
when the tests fail, else 1 when a line is unreached or an ``ALLOWED``
entry no longer names exactly one unreached line, else 0.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rstkit"

# (module, the line's text, stripped): why no test reaches it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the __main__ guard; tests call main in process",
}


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object within it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``argv``; its exit status and the package lines it
    reached, by file."""
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # file -> its reached lines, if ours

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = None
            if filename.startswith(prefix):
                ours[filename] = reached.setdefault(filename, set())
        if ours[filename] is None:
            return None
        ours[filename].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def main(argv: list[str]) -> int:
    status, reached = traced(argv)
    if status != 0:
        return status
    unreached = []
    total = hit = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec"))
        missed = lines - reached.get(str(path), set())
        total, hit = total + len(lines), hit + len(lines) - len(missed)
        texts = source.splitlines()
        unreached += [(path.name, line, texts[line - 1].strip()) for line in sorted(missed)]
    print(f"tests reached {hit} of {total} executable lines under {PACKAGE.name}")
    failed = False
    for name, line, text in unreached:
        if (name, text) not in ALLOWED:
            print(f"unreached: {PACKAGE.name}/{name}:{line}: {text}")
            failed = True
    for (name, text), reason in ALLOWED.items():
        count = sum((name, text) == (n, t) for n, _, t in unreached)
        if count != 1:
            print(f"allowed, but {count} unreached lines match: {name}: {text} ({reason})")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
