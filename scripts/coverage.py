#!/usr/bin/env python3
"""Statement coverage of ``src/hybridgraph`` under a pytest run, with
the standard library only.

Usage:
    python3 scripts/coverage.py [pytest args]

Runs pytest in this process, from the repository root, under a
``sys.settrace`` hook that records the lines executed in frames whose
code lies under ``src/hybridgraph``.  With no arguments it runs what
the tier-1 command runs: ``-q --continue-on-collection-errors`` over
pyproject's testpaths.  Then it prints every statement that never ran
as ``path:line: source``, and the total.  Docstrings and ``def`` and
``class`` lines are not counted as statements.  A statement ran if a
line event fired anywhere in its own lines: its whole extent for a
simple statement, its header for a compound one.

Code run in a subprocess is not traced.  The script always exits 0:
timing gates may read differently under tracing, and it reports lines,
not test outcomes.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hybridgraph"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors",
                "-p", "no:cacheprovider"]


def trace(prefix, fn, *args):
    """Call ``fn(*args)`` with line tracing in every frame whose code
    file starts with ``prefix``.  Returns a dict from file name to the
    set of lines executed.  The caller's trace function is given back
    on exit."""
    hits = {}
    local_for = {}   # code object -> its file's line tracer, or None

    def tracer(frame, event, arg):
        code = frame.f_code
        try:
            return local_for[code]
        except KeyError:
            pass
        name = code.co_filename
        local = None
        if name is not None and name.startswith(prefix):
            lines = hits.setdefault(name, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local
        local_for[code] = local
        return local

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return hits


def _is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source):
    """``(first, last)`` line spans of the statements in ``source``:
    a simple statement's whole extent, a compound statement's header
    (up to its first body line).  Docstrings, ``def`` and ``class``
    lines, and ``global``/``nonlocal``, which run no code, are left
    out."""
    spans = []
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Global, ast.Nonlocal)
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if (not isinstance(node, ast.stmt) or isinstance(node, skip)
                    or _is_docstring(node, parent)):
                continue
            body = getattr(node, "body", None)
            last = node.end_lineno
            if body:
                last = max(node.lineno, body[0].lineno - 1)
            spans.append((node.lineno, last))
    return sorted(spans)


def missed(spans, lines):
    """The first lines of the statement ``spans`` that no line in
    ``lines`` falls in."""
    return [first for first, last in spans
            if not any(line in lines for line in range(first, last + 1))]


def report(root, package, hits):
    """``path:line: source`` for every statement under ``package``
    that never ran, then the total."""
    out = []
    total = 0
    for path in sorted(Path(package).rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        spans = statements(source)
        total += len(spans)
        for line in missed(spans, hits.get(str(path), set())):
            out.append(f"{path.relative_to(root)}:{line}: "
                       f"{text[line - 1].strip()}")
    out.append(f"{len(out)} of {total} statements never ran")
    return out


def main(argv):
    os.chdir(ROOT)
    args = argv or DEFAULT_ARGS
    hits = trace(str(PACKAGE) + os.sep, pytest.main, args)
    print("\n".join(report(ROOT, PACKAGE, hits)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
