"""The statements of src/gmlab that no in-process tier-1 test runs.

    python tools/unexecuted.py

Runs the tier-1 tests in this process, under `pytest.main` with
--hypothesis-seed=0 and without the cache plugin, with every line of
src/gmlab traced in the main thread and in each thread started meanwhile.
A run in a child process (a `gml` subprocess) counts for nothing.  Prints
each statement that never ran as `file:line`, followed by the name of the
code that encloses it, and exits 1 if any lies outside ALLOWED, or with
pytest's own code if a test fails.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gmlab"

# enclosing code that only a subprocess runs: a statement under it may stay unexecuted
ALLOWED = {
    "cli.entry": "the console script, which exits the interpreter",
    "cli.__main__": "the `python -m gmlab.cli` guard",
}


def statements(source: str) -> dict:
    """{line: enclosing code} of each statement of a module's source.  The
    enclosing code is the tuple of the names of the functions and classes
    around the statement, with "__main__" for the body of an
    `if __name__ == "__main__":` guard.  A bare constant (a docstring)
    compiles to nothing and is left out; the first statement on a line
    names it."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                if not (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                    found.setdefault(child.lineno, scope)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                elif _is_main_guard(child):
                    inner = scope + ("__main__",)
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def collect(run, root):
    """run() with each line of the files under root traced in this thread
    and in every thread started meanwhile; (its result, {path: executed lines})."""
    prefix = os.path.join(os.path.realpath(root), "")
    hits, tracers = {}, {}

    def tracer_for(path):
        path = os.path.realpath(path)
        if not path.startswith(prefix):
            return None
        lines = hits.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        try:
            return tracers[path]
        except KeyError:
            tracer = tracers[path] = tracer_for(path)
            return tracer

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(call)
    threading.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, hits


def unexecuted(root, hits) -> list:
    """(path, line, enclosing code) of each statement of the .py files
    under root that hits does not hold; the code is dotted from the module
    name, as in ALLOWED."""
    root, missed = Path(root).resolve(), []
    for path in sorted(root.rglob("*.py")):
        lines = hits.get(str(path), set())
        module = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        for line, scope in sorted(statements(path.read_text()).items()):
            if line not in lines:
                missed.append((path, line, ".".join((module, *scope))))
    return missed


def main() -> int:
    args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    code, hits = collect(lambda: pytest.main(args), PACKAGE)
    if code != 0:
        print(f"pytest exited {int(code)}: no statement count is read from a failing run")
        return int(code)
    refused = False
    for path, line, name in unexecuted(PACKAGE, hits):
        allowed = name in ALLOWED
        refused = refused or not allowed
        print(f"{path.relative_to(ROOT).as_posix()}:{line} {name}{' (allowed)' if allowed else ''}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
