"""Statement survey: which statements of src/nrqae no test and no golden case runs.

Not collected by pytest, and not a CI step. Run from any directory:

    python tests/coverage_survey.py

It traces src/nrqae with sys.settrace, so it needs no coverage package,
while it runs tier-1 in process with --hypothesis-seed=0 and then every case
of golden_cases.py. It prints each statement that never ran as
`file:line  statement`, then their count. Only statements that run after
import count: docstrings, def and class lines, imports and the module-level
statements are left out, but the body of a module-level `if` is not. A
statement counts as run when a line of its own (its header, for a compound
statement) was traced. Traced, tier-1 takes about 70 s on 2 cores, against
about 20 s untraced. Exits 1 if tier-1 fails, else 0.
"""

import ast
import os
import sys
import tempfile
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "nrqae"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", str(TESTS)]
_SKIPPED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)


def _body(body: list) -> list:
    """body without its docstring."""
    first = body[0]
    docstring = (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                 and isinstance(first.value.value, str))
    return body[1:] if docstring else body


def _counted(body: list, nested: bool):
    """The statements of body that the survey counts; nested: body runs after import."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _counted(_body(node.body), True)
            continue
        if isinstance(node, ast.ClassDef):
            yield from _counted(_body(node.body), nested)
            continue
        if nested and not isinstance(node, _SKIPPED):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from _counted([child], True)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                yield from _counted(child.body, True)


def _own_lines(node: ast.stmt) -> range:
    """The lines of node that are not lines of a statement inside it."""
    inner = [child.lineno for child in ast.walk(node)
             if child is not node and isinstance(child, ast.stmt)]
    end = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
    return range(node.lineno, end + 1)


def _tracer(hits: set):
    """A sys.settrace function that adds (file, line) to hits for every line of PACKAGE run."""
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(os.path.realpath(name)).parent == PACKAGE
        return local if inside[name] else None

    return on_call


def main() -> int:
    sys.path[:0] = [str(SRC), str(TESTS)]
    import pytest

    hits = set()
    sys.settrace(_tracer(hits))
    try:
        code = pytest.main(TIER1)
        import golden_cases
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for case in golden_cases.CASES:
                with tempfile.TemporaryDirectory() as tmp:
                    golden_cases.outputs(case, tmp)
    finally:
        sys.settrace(None)
    ran = {(os.path.realpath(name), line) for name, line in hits}
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in _counted(ast.parse(source).body, False):
            if not any((str(path), line) in ran for line in _own_lines(node)):
                missed += 1
                print(f"{path.relative_to(SRC)}:{node.lineno}  {lines[node.lineno - 1].strip()}")
    print(f"{missed} statements of src/nrqae never ran; tier-1 exited {int(code)}")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
