"""Print the statements of src/extmukai that no test and no demo runs.

A stdlib line-coverage pass (`sys.settrace` and `threading.settrace`; no
third-party coverage tool): it runs pytest in process on tests/ without the
long crit11 test (`-k "not criterion_11"`), then the five demos through
`runpy` and the CLI golden cases (tests/data/cli_golden.json) through
`cli.main`, and prints per module every statement that never ran, leaving
out `raise` statements.  Tests that run the package in a subprocess (cold
CLI runs, the demo test) are not traced, hence the in-process demos and
goldens; a CLI verb reached only by a subprocess still shows.  Takes about
three minutes on 2 cores.  Usage: python tools/src_coverage.py [pytest args]
"""
import ast
import contextlib
import io
import json
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "extmukai"
DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (ast.Raise, ast.Global, ast.Nonlocal)

ran = defaultdict(set)  # file name -> line numbers that ran


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    """Trace only frames of the package: other code runs untraced."""
    name = frame.f_code.co_filename
    if not name.startswith(str(SRC)):
        return None
    ran[name].add(frame.f_lineno)
    return _local


def statements(path):
    """(first line, lines that count as its run) of each statement of the
    module, docstrings and the SKIPPED kinds left out; a decorated definition
    runs from its first decorator."""
    tree = ast.parse(path.read_text())
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *DEF_NODES)) and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docs:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield node.lineno, range(first, node.lineno + 1)


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(_global)
    threading.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-k", "not criterion_11",
                            str(ROOT / "tests"), *argv])
        from extmukai.cli import main as cli_main

        golden = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())
        with contextlib.redirect_stdout(io.StringIO()):
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            for case in golden:
                cli_main(case["args"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("pytest exit code %d" % code)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        hit = ran[str(path)]
        lines = path.read_text().splitlines()
        missed = sorted(line for line, span in statements(path) if not hit.intersection(span))
        total += len(missed)
        print("%s: %d statements never ran" % (path.relative_to(ROOT), len(missed)))
        for line in missed:
            print("  %5d  %s" % (line, lines[line - 1].strip()))
    print("total %d" % total)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
