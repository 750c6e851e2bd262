"""Print the two size figures of src/extmukai: all lines of its *.py files,
and code lines by the `ast` split (lines that are not blank, not a comment
and not part of a docstring).  Usage: python tools/src_size.py"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extmukai"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
total = code = 0
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = text.splitlines()
    total += len(lines)
    code += sum(1 for i, line in enumerate(lines, 1)
                if line.strip() and not line.lstrip().startswith("#") and i not in docs)
print("lines %d\ncode lines (ast) %d" % (total, code))
