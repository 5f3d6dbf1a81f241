"""Print the source size of each ``src/mqspace`` module (no threshold).

Usage, from the repository root::

    python3 .github/source_size.py

A module's size is its non-blank lines after stripping module, class and
function docstrings and round-tripping through ``ast.unparse``. One
``<lines> <file name>`` line is printed per module, then ``<lines> total``.
"""

import ast
import pathlib

DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def main() -> None:
    total = 0
    for path in sorted(pathlib.Path("src/mqspace").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and node.body:
                first = node.body[0]
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    node.body = node.body[1:] or [ast.Pass()]
        lines = sum(1 for line in ast.unparse(tree).splitlines() if line.strip())
        total += lines
        print(f"{lines:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
