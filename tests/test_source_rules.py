"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import mazersim

SOURCES = sorted(Path(mazersim.__file__).resolve().parent.glob("*.py"))


def test_package_source_holds_no_assert():
    # python -O strips assert statements, so a self-check of the solver
    # raises a typed error instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
