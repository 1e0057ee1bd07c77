"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
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


def test_package_source_reads_no_environment():
    # configuration comes in arguments, so the same call gives the same
    # result whatever the environment holds
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Attribute) and node.attr in readers
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in readers for alias in node.names))]
    assert found == []


def test_every_exported_name_resolves():
    # a deletion that leaves its name in a module's __all__ would break
    # `from mazersim.<module> import *`
    modules = [importlib.import_module(
        "mazersim" if path.stem == "__init__" else f"mazersim.{path.stem}")
        for path in SOURCES]
    exported = [(module.__name__, name) for module in modules
                for name in getattr(module, "__all__", ())]
    assert len({module for module, _ in exported}) > 1
    missing = [f"{module}.{name}" for module, name in exported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
