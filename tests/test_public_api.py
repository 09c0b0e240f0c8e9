"""The names distmlc exports, and how its modules import each other."""
import ast
from pathlib import Path

import pytest

import distmlc

SOURCES = sorted(Path(distmlc.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves_once():
    assert len(distmlc.__all__) == len(set(distmlc.__all__))
    missing = [name for name in distmlc.__all__ if not hasattr(distmlc, name)]
    assert missing == []


def package_modules(node) -> list[str]:
    """The distmlc modules an import statement names, by their short names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("distmlc.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        if node.module == "distmlc":
            return [a.name for a in node.names]
        if node.module and node.module.startswith("distmlc."):
            return [node.module.split(".")[1]]
        return []
    return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_level_import_of_a_distmlc_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [(func.name, node.lineno, package_modules(node))
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if package_modules(node)]
    assert nested == []


def test_models_imports_no_module_built_on_it():
    tree = ast.parse((Path(distmlc.__file__).parent / "models.py").read_text(encoding="utf-8"))
    imported = {name for node in ast.walk(tree) for name in package_modules(node)}
    assert imported.isdisjoint({"tuning", "modelio", "cli"}), imported
