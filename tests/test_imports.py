"""The solver reads no checker code: the modules on decide's path import
nothing from the oracle, the fuzz harness, the generator or the CLI, so a
fault in those cannot reach both sides of a check."""

import ast
from pathlib import Path

import pytest

import blockslide

PACKAGE = Path(blockslide.__file__).parent
SOLVER = ["graph", "instance", "blocks", "invariants", "potential", "decide"]
CHECKER = {"oracle", "fuzz", "gen", "cli"}


def imported_modules(name):
    """The blockslide submodules that module `name` imports, read from its
    source with ast: importing it would run the package __init__, which
    imports every module."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"blockslide.{base}".rstrip(".")
            # `from . import x` and `from blockslide import x` name modules
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "blockslide" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_the_reader_sees_relative_and_absolute_imports():
    assert imported_modules("cli") >= CHECKER - {"cli"}
    assert "graph" in imported_modules("instance")


@pytest.mark.parametrize("name", SOLVER)
def test_solver_modules_import_no_checker_module(name):
    assert imported_modules(name) & CHECKER == set()
