"""Checks of the package source, read with ``ast``, and of what importing it loads.

``python -O`` strips ``assert`` statements, so the package must not rely on
them. Every import is at module level, and the package's own modules import
each other without a cycle, so no module needs a deferred import.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import resilient_mdp

MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(Path(resilient_mdp.__file__).parent.glob("*.py"))}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports; ``__init__`` stands for the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "resilient_mdp":
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                out.add(parts[0])
            else:  # from . import x: x is a module, or a name of the package
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "resilient_mdp":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def test_no_assert_statements():
    found = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_imports_inside_functions():
    found = [f"{name}.py:{inner.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_package_import_graph_is_acyclic():
    graph = {name: _package_imports(tree) for name, tree in MODULES.items()}
    assert "transform" in graph["components"] and "analyze" not in graph["components"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError, naming a cycle


def test_import_does_not_load_dataclasses():
    # Every command-line call pays the import. ``dataclasses`` brings in
    # ``inspect`` and execs generated code for each decorated class, most of
    # the package's import time, so its records are NamedTuples and plain
    # classes (README, Scaling notes).
    # ``-S`` keeps the environment's site hooks out of what is checked.
    code = ("import sys, resilient_mdp, resilient_mdp.cli; "
            "print('dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(resilient_mdp.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"
