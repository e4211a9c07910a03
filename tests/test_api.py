"""The public names of the package, and the ones the benchmark relies on."""

import ast
import importlib.util
from pathlib import Path

import concurv

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_every_exported_name_resolves():
    missing = [name for name in concurv.__all__ if not hasattr(concurv, name)]
    assert not missing


def test_benchmark_imports_are_exported():
    """Every name bench/workloads.py imports from concurv is in __all__,
    unless it is a submodule of the package (the benchmark imports cli)."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "concurv"
             for alias in node.names}
    assert len(names) > 10
    unexported = names - set(concurv.__all__)
    assert all(importlib.util.find_spec(f"concurv.{name}") for name in unexported), unexported
