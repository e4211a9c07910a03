"""The public names of the package, and the ones the benchmark relies on."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import concurv

from helpers import run_python

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


def test_lazy_names_are_defined_by_their_modules():
    """Each lazily resolved name is the object its module defines, and is
    exported."""
    assert concurv._LAZY
    for name, module in concurv._LAZY.items():
        assert name in concurv.__all__
        defined = getattr(importlib.import_module(f"concurv.{module}"), name)
        assert getattr(concurv, name) is defined


def in_fresh_interpreter(code: str) -> str:
    """Run code in a new interpreter, before any lazy name is resolved."""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dir_lists_every_export():
    out = in_fresh_interpreter("import concurv; print(sorted(set(concurv.__all__) - set(dir(concurv))))")
    assert out.strip() == "[]"


def test_star_import():
    out = in_fresh_interpreter("from concurv import *; import concurv; "
                               "print(sorted(set(concurv.__all__) - set(globals())))")
    assert out.strip() == "[]"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        concurv.no_such_name
