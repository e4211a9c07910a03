"""The public names of the package, and the ones the benchmark relies on."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import concurv

from helpers import run_python

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"

# The private names of concurv.curvature that other modules may import: the
# one rule for N, its check of N and its refusal of an N at which a dimension
# term overflows.  The elimination record, which owns A_N, is the public
# CurvatureBundle.
CURVATURE_PRIVATE_IMPORTS = {"_check_n", "_dimension_weight"}

# Every default-valued parameter of the exported callables, with its default.
# A new option has a caller; add it here when you add it.
PUBLIC_OPTIONS = {
    "ProductSpec": {"alpha": 1.0, "beta": 1.0, "lift": "same-dimension"},
    "add_spherical_edge": {"w_new": 1.0, "sigma_new": None},
    "cartesian_product": {"spec": concurv.ProductSpec()},
    "curvature_matrix": {"b": None},
    "tensor_matrix_check": {"b": None, "seed": 0},
}


# Reference evaluations that live in tests/helpers.py: the library has no
# caller for them, so the package does not export them.
TEST_REFERENCES = ("gamma_forms", "pinv")


def test_reference_evaluations_live_in_the_tests():
    import helpers
    from concurv import hermitian, operators

    for name in TEST_REFERENCES:
        assert name not in concurv.__all__
        assert not any(hasattr(module, name) for module in (concurv, hermitian, operators))
        assert callable(getattr(helpers, name))


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


def test_a_n_has_one_owner():
    """Outside curvature.py, no library module and not tests/helpers.py
    imports a private name of concurv.curvature beyond the N rule: A_N,
    v0 and K are read from the public record, and nothing rebuilds them."""
    sources = [p for p in (ROOT / "src" / "concurv").glob("*.py") if p.name != "curvature.py"]
    sources.append(ROOT / "tests" / "helpers.py")
    imported = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported |= {(path.name, alias.name) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.module, node.level) in (("curvature", 1), ("concurv.curvature", 0))
                     for alias in node.names if alias.name.startswith("_")}
    assert {name for _, name in imported} == CURVATURE_PRIVATE_IMPORTS, sorted(imported)


def test_no_basis_is_inverted():
    """No library module calls np.linalg.inv: an explicit basis B is read
    from the canonical elimination through the unitary U of ``B B0^{-1}``,
    whose closed form needs no inverse, and so are its tangent coordinates."""
    found = []
    for path in (ROOT / "src" / "concurv").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "inv"
                  and ast.unparse(node.value).endswith("linalg")
                  or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                  and any(alias.name == "inv" for alias in node.names)]
    assert found == []


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


def numeric_constants() -> set[str]:
    """``module.NAME`` for every module-level name that a module of the
    package binds to an int, a float or a tuple of them, except INF."""
    found = set()
    for path in (ROOT / "src" / "concurv").glob("*.py"):
        module = importlib.import_module("concurv" if path.stem == "__init__"
                                         else f"concurv.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for name in (t.id for t in targets if isinstance(t, ast.Name) and t.id != "INF"):
                value = getattr(module, name)
                items = value if isinstance(value, tuple) and value else (value,)
                if all(type(v) in (int, float) for v in items):
                    found.add(f"{path.stem}.{name}")
    return found


def test_readme_lists_every_numeric_constant():
    """The "Numerical notes" table of the README names every numeric
    constant as ``module.NAME``, and every name it lists is one of them."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    notes = text[text.index("### Numerical notes"):]
    table = next(block for block in notes.split("\n\n") if block.startswith("|"))
    listed = set(re.findall(r"`(\w+\.[A-Z][A-Z0-9_]*)`", table))
    constants = numeric_constants()
    assert constants - listed == set(), "missing from the README table"
    assert listed - constants == set(), "listed in the README table but not a constant"


def is_unit_floor(node) -> bool:
    """``max(1, ...)``, ``max(1.0, ...)`` or ``np.maximum(1.0, ...)``."""
    if not isinstance(node, ast.Call) or not node.args:
        return False
    func = node.func.id if isinstance(node.func, ast.Name) else \
        node.func.attr if isinstance(node.func, ast.Attribute) else None
    first = node.args[0]
    return func in ("max", "maximum") and isinstance(first, ast.Constant) and first.value == 1


def test_no_check_has_a_unit_floor():
    """Every check on a curvature matrix or on K reads ``hermitian._scale``,
    with no absolute floor of 1, which would make it vacuous at small rates.
    Only ``basis_residual`` keeps one, for its unit-free target diag(0, I)."""
    found = []
    for path in (ROOT / "src" / "concurv").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "basis_residual"]
        found += [(path.name, node.lineno) for node in ast.walk(tree) if is_unit_floor(node)
                  and not any(node.lineno in lines for lines in exempt)]
    assert found == []
    assert is_unit_floor(ast.parse("max(1, x)").body[0].value)
    assert is_unit_floor(ast.parse("np.maximum(1.0, x)").body[0].value)


EXTENDED_PRECISION = {"longdouble", "clongdouble", "float96", "float128", "complex192",
                      "complex256"}


def is_extended_precision(node) -> bool:
    """A name, attribute or string that names numpy's extended-precision types."""
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else \
        node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None
    return name in EXTENDED_PRECISION


def test_no_extended_precision():
    """The library computes in double only: ``long double`` is 80-bit on
    x86-64 Linux, quad on aarch64 Linux and double under MSVC, so a result
    that passed through it would differ from platform to platform."""
    found = []
    for path in (ROOT / "src" / "concurv").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if is_extended_precision(node)]
    assert found == []
    assert is_extended_precision(ast.parse("v.astype(np.clongdouble)").body[0].value.args[0])
    assert is_extended_precision(ast.parse("np.zeros(3, dtype='longdouble')")
                                 .body[0].value.keywords[0].value)


def test_public_options_are_pinned():
    options = {}
    for name in concurv.__all__:
        obj = getattr(concurv, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # the exception classes have no Python signature
            assert issubclass(obj, Exception), name
            continue
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        if defaults:
            options[name] = defaults
    assert options == PUBLIC_OPTIONS
