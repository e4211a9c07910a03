"""The bundled examples and their expected reference values, as one table.

``ROWS`` has one ``(criterion, name, check)`` row per check: the acceptance
criterion the check belongs to, a unique name, and a zero-argument callable
returning ``(ok, detail)``.  The table drives both ``concurv examples``,
which renders every row, and the acceptance tests, each of which runs the
rows tagged with its criterion, so every fixture check is written once.
Matrix checks compare entrywise at 1e-12, curvature values at 1e-9 unless
the reference value is only known to a few decimals.

Criterion 05c shows that the product curvature bound
``K(x,x') >= min(alpha K(x), beta K'(x'))`` needs commuting signature groups.
Its rows take the U(2) fixtures ``triangle_u2`` and ``diamond_u2``, whose
groups do not commute: at (A, 1) the bound still holds with equality, at
(A, 2) the product curvature drops below both factor curvatures.
"""

from __future__ import annotations

import numpy as np

from .curvature import INF, canonical_basis, curvature, curvature_bundle, curvature_oracle
from .fixtures import (
    EXPECTED,
    PRODUCT_G2_TRIANGLE,
    PRODUCT_NONCOMMUTING,
    fixture_graph,
)
from .graphs import is_locally_balanced, local_structure, signature_groups_commute
from .local_ops import add_spherical_edge
from .operators import gamma2_matrix, gamma_matrix, q_matrix
from .product import ProductSpec, cartesian_product, product_vertex, reorder_blocks

ENTRY_TOL = 1e-12
VALUE_TOL = 1e-9


# -- the balls and matrices the rows compare ---------------------------------

def _loc(name: str):
    return local_structure(fixture_graph(name), EXPECTED[name]["vertex"])


def _product(name: str, name2: str, x: str, x2: str):
    """The ball at (x, x2) in the product of two fixtures, built on call."""
    def loc():
        prod = cartesian_product(fixture_graph(name), fixture_graph(name2), ProductSpec(1.0, 1.0))
        return local_structure(prod, product_vertex(x, x2))
    return loc


def _edited(name: str):
    """The fixture's spherical-edge addition: (edited graph, EditReport)."""
    e = EXPECTED[name]
    edit = e["edit"]
    sigma = np.array([[float(edit["sign"])]], dtype=complex)
    return add_spherical_edge(fixture_graph(name), e["vertex"], edit["yi"], edit["yj"], 1.0, sigma)


def _k(loc) -> float:
    return curvature(loc, INF)[0]


def _a_inf(loc) -> np.ndarray:
    return curvature_bundle(loc).a_inf


def _a_inf_eigs(loc) -> np.ndarray:
    return np.linalg.eigvalsh(_a_inf(loc))


def _two_gamma(loc) -> np.ndarray:
    return gamma_matrix(loc).mat


def _four_gamma(loc) -> np.ndarray:
    return 2.0 * gamma_matrix(loc).mat


def _four_gamma2(loc) -> np.ndarray:
    return gamma2_matrix(loc).mat


def _four_q(loc) -> np.ndarray:
    return q_matrix(loc).mat


# -- checks: zero-argument callables returning (ok, detail) -------------------

def _close(actual: np.ndarray, expected: np.ndarray, tol: float = ENTRY_TOL):
    resid = float(np.max(np.abs(actual - expected)))
    return resid <= tol, f"max residual {resid:.1e}"


def _matrix(name: str, form, key: str, tol: float = ENTRY_TOL):
    """``form`` at the fixture's vertex against its expected ``key`` entry."""
    return lambda: _close(form(_loc(name)), EXPECTED[name][key], tol)


def _curvature(loc, expected: float, tol: float = VALUE_TOL):
    """K(inf) at the ball ``loc()`` against ``expected``."""
    def check():
        k = _k(loc())
        return abs(k - expected) <= tol, f"K = {k:.9f}"
    return check


def _fixture_curvature(name: str):
    e = EXPECTED[name]
    return _curvature(lambda: _loc(name), e["k_inf"], e.get("k_tol", VALUE_TOL))


def _edit(name: str):
    """K(inf) before and after the fixture's spherical-edge addition."""
    def check():
        e = EXPECTED[name]
        _, rep = _edited(name)
        ok = (abs(rep.before - e["k_inf"]) <= e.get("k_tol", VALUE_TOL)
              and abs(rep.after - e["edit"]["k_after"]) <= e["edit"]["k_tol"])
        return ok, f"K: {rep.before:.6f} -> {rep.after:.6f}"
    return check


def _edited_a_inf(name: str):
    def check():
        e = EXPECTED[name]
        loc = local_structure(_edited(name)[0], e["vertex"])
        return _close(_a_inf(loc), e["edit"]["a_inf_after"])
    return check


def _g1_oracle():
    loc = _loc("g1_u2")
    gap = abs(curvature_oracle(loc, INF) - _k(loc))
    return gap <= 1e-8, f"gap = {gap:.2e}"


def _g2_triangle_a_inf():
    loc = _product("g2_signed", "triangle_signed", "1", "A")()
    e = PRODUCT_G2_TRIANGLE
    return _close(_a_inf(loc), reorder_blocks(e["a_inf"], e["labels"], loc.s1, 1))


def _noncommuting_groups():
    commute = signature_groups_commute(fixture_graph("triangle_u2"), fixture_graph("diamond_u2"))
    return not commute, f"commute = {commute}"


def _noncommuting_gamma2(x2: str):
    """Smallest eigenvalue of 4*Gamma_2 at (A, x2) of triangle_u2 x diamond_u2."""
    def check():
        e = PRODUCT_NONCOMMUTING[product_vertex("A", x2)]
        loc = _product("triangle_u2", "diamond_u2", "A", x2)()
        lam = float(np.linalg.eigvalsh(_four_gamma2(loc))[0])
        return abs(lam - e["gamma2_min_eig"]) <= e["eig_tol"], f"min eig = {lam:.12f}"
    return check


def _noncommuting_bound_fails():
    """K(inf) at (A, 2) below min(K_tri(A), K_dia(2)), with the oracle agreeing."""
    e = PRODUCT_NONCOMMUTING["A|2"]
    loc = _product("triangle_u2", "diamond_u2", "A", "2")()
    k = _k(loc)
    k1 = _k(_loc("triangle_u2"))
    k2 = _k(local_structure(fixture_graph("diamond_u2"), "2"))
    gap = abs(curvature_oracle(loc, INF) - k)
    ok = (abs(k - e["k_inf"]) <= e["k_tol"] and abs(k2 - e["k_factor2"]) <= e["k_tol"]
          and k < min(k1, k2) and gap <= 1e-8)
    return ok, f"K = {k:.6f} < min({k1:.6f}, {k2:.6f}), oracle gap = {gap:.2e}"


def _balanced(name: str, vertex: str, expected: bool):
    def check():
        return is_locally_balanced(local_structure(fixture_graph(name), vertex)) is expected, ""
    return check


ROWS = (
    ("01", "g1_u2 2*Gamma", _matrix("g1_u2", _two_gamma, "two_gamma")),
    ("01", "g1_u2 4*Gamma_2", _matrix("g1_u2", _four_gamma2, "four_gamma2")),
    ("01", "g1_u2 4*Q", _matrix("g1_u2", _four_q, "four_q")),
    ("01", "g1_u2 B0", _matrix("g1_u2", canonical_basis, "b0")),
    ("01", "g1_u2 A_inf", _matrix("g1_u2", _a_inf, "a_inf")),
    ("01", "g1_u2 A_inf eigenvalues", _matrix("g1_u2", _a_inf_eigs, "a_inf_eigs", VALUE_TOL)),
    ("01", "g1_u2 K(inf) = 3/2", _fixture_curvature("g1_u2")),
    ("01", "g1_u2 oracle agreement", _g1_oracle),
    ("02", "strip 4*Gamma", _matrix("positive_strip", _four_gamma, "four_gamma")),
    ("02", "strip 4*Gamma_2", _matrix("positive_strip", _four_gamma2, "four_gamma2")),
    ("02", "strip B0", _matrix("positive_strip", canonical_basis, "b0")),
    ("02", "strip A_inf", _matrix("positive_strip", _a_inf, "a_inf")),
    ("02", "strip K(inf) = (7-sqrt(17))/4 > 0", _fixture_curvature("positive_strip")),
    ("03", "triangle_signed K(inf)", _fixture_curvature("triangle_signed")),
    ("03", "triangle_u2 K(inf)", _fixture_curvature("triangle_u2")),
    ("03", "diamond_signed K(inf)", _fixture_curvature("diamond_signed")),
    ("03", "diamond_u2 K(inf)", _fixture_curvature("diamond_u2")),
    ("03", "g5_signed K(inf)", _fixture_curvature("g5_signed")),
    ("04", "g3_signed K(inf)", _fixture_curvature("g3_signed")),
    ("04", "g3_signed A_inf", _matrix("g3_signed", _a_inf, "a_inf")),
    ("04", "g4_signed K(inf)", _fixture_curvature("g4_signed")),
    ("04", "g3_signed edited K(inf)", _edit("g3_signed")),
    ("04", "g3_signed edited A_inf", _edited_a_inf("g3_signed")),
    ("04", "g4_signed edited K(inf)", _edit("g4_signed")),
    ("04", "g5_signed edited K(inf)", _edit("g5_signed")),
    ("05a", "signed triangle x diamond K(inf) at (A,1)",
     _curvature(_product("triangle_signed", "diamond_signed", "A", "1"), 0.5)),
    ("05b", "g2_signed K(inf)", _fixture_curvature("g2_signed")),
    ("05b", "g2_signed A_inf", _matrix("g2_signed", _a_inf, "a_inf")),
    ("05b", "g2 x triangle A_inf at (1,A)", _g2_triangle_a_inf),
    ("05b", "g2 x triangle K(inf) at (1,A)",
     _curvature(_product("g2_signed", "triangle_signed", "1", "A"),
                PRODUCT_G2_TRIANGLE["k_inf"], PRODUCT_G2_TRIANGLE["k_tol"])),
    ("05c", "triangle_u2, diamond_u2 signature groups do not commute", _noncommuting_groups),
    ("05c", "noncommuting U(2) product 4*Gamma_2 min eigenvalue at (A,1)",
     _noncommuting_gamma2("1")),
    ("05c", "noncommuting U(2) product K(inf) at (A,1) = 1/2",
     _curvature(_product("triangle_u2", "diamond_u2", "A", "1"),
                PRODUCT_NONCOMMUTING["A|1"]["k_inf"])),
    ("05c", "noncommuting U(2) product 4*Gamma_2 min eigenvalue at (A,2)",
     _noncommuting_gamma2("2")),
    ("05c", "noncommuting U(2) product K(inf) at (A,2) below both factors",
     _noncommuting_bound_fails),
    ("07", "g1_u2 locally balanced at 1 is False", _balanced("g1_u2", "1", False)),
    ("07", "diamond_signed locally balanced at 1 is False", _balanced("diamond_signed", "1", False)),
    ("07", "g5_signed locally balanced at 1 is True", _balanced("g5_signed", "1", True)),
)


def run(criterion: str | None = None) -> list[tuple[str, str, bool, str]]:
    """Run the rows of one criterion, or all rows, as (criterion, name, ok, detail)."""
    out = []
    for crit, name, check in ROWS:
        if criterion is None or crit == criterion:
            ok, detail = check()
            out.append((crit, name, ok, detail))
    return out
