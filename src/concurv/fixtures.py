"""Bundled example graphs with known curvature data.

Each fixture is a graph document (the JSON schema of ``load_graph``), so the
loaders double as schema round-trip exercises.  ``EXPECTED`` holds reference
values for the fixtures: operator matrices, curvature matrices and curvature
values that the ``examples`` CLI command and the acceptance suite verify.

All combinatorial fixtures use unit weights and measures, which is the
convention the reference matrices were computed in.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .graphs import ConnectionGraph, load_graph

ANTIDIAG_I = [[[0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 0.0]]]  # [[0, i], [-i, 0]]
DIAG_1_I = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]     # diag(1, i)


def _doc(dimension, field, vertex_ids, edges):
    return {
        "dimension": dimension,
        "field": field,
        "vertices": [{"id": v, "measure": 1.0} for v in vertex_ids],
        "edges": edges,
    }


def _signed(u, v, sign=1):
    entry = {"u": u, "v": v, "weight": 1.0}
    if sign < 0:
        entry["sign"] = -1
    return entry


def _u2(u, v, sigma=None):
    entry = {"u": u, "v": v, "weight": 1.0}
    if sigma is not None:
        entry["sigma"] = sigma
    return entry


def _build_documents() -> dict[str, dict]:
    docs: dict[str, dict] = {}

    docs["single_edge"] = _doc(1, "real", ["x", "y"], [_signed("x", "y")])

    # 4-vertex U(2) diamond with one off-diagonal unitary on the spherical edge.
    docs["g1_u2"] = _doc(2, "complex", ["1", "2", "3", "4"], [
        _u2("1", "2"), _u2("1", "3"), _u2("2", "3", ANTIDIAG_I), _u2("2", "4"), _u2("3", "4"),
    ])

    # Triangles: one negative edge / one U(2) edge opposite the base vertex A.
    docs["triangle_signed"] = _doc(1, "real", ["A", "B", "C"], [
        _signed("A", "B"), _signed("B", "C"), _signed("A", "C", -1),
    ])
    docs["triangle_u2"] = _doc(2, "complex", ["A", "B", "C"], [
        _u2("A", "B"), _u2("B", "C"), _u2("A", "C", ANTIDIAG_I),
    ])

    # Diamonds (4-cycle plus one spherical edge between the midpoints).
    docs["diamond_signed"] = _doc(1, "real", ["1", "2", "3", "4"], [
        _signed("1", "2"), _signed("1", "3"), _signed("2", "4"), _signed("3", "4"),
        _signed("2", "3", -1),
    ])
    docs["diamond_u2"] = _doc(2, "complex", ["1", "2", "3", "4"], [
        _u2("1", "2"), _u2("1", "3"), _u2("2", "4"), _u2("3", "4"),
        _u2("2", "3", DIAG_1_I),
    ])

    # Six-vertex signed graphs differing in one edge sign.
    docs["g2_signed"] = _doc(1, "real", ["1", "2", "3", "4", "5", "6"], [
        _signed("1", "2"), _signed("2", "5"), _signed("4", "5"), _signed("1", "4"),
        _signed("1", "3"), _signed("2", "3", -1), _signed("3", "6"),
    ])
    docs["g3_signed"] = _doc(1, "real", ["1", "2", "3", "4", "5", "6"], [
        _signed("1", "2"), _signed("2", "5", -1), _signed("4", "5"), _signed("1", "4"),
        _signed("1", "3"), _signed("2", "3", -1), _signed("3", "6"),
    ])

    # Two disjoint 2-paths from the base vertex.
    docs["g4_signed"] = _doc(1, "real", ["1", "2", "3", "4", "5"], [
        _signed("1", "2"), _signed("2", "4"), _signed("1", "3"), _signed("3", "5"),
    ])

    # All-positive 4-cycle.
    docs["g5_signed"] = _doc(1, "real", ["1", "2", "3", "4"], [
        _signed("1", "2"), _signed("2", "4"), _signed("3", "4"), _signed("1", "3"),
    ])

    # Incomplete 2-ball of a vertex in an infinite 3-regular signed strip
    # whose curvature is positive everywhere.
    docs["positive_strip"] = _doc(1, "real",
                                  [str(k) for k in range(1, 10)], [
        _signed("1", "2", -1), _signed("1", "3"), _signed("1", "4"), _signed("1", "5", -1),
        _signed("2", "3"), _signed("3", "4", -1), _signed("4", "5"),
        _signed("2", "6", -1), _signed("2", "7"), _signed("3", "7", -1),
        _signed("4", "8", -1), _signed("5", "8"), _signed("5", "9", -1),
    ])

    return docs


_DOCUMENTS = _build_documents()


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_DOCUMENTS))


def _document(name: str) -> dict:
    try:
        return _DOCUMENTS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}") from None


def fixture_document(name: str) -> dict:
    """A copy of the named document: editing it leaves the fixture as it is."""
    return copy.deepcopy(_document(name))


def fixture_graph(name: str) -> ConnectionGraph:
    return load_graph(_document(name))


# -- reference values ------------------------------------------------------

_i = 1j

EXPECTED: dict[str, dict] = {
    "g1_u2": {
        "vertex": "1",
        "two_gamma": np.array([
            [2, 0, -1, 0, -1, 0],
            [0, 2, 0, -1, 0, -1],
            [-1, 0, 1, 0, 0, 0],
            [0, -1, 0, 1, 0, 0],
            [-1, 0, 0, 0, 1, 0],
            [0, -1, 0, 0, 0, 1],
        ], dtype=complex),
        "four_gamma2": np.array([
            [10, 0, -7, -_i, -7, -_i, 2, 0],
            [0, 10, _i, -7, _i, -7, 0, 2],
            [-7, -_i, 10, 0, 2, 4 * _i, -2, 0],
            [_i, -7, 0, 10, -4 * _i, 2, 0, -2],
            [-7, -_i, 2, 4 * _i, 10, 0, -2, 0],
            [_i, -7, -4 * _i, 2, 0, 10, 0, -2],
            [2, 0, -2, 0, -2, 0, 2, 0],
            [0, 2, 0, -2, 0, -2, 0, 2],
        ], dtype=complex),
        "four_q": np.array([
            [8, 0, -5, -_i, -5, -_i],
            [0, 8, _i, -5, _i, -5],
            [-5, -_i, 8, 0, 0, 4 * _i],
            [_i, -5, 0, 8, -4 * _i, 0],
            [-5, -_i, 0, 4 * _i, 8, 0],
            [_i, -5, -4 * _i, 0, 0, 8],
        ], dtype=complex),
        "b0": np.array([
            [1, 0, 1, 0, 1, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ], dtype=complex),
        "a_inf": np.array([
            [23, -9 * _i, -9, 7 * _i],
            [9 * _i, 23, -7 * _i, -9],
            [-9, 7 * _i, 23, -9 * _i],
            [-7 * _i, -9, 9 * _i, 23],
        ], dtype=complex) / 8.0,
        "a_inf_eigs": np.array([1.5, 2.0, 2.0, 6.0]),
        "k_inf": 1.5,
    },
    "positive_strip": {
        "vertex": "1",
        "four_gamma": np.array([
            [8, 2, -2, -2, 2],
            [2, 2, 0, 0, 0],
            [-2, 0, 2, 0, 0],
            [-2, 0, 0, 2, 0],
            [2, 0, 0, 0, 2],
        ], dtype=complex),
        "four_gamma2": np.array([
            [28, 11, -12, -12, 11, 1, -2, -2, 1],
            [11, 11, -6, -2, 2, 2, -2, 0, 0],
            [-12, -6, 12, 6, -2, 0, 2, 0, 0],
            [-12, -2, 6, 12, -6, 0, 0, 2, 0],
            [11, 2, -2, -6, 11, 0, 0, -2, 2],
            [1, 2, 0, 0, 0, 1, 0, 0, 0],
            [-2, -2, 2, 0, 0, 0, 2, 0, 0],
            [-2, 0, 0, 2, -2, 0, 0, 2, 0],
            [1, 0, 0, 0, 2, 0, 0, 0, 1],
        ], dtype=complex),
        "b0": np.array([
            [1, -1, 1, 1, -1],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ], dtype=complex),
        "a_inf": np.array([
            [7, -2, 2, 1],
            [-2, 8, 0, 2],
            [2, 0, 8, -2],
            [1, 2, -2, 7],
        ], dtype=complex) / 4.0,
        "k_inf": (7.0 - math.sqrt(17.0)) / 4.0,
    },
    "g2_signed": {
        "vertex": "1",
        "a_inf": np.array([
            [5, 3, 0],
            [3, 1, 4],
            [0, 4, 6],
        ], dtype=complex) / 4.0,
        "k_inf": -0.5502,
        "k_tol": 1e-3,
    },
    "g3_signed": {
        "vertex": "1",
        # Half the printed reference matrix: the reference curvature -0.569 is
        # the smallest eigenvalue of this scale, not of the printed one.
        "a_inf": np.array([
            [3, 6, 12],
            [6, 7, 4],
            [12, 4, 13],
        ], dtype=complex) / 10.0,
        "k_inf": -0.569,
        "k_tol": 1e-3,
        "edit": {
            "yi": "3", "yj": "4", "sign": -1,
            "a_inf_after": np.array([
                [31, 6, 4],
                [6, 9, 6],
                [4, 6, 31],
            ], dtype=complex) / 18.0,
            "k_after": 0.36,
            "k_tol": 1e-3,
        },
    },
    "g4_signed": {
        "vertex": "1",
        "k_inf": 0.0,
        "edit": {"yi": "2", "yj": "3", "sign": -1, "k_after": 0.0, "k_tol": 1e-9},
    },
    "g5_signed": {
        "vertex": "1",
        "k_inf": 2.0,
        "edit": {"yi": "2", "yj": "3", "sign": -1, "k_after": 1.5, "k_tol": 1e-9},
    },
    "triangle_signed": {"vertex": "A", "k_inf": 0.5},
    "triangle_u2": {"vertex": "A", "k_inf": 0.5},
    "diamond_signed": {"vertex": "1", "k_inf": 1.5},
    "diamond_u2": {"vertex": "1", "k_inf": 1.5},
}

# Product of the six-vertex signed graph with the signed triangle, at the
# vertex (1, A): curvature matrix in the block order below (which happens to
# be the sorted product order).
PRODUCT_G2_TRIANGLE = {
    "labels": ("1|B", "1|C", "2|A", "3|A", "4|A"),
    "a_inf": np.array([
        [19, -15, -9, -9, 0],
        [-15, 19, 9, 9, 0],
        [-9, 9, 19, 15, 0],
        [-9, 9, 15, 11, 8],
        [0, 0, 0, 8, 12],
    ], dtype=complex) / 8.0,
    "k_inf": -0.454,
    "k_tol": 1e-3,
}

# Product of the two U(2) fixtures triangle_u2 and diamond_u2, whose
# signature groups do not commute, keyed by product vertex.  At (A, 1),
# 4*Gamma_2 is a 20x20 Gaussian-integer matrix; its smallest eigenvalue
# agrees with a 50-digit recomputation (0.04291885155013573396...), and
# K(inf) = 1/2 = min(K_tri(A), K_dia(1)), so the commuting-case bound holds
# there with equality.  At (A, 2) the bound fails:
# K(inf) < min(K_tri(A), K_dia(2)).  A reference eigenvalue of -0.7660 at
# (A, 1) was once recorded for this pair; no placement of the two connections
# on these graphs reproduces it, and nothing asserts it.
PRODUCT_NONCOMMUTING = {
    "A|1": {"gamma2_min_eig": 0.042918851550136, "eig_tol": 1e-9, "k_inf": 0.5},
    "A|2": {"gamma2_min_eig": -0.203453, "eig_tol": 1e-6,
            "k_inf": -1.334981, "k_tol": 1e-6, "k_factor2": -0.461072},
}

