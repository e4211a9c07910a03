"""Cartesian products of connection graphs, the block decomposition of
product curvature matrices, and the star product of curvature functions.

The product of (G, sigma) and (G', sigma') at scales alpha, beta has vertex
measures mu_x mu_x', edge weights ``alpha w_xy mu_x'`` / ``beta w'_x'y' mu_x``
and copies the factor connections.  When the connections of the 2-balls of x
and x' commute, the product curvature matrix at (x, x') in canonical bases
decomposes as

    A_{N+N'}(x, x') = diag(alpha A_N(x), beta A_N'(x')) + R(x, x') + J(x, x')

with R and J positive semidefinite, which yields the product curvature lower
bound ``min(alpha K(N), beta K'(N'))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, ValidationError
from .curvature import INF, _check_n, curvature_bundle, curvature_matrix
from .graphs import (ConnectionGraph, _ball_graph, _check_size, local_structure,
                     signature_groups_commute)
from .hermitian import _eigh_rank, _psd_within

DECOMP_TOL = 1e-9
STAR_TOL = 1e-12        # star product bisection stops at a bracket of STAR_TOL * t
SEPARATOR = "|"


@dataclass(frozen=True)
class ProductSpec:
    """Scales and dimension handling for a Cartesian product.

    ``lift="tensor"`` builds the d1*d2-dimensional product with connections
    sigma (x) I and I (x) sigma', which is the only option when the factor
    dimensions differ (those lifted signature groups always commute).
    """

    alpha: float = 1.0
    beta: float = 1.0
    lift: str = "same-dimension"

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValidationError("product scales alpha, beta must be positive")
        if self.lift not in ("same-dimension", "tensor"):
            raise ValidationError(f"unknown lift {self.lift!r}")


def product_vertex(x: str, x2: str) -> str:
    return f"{x}{SEPARATOR}{x2}"


def _tensor_lift(g: ConnectionGraph, d_left: int, d_right: int, side: str) -> ConnectionGraph:
    """Lift a factor to dimension d_left * d_right by a Kronecker identity."""
    ids, mu, u, v, w, s = g._arrays()
    d = d_left * d_right
    _check_size(u.size, d)
    # np.kron(s, I) or np.kron(I, s) for every connection s at once
    if side == "left":
        lifted = s[:, :, None, :, None] * np.eye(d_right)[:, None, :]
    else:
        lifted = np.eye(d_left)[:, None, :, None] * s[:, None, :, None, :]
    return ConnectionGraph._from_arrays(d, g.field, ids, mu, u, v, w, lifted.reshape(-1, d, d))


def _lifted_factors(g: ConnectionGraph, g2: ConnectionGraph, spec: ProductSpec):
    if spec.lift == "tensor":
        d1, d2 = g.dimension, g2.dimension
        return _tensor_lift(g, d1, d2, "left"), _tensor_lift(g2, d1, d2, "right")
    if g.dimension != g2.dimension:
        raise ValidationError(
            f"factor dimensions {g.dimension} and {g2.dimension} differ; "
            "use ProductSpec(lift='tensor')"
        )
    return g, g2


def cartesian_product(g: ConnectionGraph, g2: ConnectionGraph,
                      spec: ProductSpec = ProductSpec()) -> ConnectionGraph:
    """The Cartesian product graph with vertex ids joined as "x|x'"."""
    gl, g2l = _lifted_factors(g, g2, spec)
    for v in gl.vertex_ids + g2l.vertex_ids:
        if SEPARATOR in v:
            raise ValidationError(
                f"vertex id {v!r} contains {SEPARATOR!r}; product ids would be ambiguous")
    ids1, mu1, u1, v1, w1, s1 = gl._arrays()
    ids2, mu2, u2, v2, w2, s2 = g2l._arrays()
    n1, n2 = len(ids1), len(ids2)
    _check_size(u1.size * n2 + u2.size * n1, gl.dimension)
    # Vertex (ids1[i], ids2[j]) is i * n2 + j; each of gl's edges at every x2, then g2l's
    ids = tuple(product_vertex(x, x2) for x in ids1 for x2 in ids2)
    u, v = np.concatenate([(np.stack([u1, v1])[..., None] * n2 + np.arange(n2)).reshape(2, -1),
                           (np.arange(n1) * n2 + np.stack([u2, v2])[..., None]).reshape(2, -1)],
                          axis=1)
    with np.errstate(over="ignore"):  # _edge_index rejects an infinite measure or weight
        mu = np.multiply.outer(mu1, mu2).ravel()
        w = np.concatenate([np.multiply.outer(spec.alpha * w1, mu2).ravel(),
                            np.multiply.outer(spec.beta * w2, mu1).ravel()])
    field = "real" if gl.field == "real" and g2l.field == "real" else "complex"
    return ConnectionGraph._from_arrays(
        gl.dimension, field, ids, mu, u, v, w,
        np.concatenate([np.repeat(s1, n2, axis=0), np.repeat(s2, n1, axis=0)]))


@dataclass(frozen=True)
class ProductDecomposition:
    """R/J split of a product curvature matrix, in factor-block basis order.

    ``block_order`` lists the product 1-sphere labels in the order used by
    the matrices here: first the G-direction neighbors, then the
    G'-direction ones (each sorted as in the factor local structures).
    """

    r: np.ndarray
    j: np.ndarray
    residual: float
    a_product: np.ndarray
    block_order: tuple[str, ...]


def _j_matrix(v0, v02, alpha, beta, n, n2) -> np.ndarray:
    """The dimension-coupling PSD term J for finite or infinite N, N' (``2 / inf``
    is exactly 0)."""
    c12 = 2.0 / (n + n2)
    c11, c22 = 2.0 / n - c12, 2.0 / n2 - c12
    return _blocks(alpha * c11 * (v0 @ v0.conj().T), beta * c22 * (v02 @ v02.conj().T),
                   -np.sqrt(alpha * beta) * c12 * (v0 @ v02.conj().T))


def _blocks(top: np.ndarray, bottom: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """The block matrix ``[[top, cross], [cross^H, bottom]]``."""
    return np.block([[top, cross], [cross.conj().T, bottom]])


def product_decomposition(g: ConnectionGraph, g2: ConnectionGraph, spec: ProductSpec,
                          x: str, x2: str, n, n2) -> ProductDecomposition:
    """Decompose the product curvature matrix at (x, x') into factor blocks.

    Reads only the 2-balls of x and x': the product of their ball graphs
    (``graphs._ball_graph``) has the ball at (x, x') and the factor balls of
    the whole product, so the theorem applied to it gives the decomposition
    here.  Refuses a pair whose 2-ball connections do not commute: the
    decomposition genuinely fails without that.  Asserts the identity to
    1e-9 and that R and J are PSD, or raises :class:`CrossCheckError`.
    """
    n, n2 = _check_n(n), _check_n(n2)
    ball, ball2 = _ball_graph(g, x), _ball_graph(g2, x2)
    gl, g2l = _lifted_factors(ball, ball2, spec)
    if not signature_groups_commute(gl, g2l):
        raise ValidationError(
            f"the connections of the 2-balls of {x!r} and {x2!r} do not commute; "
            "the product decomposition does not apply"
        )
    alpha, beta = spec.alpha, spec.beta
    d = gl.dimension

    loc1 = local_structure(gl, x)
    loc2 = local_structure(g2l, x2)
    e1, e2 = curvature_bundle(loc1), curvature_bundle(loc2)

    # R couples the kernel-block corrections of the two factors; the relative
    # cutoff of the one rank decision gives (s a)^+ = a^+ / s for s > 0.
    a_sum_pinv = _eigh_rank(alpha**2 * e1.a + beta**2 * e2.a).pinv()
    w1c = e1.omega_t.conj().T   # this is conj(omega) of the first factor
    w2c = e2.omega_t.conj().T
    r = _blocks(alpha**3 * w1c @ (e1.eig.pinv() / alpha**2 - a_sum_pinv) @ e1.omega_t,
                beta**3 * w2c @ (e2.eig.pinv() / beta**2 - a_sum_pinv) @ e2.omega_t,
                -(alpha * beta) ** 1.5 * w1c @ a_sum_pinv @ e2.omega_t)
    j = _j_matrix(e1.v0, e2.v0, alpha, beta, n, n2)
    blockdiag = _blocks(alpha * e1.a_n(n), beta * e2.a_n(n2),
                        np.zeros((e1.v0.shape[0], e2.v0.shape[0])))

    # Product curvature matrix in the product's own (sorted) basis, permuted
    # into factor-block order for the comparison.
    locp = local_structure(cartesian_product(ball, ball2, spec), product_vertex(x, x2))
    order = (tuple(product_vertex(y, x2) for y in loc1.s1)
             + tuple(product_vertex(x, y2) for y2 in loc2.s1))
    if set(order) != set(locp.s1):
        raise CrossCheckError("product 1-sphere does not match the factor 1-spheres")
    idx = (np.array([locp.s1.index(label) for label in order])[:, None] * d
           + np.arange(d)).ravel()
    a_perm = curvature_matrix(locp, n + n2).mat[np.ix_(idx, idx)]

    residual = float(np.max(np.abs(a_perm - (blockdiag + r + j))))
    scale = max(1.0, float(np.max(np.abs(a_perm))))
    if residual > DECOMP_TOL * scale:
        raise CrossCheckError(
            f"product decomposition residual {residual:.3e} exceeds tolerance"
        )
    for name, mat in (("R", r), ("J", j)):
        if not _psd_within(mat, float(np.max(np.abs(mat)))):
            lam = float(np.linalg.eigvalsh(mat)[0])
            raise CrossCheckError(f"{name}(x, x') is not PSD: lambda_min = {lam:.3e}")
    return ProductDecomposition(r=r, j=j, residual=residual, a_product=a_perm,
                                block_order=order)


def star_product(f1, f2, t) -> float:
    """The star product of two curvature-like functions at t.

    ``f1`` and ``f2`` must be continuous, monotone non-decreasing callables on
    (0, inf] diverging to -inf at 0.  For finite t the defining balance
    ``f1(t1) = f2(t - t1)`` is solved by bisection on t1 (the difference is
    monotone in t1) to a bracket of STAR_TOL * t; ``t = inf`` returns
    ``min(f1(inf), f2(inf))``, matching the common limit.
    """
    t = _check_n(t)
    if t == INF:
        return min(float(f1(INF)), float(f2(INF)))

    def gap(t1: float) -> float:
        return float(f1(t1)) - float(f2(t - t1))

    lo, hi = t * 1e-12, t * (1.0 - 1e-12)
    if 2.0 / lo == INF:   # the bracket end would fail the N rule
        raise ValidationError(f"star_product: t = {t!r} is too small: t * 1e-12 is not a valid N")
    glo, ghi = gap(lo), gap(hi)
    if glo > 0 or ghi < 0:
        raise ValidationError(
            "star_product: inputs do not bracket a balance point; "
            "the profiles are not monotone with the required limits"
        )
    while hi - lo > STAR_TOL * t:
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return float(f1(0.5 * (lo + hi)))
