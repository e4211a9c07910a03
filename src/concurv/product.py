"""Cartesian products of connection graphs, the block decomposition of
product curvature matrices, and the star product of curvature functions.

The product of (G, sigma) and (G', sigma') at scales alpha, beta has vertex
measures mu_x mu_x', edge weights ``alpha w_xy mu_x'`` / ``beta w'_x'y' mu_x``
and copies the factor connections.  When the two signature groups commute,
the product curvature matrix at (x, x') in canonical bases decomposes as

    A_{N+N'}(x, x') = diag(alpha A_N(x), beta A_N'(x')) + R(x, x') + J(x, x')

with R and J positive semidefinite, which yields the product curvature lower
bound ``min(alpha K(N), beta K'(N'))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, ValidationError
from .curvature import INF, _check_n, curvature_bundle, curvature_matrix
from .graphs import ConnectionGraph, local_structure, signature_groups_commute
from .hermitian import is_psd, pinv

DECOMP_TOL = 1e-9
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
    edges = []
    for u, v, w, s in g.edge_list():
        lifted = np.kron(s, np.eye(d_right)) if side == "left" else np.kron(np.eye(d_left), s)
        edges.append((u, v, w, lifted))
    return ConnectionGraph(
        d_left * d_right, g.field,
        [(v, g.measure(v)) for v in g.vertex_ids], edges,
    )


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
    for graph in (g, g2):
        for v in graph.vertex_ids:
            if SEPARATOR in v:
                raise ValidationError(
                    f"vertex id {v!r} contains {SEPARATOR!r}; product ids would be ambiguous"
                )
    gl, g2l = _lifted_factors(g, g2, spec)
    alpha, beta = spec.alpha, spec.beta
    vertices = [
        (product_vertex(x, x2), gl.measure(x) * g2l.measure(x2))
        for x in gl.vertex_ids for x2 in g2l.vertex_ids
    ]
    edges = []
    for u, v, w, s in gl.edge_list():
        for x2 in g2l.vertex_ids:
            edges.append((product_vertex(u, x2), product_vertex(v, x2),
                          alpha * w * g2l.measure(x2), s))
    for u2, v2, w, s in g2l.edge_list():
        for x in gl.vertex_ids:
            edges.append((product_vertex(x, u2), product_vertex(x, v2),
                          beta * w * gl.measure(x), s))
    field = "real" if gl.field == "real" and g2l.field == "real" else "complex"
    return ConnectionGraph(gl.dimension, field, vertices, edges)


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
    a_blockdiag: np.ndarray
    block_order: tuple[str, ...]


def _j_matrix(v0, v02, alpha, beta, n, n2) -> np.ndarray:
    """The dimension-coupling PSD term J for finite or infinite N, N'."""
    ntot = n + n2

    def inv(t: float) -> float:
        return 0.0 if t == INF else 1.0 / t

    c11 = 2.0 * inv(n) - 2.0 * inv(ntot)
    c22 = 2.0 * inv(n2) - 2.0 * inv(ntot)
    c12 = 2.0 * inv(ntot)
    md1, md2 = v0.shape[0], v02.shape[0]
    out = np.zeros((md1 + md2, md1 + md2), dtype=complex)
    out[:md1, :md1] = alpha * c11 * (v0 @ v0.conj().T)
    out[md1:, md1:] = beta * c22 * (v02 @ v02.conj().T)
    cross = -np.sqrt(alpha * beta) * c12 * (v0 @ v02.conj().T)
    out[:md1, md1:] = cross
    out[md1:, :md1] = cross.conj().T
    return out


def product_decomposition(g: ConnectionGraph, g2: ConnectionGraph, spec: ProductSpec,
                          x: str, x2: str, n, n2) -> ProductDecomposition:
    """Decompose the product curvature matrix at (x, x') into factor blocks.

    Requires commuting signature groups (the decomposition genuinely fails
    without them); refuses otherwise.  Asserts the decomposition identity to
    1e-9 and that both correction terms R and J are PSD; a violation raises
    :class:`CrossCheckError`.  The plain curvature of the product graph is
    available regardless through the curvature module.
    """
    n = _check_n(n)
    n2 = _check_n(n2)
    gl, g2l = _lifted_factors(g, g2, spec)
    if not signature_groups_commute(gl, g2l):
        raise ValidationError(
            "the signature groups of the factors do not commute; "
            "the product decomposition does not apply"
        )
    alpha, beta = spec.alpha, spec.beta
    d = gl.dimension

    loc1 = local_structure(gl, x)
    loc2 = local_structure(g2l, x2)
    bun1 = curvature_bundle(loc1)
    bun2 = curvature_bundle(loc2)
    a1n = bun1.a_n(n).mat
    a2n = bun2.a_n(n2).mat

    # R couples the kernel-block corrections of the two factors.
    a_sum_pinv = pinv(alpha**2 * bun1.a + beta**2 * bun2.a)
    w1c = bun1.omega_t.conj().T   # this is conj(omega) of the first factor
    w2c = bun2.omega_t.conj().T
    md1, md2 = loc1.m * d, loc2.m * d
    r = np.zeros((md1 + md2, md1 + md2), dtype=complex)
    r[:md1, :md1] = alpha**3 * w1c @ (pinv(alpha**2 * bun1.a) - a_sum_pinv) @ bun1.omega_t
    r[md1:, md1:] = beta**3 * w2c @ (pinv(beta**2 * bun2.a) - a_sum_pinv) @ bun2.omega_t
    cross = -(alpha * beta) ** 1.5 * w1c @ a_sum_pinv @ bun2.omega_t
    r[:md1, md1:] = cross
    r[md1:, :md1] = cross.conj().T

    j = _j_matrix(bun1.v0, bun2.v0, alpha, beta, n, n2)

    blockdiag = np.zeros_like(r)
    blockdiag[:md1, :md1] = alpha * a1n
    blockdiag[md1:, md1:] = beta * a2n

    # Product curvature matrix in the product's own (sorted) basis, permuted
    # into factor-block order for the comparison.
    prod = cartesian_product(g, g2, spec)
    locp = local_structure(prod, product_vertex(x, x2))
    a_prod = curvature_matrix(locp, n + n2).mat
    order = tuple(product_vertex(y, x2) for y in loc1.s1) + tuple(
        product_vertex(x, y2) for y2 in loc2.s1
    )
    if set(order) != set(locp.s1):
        raise CrossCheckError("product 1-sphere does not match the factor 1-spheres")
    idx = np.concatenate([
        np.arange(locp.s1.index(label) * d, locp.s1.index(label) * d + d)
        for label in order
    ])
    a_perm = a_prod[np.ix_(idx, idx)]

    residual = float(np.max(np.abs(a_perm - (blockdiag + r + j))))
    scale = max(1.0, float(np.max(np.abs(a_perm))))
    if residual > DECOMP_TOL * scale:
        raise CrossCheckError(
            f"product decomposition residual {residual:.3e} exceeds tolerance"
        )
    for name, mat in (("R", r), ("J", j)):
        if not is_psd(mat):
            lam = float(np.linalg.eigvalsh(mat)[0])
            raise CrossCheckError(f"{name}(x, x') is not PSD: lambda_min = {lam:.3e}")
    return ProductDecomposition(
        r=r, j=j, residual=residual, a_product=a_perm,
        a_blockdiag=blockdiag, block_order=order,
    )


def star_product(f1, f2, t, tol: float = 1e-12, max_iter: int = 200) -> float:
    """The star product of two curvature-like functions at t.

    ``f1`` and ``f2`` must be continuous, monotone non-decreasing callables on
    (0, inf] diverging to -inf at 0.  For finite t the defining balance
    ``f1(t1) = f2(t - t1)`` is solved by bisection on t1 (the difference is
    monotone in t1); ``t = inf`` returns ``min(f1(inf), f2(inf))``, matching
    the common limit.
    """
    t = _check_n(t)
    if t == INF:
        return min(float(f1(INF)), float(f2(INF)))

    def gap(t1: float) -> float:
        return float(f1(t1)) - float(f2(t - t1))

    lo = t * 1e-12
    hi = t * (1.0 - 1e-12)
    glo, ghi = gap(lo), gap(hi)
    if glo > 0 or ghi < 0:
        raise ValidationError(
            "star_product: inputs do not bracket a balance point; "
            "the profiles are not monotone with the required limits"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * t:
            break
    return float(f1(0.5 * (lo + hi)))
