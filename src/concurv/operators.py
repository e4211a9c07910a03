"""Local operator matrices at a vertex: the connection Laplacian block
Delta(x), the forms 2*Gamma(x) and 4*Gamma_2(x), and the Schur complement
4*Q(x) eliminating the 2-sphere block.

Scale convention: the assembled matrices are stored exactly as the scaled
versions 2*Gamma, 4*Gamma_2 and 4*Q so that combinatorial fixtures compare
entrywise against known reference matrices.

Basis order everywhere: center first, then the 1-sphere, then the 2-sphere,
each in :class:`~concurv.graphs.LocalStructure` (sorted) order, one d-block
per vertex.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ValidationError
from .graphs import ConnectionGraph, LocalStructure
from .hermitian import HermitianMatrix


def _blk(i: int, d: int) -> slice:
    return slice(i * d, (i + 1) * d)


def delta_matrix(local: LocalStructure) -> np.ndarray:
    """The (m+1)d x d Laplacian block Delta(x).

    Its transpose is ``(-(d_x/mu_x) I, p_xy1 sigma_xy1, ..., p_xym sigma_xym)``,
    so that for the local vector f of a function, ``f^T Delta(x)`` is the row
    vector ``(Delta f(x))^T``.
    """
    d, m = local.d, local.m
    x = local.center
    out = np.zeros(((m + 1) * d, d), dtype=complex)
    out[_blk(0, d), :] = -local.dx_over_mux * np.eye(d)
    for i, y in enumerate(local.s1):
        out[_blk(i + 1, d), :] = local.p[(x, y)] * local.sigma[(x, y)].T
    return out


def gamma_matrix(local: LocalStructure) -> HermitianMatrix:
    """2*Gamma(x): the (m+1)d form matrix of the squared gradient at x."""
    d, m = local.d, local.m
    x = local.center
    out = np.zeros(((m + 1) * d, (m + 1) * d), dtype=complex)
    out[_blk(0, d), _blk(0, d)] = local.dx_over_mux * np.eye(d)
    for i, y in enumerate(local.s1):
        p = local.p[(x, y)]
        s = local.sigma[(x, y)]
        out[_blk(0, d), _blk(i + 1, d)] = -p * s.conj()
        out[_blk(i + 1, d), _blk(0, d)] = -p * s.T
        out[_blk(i + 1, d), _blk(i + 1, d)] = p * np.eye(d)
    return HermitianMatrix(out)


def gamma2_matrix(local: LocalStructure) -> HermitianMatrix:
    """4*Gamma_2(x): the (m+n+1)d iterated form matrix, assembled blockwise.

    The 2-sphere diagonal block is real, diagonal and positive, with entries
    sum_i p_xyi p_yizk; blocks between two 2-sphere vertices vanish.
    """
    d, m, n = local.d, local.m, local.n
    x = local.center
    s1, s2 = local.s1, local.s2
    P = [local.p[(x, y)] for y in s1]
    pin = [local.p[(y, x)] for y in s1]
    dx = local.dx_over_mux
    dy = [local.degree_ratio(y) for y in s1]
    sx = [local.sigma[(x, y)] for y in s1]
    eye = np.eye(d)

    size = (m + n + 1) * d
    out = np.zeros((size, size), dtype=complex)

    out[_blk(0, d), _blk(0, d)] = (3.0 * sum(P[i] * pin[i] for i in range(m)) + dx * dx) * eye

    for i, y in enumerate(s1):
        # (x, y_i)
        block = -(2.0 * pin[i] + dy[i] + dx) * P[i] * sx[i].conj()
        for j, y2 in enumerate(s1):
            if j == i:
                continue
            q_ji = local.rate(y2, y)
            if q_ji:
                block = block + P[j] * q_ji * sx[j].conj() @ local.sigma[(y2, y)].conj()
        out[_blk(0, d), _blk(1 + i, d)] = block
        out[_blk(1 + i, d), _blk(0, d)] = block.conj().T

        # (y_i, y_i)
        diag = (2.0 * P[i] + 3.0 * dy[i] - dx) * P[i]
        diag += sum(P[j] * local.rate(s1[j], y) for j in range(m) if j != i)
        out[_blk(1 + i, d), _blk(1 + i, d)] = diag * eye

        # (y_i, y_j), j > i
        for j in range(i + 1, m):
            y2 = s1[j]
            block = 2.0 * P[i] * P[j] * sx[i].T @ sx[j].conj()
            cross = P[i] * local.rate(y, y2) + P[j] * local.rate(y2, y)
            if cross:
                block = block - 2.0 * cross * local.sigma[(y, y2)].conj()
            out[_blk(1 + i, d), _blk(1 + j, d)] = block
            out[_blk(1 + j, d), _blk(1 + i, d)] = block.conj().T

    for k, z in enumerate(s2):
        col = _blk(1 + m + k, d)
        # (x, z_k)
        block = np.zeros((d, d), dtype=complex)
        for i, y in enumerate(s1):
            r_ik = local.rate(y, z)
            if r_ik:
                block = block + P[i] * r_ik * sx[i].conj() @ local.sigma[(y, z)].conj()
        out[_blk(0, d), col] = block
        out[col, _blk(0, d)] = block.conj().T

        # (y_i, z_k) and the diagonal (z_k, z_k)
        wk = 0.0
        for i, y in enumerate(s1):
            r_ik = local.rate(y, z)
            if not r_ik:
                continue
            wk += P[i] * r_ik
            block = -2.0 * P[i] * r_ik * local.sigma[(y, z)].conj()
            out[_blk(1 + i, d), col] = block
            out[col, _blk(1 + i, d)] = block.conj().T
        out[col, col] = wk * eye

    return HermitianMatrix(out)


def q_matrix(local: LocalStructure) -> HermitianMatrix:
    """4*Q(x): the Schur complement of the 2-sphere block in 4*Gamma_2(x).

    With ``G11`` the 1-ball block of 4*Gamma_2, ``C`` its 1-ball x 2-sphere
    block and ``w`` the diagonal of its 2-sphere block,
    ``4*Q = G11 - C diag(1/w) C^H``.  The elimination is exact and needs no
    pseudoinverse because the 2-sphere block is, by construction, real,
    diagonal and positive (see :func:`gamma2_matrix`).  For n = 0, ``C`` is
    empty and Q is Gamma_2 restricted to the 1-ball.
    """
    g2 = gamma2_matrix(local).mat
    b1 = (local.m + 1) * local.d
    c = g2[:b1, b1:]
    w = np.real(np.diag(g2)[b1:])
    return HermitianMatrix(g2[:b1, :b1] - (c / w) @ c.conj().T)


# -- direct (recursive) evaluation of the forms ---------------------------

def _vec(f: Mapping[str, np.ndarray], v: str, d: int) -> np.ndarray:
    try:
        val = f[v]
    except KeyError:
        raise ValidationError(f"function is undefined at vertex {v!r}") from None
    arr = np.atleast_1d(np.asarray(val, dtype=complex))
    if arr.shape != (d,):
        raise ValidationError(f"value at {v!r} has shape {arr.shape}, expected ({d},)")
    return arr


def _laplacian_sigma(g: ConnectionGraph, f: Mapping, x: str) -> np.ndarray:
    d = g.dimension
    fx = _vec(f, x, d)
    acc = np.zeros(d, dtype=complex)
    for y in g.neighbors(x):
        acc += g.p(x, y) * (g.sigma(x, y) @ _vec(f, y, d) - fx)
    return acc


def _gamma_at(g: ConnectionGraph, f: Mapping, h: Mapping, x: str) -> complex:
    d = g.dimension
    fx, hx = _vec(f, x, d), _vec(h, x, d)
    acc = 0.0 + 0.0j
    for y in g.neighbors(x):
        s = g.sigma(x, y)
        acc += g.p(x, y) * ((s @ _vec(f, y, d) - fx) @ np.conj(s @ _vec(h, y, d) - hx))
    return acc / 2.0


def gamma_forms(g: ConnectionGraph, f: Mapping, h: Mapping, x: str):
    """Gamma(f,h)(x), Gamma_2(f,h)(x) and Delta f(x), straight from the
    recursive definitions.

    This is the matrix-free oracle for the assembled operators: the values
    must match ``f^T M conj(h)`` for each form matrix.  f and h map vertex
    ids to K^d values and must be defined on the whole 2-ball of x.
    """
    x = str(x)
    if x not in g:
        raise ValidationError(f"vertex {x!r} is not in the graph")
    gamma_fh = _gamma_at(g, f, h, x)
    delta_f = _laplacian_sigma(g, f, x)
    delta_h = _laplacian_sigma(g, h, x)

    # Delta applied to the scalar function Gamma(f,h), then the two
    # correction terms Gamma(f, Delta h) and Gamma(Delta f, h).
    lap_gamma = 0.0 + 0.0j
    for y in g.neighbors(x):
        lap_gamma += g.p(x, y) * (_gamma_at(g, f, h, y) - gamma_fh)

    df_map = {v: _laplacian_sigma(g, f, v) for v in (x,) + g.neighbors(x)}
    dh_map = {v: _laplacian_sigma(g, h, v) for v in (x,) + g.neighbors(x)}
    gamma_f_dh = _gamma_at(g, f, dh_map, x)
    gamma_df_h = _gamma_at(g, df_map, h, x)

    gamma2_fh = (lap_gamma - gamma_f_dh - gamma_df_h) / 2.0
    return gamma_fh, gamma2_fh, delta_f
