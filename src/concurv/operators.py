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


def delta_matrix(local: LocalStructure) -> np.ndarray:
    """The (m+1)d x d Laplacian block Delta(x).

    Its transpose is ``(-(d_x/mu_x) I, p_xy1 sigma_xy1, ..., p_xym sigma_xym)``,
    so that for the local vector f of a function, ``f^T Delta(x)`` is the row
    vector ``(Delta f(x))^T``.
    """
    d, m = local.d, local.m
    blocks = np.concatenate([-local.dx_over_mux * np.eye(d)[None],
                             local.p_x[:, None, None] * local.sigma_x.transpose(0, 2, 1)])
    return blocks.reshape((m + 1) * d, d)


def gamma_matrix(local: LocalStructure) -> HermitianMatrix:
    """2*Gamma(x): the (m+1)d form matrix of the squared gradient at x."""
    return HermitianMatrix(_gamma_array(local))


def _gamma_array(local: LocalStructure) -> np.ndarray:
    """2*Gamma(x) as a plain array, exactly Hermitian by construction."""
    d, m = local.d, local.m
    p = local.p_x[:, None, None]
    ys = np.arange(1, m + 1)
    out = np.zeros((m + 1, d, m + 1, d), dtype=complex)   # out[a, :, b, :] is block (a, b)
    out[0, :, 0, :] = local.dx_over_mux * np.eye(d)
    out[0, :, ys, :] = -p * local.sigma_x.conj()
    out[ys, :, 0, :] = -p * local.sigma_x.transpose(0, 2, 1)
    out[ys, :, ys, :] = p * np.eye(d)
    return out.reshape((m + 1) * d, (m + 1) * d)


def gamma2_matrix(local: LocalStructure) -> HermitianMatrix:
    """4*Gamma_2(x): the (m+n+1)d iterated form matrix (see :func:`_gamma2_array`)."""
    return HermitianMatrix(_gamma2_array(local))


def _gamma2_array(local: LocalStructure) -> np.ndarray:
    """4*Gamma_2(x) as a plain array, assembled blockwise.

    The 2-sphere diagonal block is real, diagonal and positive, with entries
    sum_i p_xyi p_yizk; blocks between two 2-sphere vertices vanish.

    Every block comes from the edge arrays of the ball through the md x (m+n)d
    matrix W, whose block (i, v) is ``p_xyi p_yiv conj(sigma_yiv)`` for each
    edge from y_i into the 1- or 2-sphere: the 1-sphere x 2-sphere block is
    ``-2 W12``, the 1-sphere block is ``2 V V^H - 2 (W11 + W11^H)`` with
    ``V = stack(p_xyi sigma_xyi^T)`` off its diagonal, and the center row
    gets ``(conj sigma_xy1, ..., conj sigma_xym) W``.
    """
    d, m, n = local.d, local.m, local.n
    nb, md = 1 + m + n, m * d
    size, b1 = nb * d, d + md
    P, sx = local.p_x, local.sigma_x
    row, col, r = local.edge_row, local.edge_col, local.edge_p
    dx = local.dx_over_mux
    pin = r[:m]                                     # p_yix: the first m edges end at x
    dy = np.bincount(row, weights=r, minlength=m)   # d_yi / mu_yi
    c = P[row[m:]] * r[m:]                          # p_xyi p_yiv, edges off the center
    into = np.bincount(col[m:], weights=c, minlength=nb)

    out = np.zeros((size, size), dtype=complex)
    blocks = out.reshape(nb, d, nb, d)
    blocks[row[m:] + 1, :, col[m:], :] = (-2.0 * c)[:, None, None] * local.edge_sigma[m:].conj()
    minus_2w = out[d:b1, d:]
    sxc = sx.conj().transpose(1, 0, 2)              # conj(sigma_xyi), side by side
    xrow = -0.5 * (sxc.reshape(d, md) @ minus_2w)
    xrow[:, :md] += (sxc * (-(2.0 * pin + dy + dx) * P)[:, None]).reshape(d, md)
    out[:d, :d] = (3.0 * sum((P * pin).tolist()) + dx * dx) * np.eye(d)
    out[:d, d:] = xrow
    out[d:, :d] = xrow.conj().T

    yy = out[d:b1, d:b1]
    yy += yy.conj().T
    v = (P[:, None, None] * sx.transpose(0, 2, 1)).reshape(md, d)
    yy += 2.0 * (v @ v.conj().T)
    ys = np.arange(1, m + 1)
    diag = (2.0 * P + 3.0 * dy - dx) * P + into[1:m + 1]
    blocks[ys, :, ys, :] = diag[:, None, None] * np.eye(d)

    out[b1:, d:b1] = out[d:b1, b1:].conj().T
    out.reshape(-1)[b1 * (size + 1)::size + 1] = np.repeat(into[m + 1:], d)
    return out


def q_matrix(local: LocalStructure) -> HermitianMatrix:
    """4*Q(x): the 2-sphere block of 4*Gamma_2(x) eliminated (see :func:`_q_array`)."""
    return HermitianMatrix(_q_array(local))


def _q_array(local: LocalStructure) -> np.ndarray:
    """4*Q(x) as an exactly Hermitian array: the Schur complement of the
    2-sphere block in the unwrapped 4*Gamma_2(x).

    With ``G11`` the 1-ball block of 4*Gamma_2, ``C`` its 1-ball x 2-sphere
    block and ``w`` the diagonal of its 2-sphere block,
    ``4*Q = G11 - C diag(1/w) C^H``.  The elimination is exact and needs no
    pseudoinverse because the 2-sphere block is, by construction, real,
    diagonal and positive (see :func:`_gamma2_array`).  For n = 0, ``C`` is
    empty and Q is Gamma_2 restricted to the 1-ball.
    """
    g2 = _gamma2_array(local)
    b1 = (local.m + 1) * local.d
    c = g2[:b1, b1:]
    w = np.real(np.diag(g2)[b1:])
    q = g2[:b1, :b1] - (c / w) @ c.conj().T
    # averaged once here: the pseudoinverses downstream amplify asymmetry
    return (q + q.conj().T) / 2.0


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
