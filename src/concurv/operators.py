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

import numpy as np

from .graphs import LocalStructure
from .hermitian import HermitianMatrix


def _neighbour_stack(local: LocalStructure, rates: np.ndarray | None = None,
                     diagonal: bool = False) -> np.ndarray:
    """The 1-ball layout: one d x d block ``rates_i sigma_xy_i^T`` per sorted
    neighbour (``sigma_xy_i^T`` when ``rates`` is None), stacked into an md x d
    matrix or, with ``diagonal``, on the diagonal of an md x md one.  With S
    the plain stack, ``p0^T = [I, S^H]``; with S_p that of the rates,
    ``Delta(x) = [-(d_x/mu_x) I; S_p]`` and ``2*Gamma(x)`` has blocks ``-S_p``."""
    d, m = local.d, local.m
    blocks = local.sigma_x.transpose(0, 2, 1)
    if rates is not None:
        blocks = rates[:, None, None] * blocks
    if not diagonal:
        return blocks.reshape(m * d, d)
    out = np.zeros((m, d, m, d), dtype=complex)
    ys = np.arange(m)
    out[ys, :, ys, :] = blocks
    return out.reshape(m * d, m * d)


def delta_matrix(local: LocalStructure) -> np.ndarray:
    """The (m+1)d x d Laplacian block Delta(x).

    Its transpose is ``(-(d_x/mu_x) I, p_xy1 sigma_xy1, ..., p_xym sigma_xym)``,
    so that for the local vector f of a function, ``f^T Delta(x)`` is the row
    vector ``(Delta f(x))^T``.
    """
    return np.concatenate([-local.dx_over_mux * np.eye(local.d),
                           _neighbour_stack(local, local.p_x)])


def gamma_matrix(local: LocalStructure) -> HermitianMatrix:
    """2*Gamma(x): the (m+1)d form matrix of the squared gradient at x."""
    return HermitianMatrix(_gamma_array(local))


def _gamma_array(local: LocalStructure) -> np.ndarray:
    """2*Gamma(x) as a plain array, exactly Hermitian by construction:
    ``[[(d_x/mu_x) I, -S_p^H], [-S_p, diag(p_xyi) (x) I_d]]``."""
    s = _neighbour_stack(local, local.p_x)
    return np.block([[local.dx_over_mux * np.eye(local.d), -s.conj().T],
                     [-s, np.diag(np.repeat(local.p_x, local.d))]])


def gamma2_matrix(local: LocalStructure) -> HermitianMatrix:
    """4*Gamma_2(x): the (m+n+1)d iterated form matrix (see :func:`_gamma2_array`)."""
    return HermitianMatrix(_gamma2_array(local))


def _ball_blocks(local: LocalStructure):
    """The blocks of 4*Gamma_2(x) that 4*Q needs, from the ball's edge
    arrays: the (m+1)d 1-ball block G11, the 1-ball x 2-sphere block C and
    the diagonal w of the 2-sphere block.  No (m+n+1)d matrix is formed.

    All come from the md x (m+n)d matrix W, whose block (i, v) is
    ``p_xyi p_yiv conj(sigma_yiv)`` for each edge from y_i into the 1- or
    2-sphere.  With ``X = (conj sigma_xy1, ..., conj sigma_xym)``, the center
    row of G11 is ``X W11`` plus the diagonal terms, which ride in W's
    otherwise empty diagonal blocks; its 1-sphere block is
    ``2 V V^H - 2 (W11 + W11^H)`` with ``V = stack(p_xyi sigma_xyi^T)`` off
    its diagonal; ``C = [X; -2I] W12``; and w_k = sum_i p_xyi p_yizk > 0.
    Blocks between two 2-sphere vertices vanish.
    """
    d, m, n = local.d, local.m, local.n
    md, b1 = m * d, (m + 1) * d
    P = local.p_x
    row, col, r = local.edge_row, local.edge_col, local.edge_p
    dx = local.dx_over_mux
    pin = r[:m]                                     # p_yix: the first m edges end at x
    dy = np.bincount(row, weights=r, minlength=m)   # d_yi / mu_yi
    c = P[row[m:]] * r[m:]                          # p_xyi p_yiv, edges off the center
    into = np.bincount(col[m:], weights=c, minlength=1 + m + n)
    ys, eye = np.arange(m), np.eye(d)

    w = np.zeros((m, d, m + n, d), dtype=complex)
    w[row[m:], :, col[m:] - 1, :] = c[:, None, None] * local.edge_sigma[m:].conj()
    w[ys, :, ys, :] = (-(2.0 * pin + dy + dx) * P)[:, None, None] * eye
    w = w.reshape(md, (m + n) * d)
    xw = _neighbour_stack(local).conj().T @ w   # X W, X = p0^T without its center block

    g11 = np.empty((b1, b1), dtype=complex)
    g11[:d, :d] = (3.0 * sum((P * pin).tolist()) + dx * dx) * eye
    g11[:d, d:] = xw[:, :md]
    g11[d:, :d] = xw[:, :md].conj().T
    v = _neighbour_stack(local, P)
    w11 = w[:, :md]
    g11[d:, d:] = 2.0 * (v @ v.conj().T - w11 - w11.conj().T)
    diag = (2.0 * P + 3.0 * dy - dx) * P + into[1:m + 1]
    g11[d:, d:].reshape(m, d, m, d)[ys, :, ys, :] = diag[:, None, None] * eye
    return g11, np.concatenate([xw[:, md:], -2.0 * w[:, md:]]), np.repeat(into[m + 1:], d)


def _gamma2_array(local: LocalStructure) -> np.ndarray:
    """4*Gamma_2(x) as a plain array: the blocks of :func:`_ball_blocks`
    placed into the (m+n+1)d matrix."""
    g11, c12, w = _ball_blocks(local)
    b1 = g11.shape[0]
    size = b1 + w.size
    out = np.zeros((size, size), dtype=complex)
    out[:b1, :b1] = g11
    out[:b1, b1:] = c12
    out[b1:, :b1] = c12.conj().T
    out.reshape(-1)[b1 * (size + 1)::size + 1] = w
    return out


def q_matrix(local: LocalStructure) -> HermitianMatrix:
    """4*Q(x): the 2-sphere block of 4*Gamma_2(x) eliminated (see :func:`_q_array`)."""
    return HermitianMatrix(_q_array(local))


def _q_array(local: LocalStructure) -> np.ndarray:
    """4*Q(x) as an exactly Hermitian array: the Schur complement of the
    2-sphere block in 4*Gamma_2(x), formed from the blocks of
    :func:`_ball_blocks` alone.

    ``4*Q = G11 - C diag(1/w) C^H``; since ``C = [X; -2I] W12``, this is
    ``G11 - [X; -2I] M [X; -2I]^H`` with the md x md ``M = (W12 / w) W12^H``.
    The elimination is exact and needs no pseudoinverse because w is
    positive.  For n = 0, C is empty and Q is Gamma_2 restricted to the
    1-ball.
    """
    g11, c12, w = _ball_blocks(local)
    q = g11 - (c12 / w) @ c12.conj().T
    # averaged once here, so that every consumer reads the same Hermitian form
    return (q + q.conj().T) / 2.0
