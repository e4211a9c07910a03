"""Tangent space at a vertex, extension maps, and the Ricci/metric tensors.

A tangent vector is an md complex vector with one d-block per 1-sphere
neighbor (in sorted order), identified with the gradient data
``v_i = sigma_xyi f(yi) - f(x)`` of a function class on the 1-ball.  The map
``Phi`` lifts a tangent vector back to a function on the 1-ball, ``Psi``
extends a 1-ball function to the 2-ball by the energy-minimizing completion,
and the Ricci tensor evaluates the iterated form on that extension.  The
curvature matrices are exactly the matrix representations of the Ricci
tensor in g-orthonormal bases.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossCheckError, ValidationError
from .curvature import curvature_bundle, p0_transpose, _check_n
from .graphs import LocalStructure
from .hermitian import min_eig_hermitian, pinv
from .operators import delta_matrix, gamma2_matrix, q_matrix

PHI_RESIDUAL_TOL = 1e-9


def tangent_from_function(local: LocalStructure, f) -> np.ndarray:
    """Gradient coordinates of a 1-ball function: stack of sigma_xyi f(yi) - f(x)."""
    fx = np.atleast_1d(np.asarray(f[local.center], dtype=complex))
    fy = np.array([np.atleast_1d(np.asarray(f[y], dtype=complex)) for y in local.s1])
    return ((local.sigma_x @ fy[:, :, None])[:, :, 0] - fx).reshape(local.m * local.d)


def _under_block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (m+1)d x md matrix with the m d x d ``blocks`` on the diagonal
    below a zero first block row."""
    m, d, _ = blocks.shape
    out = np.zeros((m + 1, d, m, d), dtype=complex)
    ys = np.arange(m)
    out[ys + 1, :, ys, :] = blocks
    return out.reshape((m + 1) * d, m * d)


def psi_extend(local: LocalStructure, w: np.ndarray) -> np.ndarray:
    """Extend a 1-ball vector to the 2-ball by the minimizing completion.

    Appends ``f2 = -D^{-1} conj(Gamma_2[S2, B1]) w`` where D is the (real,
    diagonal, positive) 2-sphere block of Gamma_2.  The completion zeroes the
    norm-square remainder term of the Schur identity, so the Gamma_2 form of
    the output equals the Q form of the input.  With n = 0 the input is
    returned unchanged.
    """
    d, m, n = local.d, local.m, local.n
    w = np.asarray(w, dtype=complex)
    if w.shape != ((m + 1) * d,):
        raise ValidationError(f"psi_extend: expected shape ({(m + 1) * d},), got {w.shape}")
    if n == 0:
        return w.copy()
    g2 = gamma2_matrix(local).mat
    b1 = (m + 1) * d
    dinv = 1.0 / np.real(np.diag(g2)[b1:])
    f2 = -dinv * (np.conj(g2[b1:, :b1]) @ w)
    return np.concatenate([w, f2])


def phi_map(local: LocalStructure) -> np.ndarray:
    """The d x md matrix F of the compensation map phi: v -> F v.

    phi solves ``a conj(phi(v)) = -p0^T 2Q(x) (0; sigma^T conj(v)-stack)``
    through the pseudoinverse of a (minimum-norm choice; any solution gives
    the same curvature matrices).  Solvability is checked and a residual
    beyond tolerance raises, since it would contradict the range condition
    ``a a^+ omega^T = omega^T``.  For a balanced ball both sides vanish and
    phi is the zero map.
    """
    two_q = q_matrix(local).mat / 2.0
    p0t = p0_transpose(local)
    a = p0t @ two_q @ p0t.conj().T
    # T maps conj(v) to the padded stack (0; sigma_xyi^T conj(v_i)).
    t = _under_block_diagonal(local.sigma_x.transpose(0, 2, 1))
    w = p0t @ two_q @ t
    scale = max(1.0, float(np.max(np.abs(two_q))))
    if float(np.linalg.norm(a, 2)) <= 1e-10 * scale:
        # numerically zero kernel block (balanced ball): any map works and
        # zero is the canonical choice; a raw pseudoinverse of pure noise
        # would produce a huge spurious map instead
        m_conj = np.zeros_like(w)
    else:
        m_conj = -pinv(a) @ w
    resid = np.max(np.abs(w + a @ m_conj)) if w.size else 0.0
    if float(resid) > PHI_RESIDUAL_TOL * scale:
        raise CrossCheckError(
            f"phi_map solvability residual {float(resid):.3e} exceeds tolerance"
        )
    return np.conj(m_conj)


def phi_matrix(local: LocalStructure, f: np.ndarray | None = None) -> np.ndarray:
    """The (m+1)d x md matrix of Phi: v -> (phi(v); sigma^{-1}(v_i + phi(v)))."""
    if f is None:
        f = phi_map(local)
    p0 = p0_transpose(local).T  # blocks I_d, sigma^{-1} stacked
    return p0 @ f + _under_block_diagonal(local.sigma_x.conj().transpose(0, 2, 1))


def ric_and_metric(local: LocalStructure, n, v1: np.ndarray, v2: np.ndarray,
                   phi: np.ndarray | None = None):
    """The Ricci tensor Ric_N(v1, v2) and the metric g(v1, v2).

    Both are sesquilinear (conjugate-linear in the second argument).  The
    metric is ``sum_i p_xyi v1_i . conj(v2_i)``, independent of the phi
    choice; Ric evaluates 2*Gamma_2 on the Psi-extended Phi lifts minus the
    (2/N) Laplacian-square term on the Phi lifts.
    """
    n = _check_n(n)
    d, m = local.d, local.m
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    if v1.shape != (m * d,) or v2.shape != (m * d,):
        raise ValidationError(f"tangent vectors must have shape ({m * d},)")

    phim = phi_matrix(local, phi)
    w1 = phim @ v1
    w2 = phim @ v2
    e1 = psi_extend(local, w1)
    e2 = psi_extend(local, w2)
    two_g2 = gamma2_matrix(local).mat / 2.0
    ric = e1 @ two_g2 @ np.conj(e2)
    if n != np.inf:
        delta = delta_matrix(local)
        ric -= (2.0 / n) * (w1 @ delta) @ np.conj(w2 @ delta)

    g = local.p_x @ (v1 * np.conj(v2)).reshape(m, d).sum(axis=1)
    return complex(ric), complex(g)


def coordinate_map(local: LocalStructure, b: np.ndarray,
                   phi: np.ndarray | None = None) -> np.ndarray:
    """The md x md matrix of v -> v_B, the g-orthonormal coordinates induced by B."""
    d = local.d
    binv_t = np.linalg.inv(np.asarray(b, dtype=complex)).T
    return (binv_t @ phi_matrix(local, phi))[d:, :]


def tensor_matrix_check(local: LocalStructure, n, b: np.ndarray | None = None,
                        seed: int = 0, trials: int = 8) -> float:
    """Numeric consistency of the tensor and its matrix representation.

    For random tangent vectors v, checks ``Ric_N(v, v) = v_B^T A_N conj(v_B)``
    and ``g(v, v) = |v_B|^2`` with ``v_B`` the B-induced coordinates, and that
    the smallest eigenvector of A_N pulled back through the coordinate map
    attains ``Ric/g = lambda_min``.  Returns the largest residual seen.
    """
    n = _check_n(n)
    d, m = local.d, local.m
    bundle = curvature_bundle(local, b)
    a_n = bundle.a_n(n).mat
    f = phi_map(local)
    xi = coordinate_map(local, bundle.b, f)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=m * d) + 1j * rng.normal(size=m * d)
        v /= np.linalg.norm(v)
        ric, g = ric_and_metric(local, n, v, v, phi=f)
        vb = xi @ v
        worst = max(worst, abs(ric - vb @ a_n @ np.conj(vb)))
        worst = max(worst, abs(g - np.vdot(vb, vb)))

    # The form here is v -> v^T A conj(v), whose minimizer is the conjugate
    # of the usual eigenvector.
    lam, vec, _ = min_eig_hermitian(bundle.a_n(n))
    v_star = np.linalg.solve(xi, np.conj(vec))
    ric, g = ric_and_metric(local, n, v_star, v_star, phi=f)
    worst = max(worst, abs(ric / g - lam))
    return float(worst)
