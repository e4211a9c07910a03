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
from .curvature import INF, CurvatureBundle, _check_n, _dimension_weight, curvature_bundle
from .graphs import SLACK, LocalStructure, _as_array, _rng
from .hermitian import _scale
from .operators import _ball_blocks, _neighbour_stack

MATRIX_CHECK_TRIALS = 8  # random tangent vectors per tensor_matrix_check


def tangent_from_function(local: LocalStructure, f) -> np.ndarray:
    """Gradient coordinates of a 1-ball function: stack of sigma_xyi f(yi) - f(x).
    Each value ``f[v]`` is taken by the array rule: d numbers, or one number when d = 1."""
    d, shapes = local.d, ((local.d,), ()) if local.d == 1 else ((local.d,),)
    try:
        fx, *fy = [_as_array(f[v], f"f[{v!r}]", *shapes).reshape(d)
                   for v in (local.center, *local.s1)]
    except KeyError as exc:
        raise ValidationError(f"f is missing vertex {exc.args[0]!r}") from None
    return ((local.sigma_x @ np.array(fy)[:, :, None])[:, :, 0] - fx).reshape(local.m * d)


def psi_extend(local: LocalStructure, w: np.ndarray) -> np.ndarray:
    """Extend a 1-ball vector to the 2-ball by the minimizing completion.

    Appends ``f2 = -(C^T / w2) w`` with the 1-ball x 2-sphere block C and
    the positive diagonal 2-sphere block w2 of 4*Gamma_2 (the ball blocks).
    The completion zeroes the norm-square remainder term of the Schur
    identity, so the Gamma_2 form of the output equals the Q form of the
    input.  ``w`` may also be an (m+1)d x k matrix, whose columns are
    extended together.
    """
    b1 = (local.m + 1) * local.d
    w = _as_array(w, "psi_extend: w", (b1,), (b1, None))
    _, c12, w2 = _ball_blocks(local)
    return np.concatenate([w, -(c12.T / w2[:, None]) @ w])


def phi_map(local: LocalStructure) -> np.ndarray:
    """The d x md matrix F of the compensation map phi: v -> F v.

    phi solves ``a conj(phi(v)) = -p0^T 2Q(x) (0; sigma^T conj(v)-stack)``
    through the pseudoinverse of a (minimum-norm; any solution gives the
    same curvature matrices), or is the zero map when that already solves
    it, as on a balanced ball.  A solvability residual beyond tolerance
    raises: it would contradict the range condition ``a a^+ omega^T = omega^T``.
    """
    return _phi(curvature_bundle(local))


def _phi(e: CurvatureBundle) -> np.ndarray:
    """phi from the canonical elimination e: ``-conj(a^+ omega^T) D^{-1}
    blockdiag(sigma_xyi^H)``.  The equation's right side, as a matrix of
    conj(v), is ``omega^T`` times the frame of :func:`_frame`."""
    frame = _frame(e)
    w = e.omega_t @ frame
    bound = SLACK * _scale(e.q2)
    if float(np.max(np.abs(w))) <= bound:
        # the zero map solves the equation and is the canonical choice; the
        # pseudoinverse of a noise-level a would give a huge spurious map
        return np.zeros_like(w)
    m_conj = -(e.eig.pinv() @ e.omega_t) @ frame
    resid = float(np.max(np.abs(w + e.a @ m_conj)))
    if resid > bound:
        raise CrossCheckError(f"phi_map solvability residual {resid:.3e} exceeds tolerance")
    return np.conj(m_conj)


def phi_matrix(local: LocalStructure, f: np.ndarray) -> np.ndarray:
    """The (m+1)d x md matrix of Phi: v -> (phi(v); sigma^{-1}(v_i + phi(v))),
    for the phi matrix ``f`` of :func:`phi_map`.  ``f`` must be d x md: a
    smaller one would broadcast into a different map."""
    f = _as_array(f, "phi", (local.d, local.m * local.d))
    p0 = np.concatenate([np.eye(local.d), _neighbour_stack(local).conj()])  # I_d, sigma^{-1}
    return p0 @ f + np.concatenate([np.zeros((local.d, f.shape[1])),
                                    _neighbour_stack(local, diagonal=True).conj()])


def _tensor_matrices(e: CurvatureBundle, n: float):
    """The md x md matrices R and G of the Ricci tensor and the metric,
    ``Ric_N(v1, v2) = v1^T R conj(v2)`` and ``g(v1, v2) = v1^T G conj(v2)``, from
    the elimination e.  The Psi extensions of the Phi lifts attain the Schur
    complement, so Ric_N's 2*Gamma_2 is 2*Q on Phi; ``p0^T`` annihilates Delta(x),
    so ``Phi^T Delta(x) = P = p_x (x) I_d`` for any phi, and Ric_N's Laplacian
    square is ``(2/N) P P^T``, weighed by A_N's N rule.  G is ``diag(p_x) (x) I_d``."""
    local = e.local
    phim = phi_matrix(local, _phi(e))
    r = phim.T @ e.q2 @ np.conj(phim)
    if n != INF:
        pp = np.kron(np.outer(local.p_x, local.p_x), np.eye(local.d))   # P P^T
        r -= _dimension_weight(n, 2.0, pp) * pp
    return r, np.diag(np.repeat(local.p_x, local.d))


def ric_and_metric(local: LocalStructure, n, v1: np.ndarray, v2: np.ndarray):
    """The Ricci tensor Ric_N(v1, v2) and the metric g(v1, v2).

    Both are sesquilinear (conjugate-linear in the second argument).  The
    metric is ``sum_i p_xyi v1_i . conj(v2_i)``; both are read off the
    matrices R and G of the tensors, built once per call with phi from
    :func:`phi_map`.  An N at which R's dimension term overflows is refused.
    """
    n = _check_n(n)
    md = local.m * local.d
    v1, v2 = _as_array(v1, "tangent vector v1", (md,)), _as_array(v2, "tangent vector v2", (md,))
    r, g = _tensor_matrices(curvature_bundle(local), n)
    return complex(v1 @ r @ np.conj(v2)), complex(v1 @ g @ np.conj(v2))


def coordinate_map(local: LocalStructure, b: np.ndarray) -> np.ndarray:
    """The md x md matrix of v -> v_B, the g-orthonormal coordinates
    ``(B^{-T} Phi)[d:]`` induced by B.  The phi part of Phi drops out, so
    they are ``conj(U D^{-1} blockdiag(sigma_xyi^T))`` for any phi, with U
    from ``CurvatureBundle.basis_unitary``; B is not inverted."""
    e = curvature_bundle(local)
    return np.conj(_frame(e, e.basis_unitary(b)))


def _frame(e: CurvatureBundle, u: np.ndarray | None = None) -> np.ndarray:
    """The frame ``D^{-1} blockdiag(sigma_xyi^T)``, times the unitary u of a basis if given."""
    frame = _neighbour_stack(e.local, np.sqrt(e.local.p_x), diagonal=True)
    return frame if u is None else u @ frame


def tensor_matrix_check(local: LocalStructure, n, b: np.ndarray | None = None,
                        seed: int = 0) -> float:
    """Numeric consistency of the tensor and its matrix representation.

    For MATRIX_CHECK_TRIALS random tangent vectors v, checks ``Ric_N(v, v) =
    v_B^T A_N conj(v_B)`` and ``g(v, v) = |v_B|^2`` with ``v_B`` the B-induced
    coordinates, and that the smallest eigenvector of A_N pulled back through
    the coordinate map attains ``Ric/g = lambda_min``.  Returns the largest
    residual seen, each over ``hermitian._scale`` of the matrix it reads (R, G
    or A_N), so it holds at any scale of the rates (an exactly zero one, as at
    a flat ball, is read as it is).  One elimination serves phi, R and any B.
    ``seed`` follows the seed rule of ``graphs._rng``.
    """
    n = _check_n(n)
    rng = _rng(seed)
    md = local.m * local.d
    e = curvature_bundle(local)
    u = None if b is None else e.basis_unitary(b)   # the basis is checked before N
    a_n = e.a_n(n) if u is None else u @ e.a_n(n) @ u.conj().T
    xi, (r, g) = np.conj(_frame(e, u)), _tensor_matrices(e, n)
    scale_r, scale_g, scale_a = (_scale(m) or 1.0 for m in (r, g, a_n))
    worst = 0.0
    for _ in range(MATRIX_CHECK_TRIALS):
        v = rng.normal(size=md) + 1j * rng.normal(size=md)
        v /= np.linalg.norm(v)
        vb = xi @ v
        worst = max(worst, abs(v @ r @ np.conj(v) - vb @ a_n @ np.conj(vb)) / scale_r)
        worst = max(worst, abs(v @ g @ np.conj(v) - np.vdot(vb, vb)) / scale_g)

    # The form here is v -> v^T A conj(v), whose minimizer is the conjugate
    # of the usual eigenvector.
    lam, vec = np.linalg.eigh(a_n)
    v_star = np.linalg.solve(xi, np.conj(vec[:, 0]))
    ric = v_star @ r @ np.conj(v_star)
    worst = max(worst, abs(ric / (v_star @ g @ np.conj(v_star)) - lam[0]) / scale_a)
    return float(worst)
