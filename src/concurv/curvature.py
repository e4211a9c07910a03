"""Curvature matrices and curvature values.

The N-curvature of a vertex is the largest K such that the local form
inequality ``Gamma_2(f)(x) >= (1/N)|Delta f(x)|^2 + K Gamma(f)(x)`` holds for
every K^d-valued f.  After normalizing 2*Gamma(x) with a basis matrix B and
eliminating first the 2-sphere block (giving Q) and then the kernel block
(giving the a / omega correction), that largest K is exactly the smallest
eigenvalue of the md x md curvature matrix

    A_N(B) = (2 B Q(x) B^H)_core - conj(omega) a^+ omega^T - (2/N) v0 v0^H,

where "core" drops the first d rows and columns.  ``curvature_oracle`` solves
the original semidefinite feasibility problem by bisection instead and is
kept fully independent of the Schur/basis machinery, so the two paths check
each other.

N = infinity is the plain ``float("inf")``; ``2 / inf`` is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, ValidationError
from .graphs import LocalStructure
from .hermitian import HermitianMatrix, min_eig_hermitian, schur_complement
from .operators import delta_matrix, gamma_matrix, gamma2_matrix, q_matrix

INF = float("inf")
BASIS_TOL = 1e-9         # allowed residual of B (2 Gamma) B^H - diag(0, I)
ORACLE_PSD_SLACK = 1e-9  # feasibility slack of the bisection oracle
PROFILE_TOL = 1e-9       # constancy assertions on curvature profiles
PROFILE_SHAPE_SLACK = 1e-7  # monotonicity/concavity slack on sampled profiles


def _check_n(n) -> float:
    n = float(n)
    if not (n > 0):
        raise ValidationError(f"dimension parameter N must be positive or inf, got {n}")
    return n


def p0_transpose(local: LocalStructure) -> np.ndarray:
    """The d x (m+1)d row block (I_d, conj(sigma_xy1), ..., conj(sigma_xym)).

    Its conjugate spans the kernel of 2*Gamma(x) and it annihilates Delta(x).
    """
    d, m = local.d, local.m
    blocks = np.concatenate([np.eye(d, dtype=complex)[None], local.sigma_x.conj()])
    return blocks.transpose(1, 0, 2).reshape(d, (m + 1) * d)


def canonical_basis(local: LocalStructure) -> np.ndarray:
    """The canonical normalizing basis B0.

    First d rows are p0^T; the remaining rows are diagonal blocks
    ``(1/sqrt(p_xyi)) I_d``.  Satisfies the normalization
    ``B0 (2 Gamma(x)) B0^H = diag(0_d, I_md)`` by construction.
    """
    d, m = local.d, local.m
    ys = np.arange(1, m + 1)
    out = np.zeros((m + 1, d, m + 1, d), dtype=complex)
    out[0] = p0_transpose(local).reshape(d, m + 1, d)
    out[ys, :, ys, :] = np.eye(d) / np.sqrt(local.p_x)[:, None, None]
    return out.reshape((m + 1) * d, (m + 1) * d)


def basis_residual(local: LocalStructure, b: np.ndarray) -> float:
    """Max-norm residual of the normalization condition for a candidate B."""
    d, m = local.d, local.m
    target = np.zeros(((m + 1) * d, (m + 1) * d))
    target[d:, d:] = np.eye(m * d)
    lhs = b @ gamma_matrix(local).mat @ b.conj().T
    return float(np.max(np.abs(lhs - target)))


def general_basis(local: LocalStructure, seed: int) -> np.ndarray:
    """A random valid basis matrix B.

    Rows 1..d are E p0^T for a random nonsingular E; the rest mix the
    orthonormalized positive-eigenspace rows of 2*Gamma(x) by a random
    unitary, plus a random kernel-row component (which the normalization
    condition cannot see).  Used to exercise basis-independence; all default
    computations use ``canonical_basis``.
    """
    rng = np.random.default_rng(seed)
    d, m = local.d, local.m
    md = m * d
    w, u = np.linalg.eigh(gamma_matrix(local).mat)
    # Exactly d zero eigenvalues; the positive part starts at index d.
    rows = (u[:, d:] / np.sqrt(w[d:])).conj().T

    def rand_complex(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    while True:
        e = rand_complex((d, d))
        if np.linalg.cond(e) < 1e6:
            break
    q, r = np.linalg.qr(rand_complex((md, md)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    c = 0.5 * rand_complex((md, d))
    b = np.vstack([e @ p0_transpose(local), v @ rows + c @ p0_transpose(local)])
    resid = basis_residual(local, b)
    if resid > BASIS_TOL:
        raise CrossCheckError(f"general_basis produced residual {resid:.3e}")
    return b


@dataclass(frozen=True)
class CurvatureBundle:
    """All intermediates behind the curvature matrices at one vertex.

    ``omega_t`` is the d x md block omega^T; ``v0`` is md x d with
    ``B Delta(x) = (0; v0)``; ``a_inf`` is the N-independent curvature matrix.
    """

    b: np.ndarray
    a: np.ndarray
    omega_t: np.ndarray
    v0: np.ndarray
    a_inf: HermitianMatrix

    def a_n(self, n) -> HermitianMatrix:
        n = _check_n(n)
        return HermitianMatrix(self.a_inf.mat - (2.0 / n) * (self.v0 @ self.v0.conj().T))


def curvature_bundle(local: LocalStructure, b: np.ndarray | None = None) -> CurvatureBundle:
    """Assemble a, omega, v0 and A_inf for a basis B (canonical by default)."""
    d = local.d
    if b is None:
        b = canonical_basis(local)
    else:
        b = np.asarray(b, dtype=complex)
        resid = basis_residual(local, b)
        if resid > BASIS_TOL:
            raise ValidationError(
                f"basis does not normalize 2 Gamma(x): residual {resid:.3e} > {BASIS_TOL:.1e}"
            )
    two_q = q_matrix(local).mat / 2.0
    s = b @ two_q @ b.conj().T
    a_inf = schur_complement(s, range(d, s.shape[0]))
    v0 = (b @ delta_matrix(local))[d:, :]
    return CurvatureBundle(
        b=b,
        a=np.array(s[:d, :d]),
        omega_t=np.array(s[:d, d:]),
        v0=v0,
        a_inf=a_inf,
    )


def curvature_matrix(local: LocalStructure, n, b: np.ndarray | None = None) -> HermitianMatrix:
    """The md x md curvature matrix A_N for the basis B (canonical default)."""
    return curvature_bundle(local, b).a_n(n)


def curvature(local: LocalStructure, n) -> tuple[float, int]:
    """The N-curvature of the center and the eigenvalue multiplicity.

    Equals the smallest eigenvalue of A_N in the canonical basis; the
    multiplicity counts eigenvalues within a relative gap of 1e-8.
    """
    lam, _, mult = min_eig_hermitian(curvature_matrix(local, n))
    return lam, mult


def curvature_function(local: LocalStructure):
    """A fast callable N -> (K, multiplicity) with A_inf precomputed."""
    bundle = curvature_bundle(local)

    def evaluate(n) -> tuple[float, int]:
        lam, _, mult = min_eig_hermitian(bundle.a_n(n))
        return lam, mult

    return evaluate


def curvature_oracle(local: LocalStructure, n, eps: float = 1e-10) -> float:
    """Bisection on the original semidefinite feasibility problem.

    Tests ``lambda_min(Gamma_2(x) - (1/N) Delta Delta^H - K Gamma(x)) >= -1e-9``
    on the full 2-ball matrix (the Gamma and Laplacian terms are zero-padded
    over the 2-sphere block) and bisects K to a bracket of width <= eps.
    Deliberately independent of the Schur-complement/basis route.

    The PSD-slack bisection alone cannot resolve K on nearly balanced
    structures, where the binding eigenvalue crosses zero with a slope as
    small as the near-kernel mass of the minimizer (the slack then shifts
    the crossing by slack/slope).  A cluster refinement, still using nothing
    but the feasibility matrix, recovers the crossing itself down to the
    double-precision assembly floor.  Structures whose kernel block has an
    eigenvalue within roughly 1e-8 of zero (almost balanced in one
    direction, without being balanced) are intrinsically resolvable only to
    about assembly-noise divided by that eigenvalue, by this or any other
    double-precision route.
    """
    n = _check_n(n)
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    d, m, n2 = local.d, local.m, local.n
    size = (m + n2 + 1) * d
    b1 = (m + 1) * d

    four_gamma2 = gamma2_matrix(local).mat
    two_gamma = gamma_matrix(local).mat
    gamma2 = four_gamma2 / 4.0
    gamma_pad = np.zeros((size, size), dtype=complex)
    gamma_pad[:b1, :b1] = two_gamma / 2.0
    delta = delta_matrix(local)
    dd_pad = np.zeros((size, size), dtype=complex)
    dd_pad[:b1, :b1] = delta @ delta.conj().T

    base = gamma2 - (1.0 / n) * dd_pad

    def smallest(k: float) -> float:
        mat = base - k * gamma_pad
        mat = (mat + mat.conj().T) / 2.0
        return float(np.linalg.eigvalsh(mat)[0])

    def feasible(k: float) -> bool:
        return smallest(k) >= -ORACLE_PSD_SLACK

    # Bracket from the Rayleigh-quotient bound |K| <= |4 Gamma_2| / lambda_+,
    # expanded defensively if the feasibility pattern disagrees.
    gvals = np.linalg.eigvalsh(two_gamma)
    lam_plus = float(gvals[d])
    bound = float(np.max(np.abs(four_gamma2))) / lam_plus
    lo, hi = -4.0 * max(bound, 1.0), 4.0 * max(bound, 1.0)
    for _ in range(64):
        if feasible(lo):
            break
        lo *= 2.0
    else:
        raise CrossCheckError("curvature_oracle could not bracket K from below")
    for _ in range(64):
        if not feasible(hi):
            break
        hi *= 2.0
    else:
        raise CrossCheckError("curvature_oracle could not bracket K from above")

    floor = lo
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid

    # Refinement of the crossing, needed because the slack shifts it by
    # slack/slope and the slope can be tiny on nearly balanced structures.
    # Near the root the smallest eigenvalues cluster (the crossing branch
    # meets the flat Gamma-null branches, and multiplicities collide), so the
    # full problem is restricted to that cluster: there it becomes the same
    # one-parameter feasibility question, but at the scale of the cluster,
    # where dense-solver noise is negligible.  Extended-precision Rayleigh
    # quotients transport the cluster block below the outer noise floor.
    k = hi
    scale_m = max(1.0, float(np.max(np.abs(base))), float(np.max(np.abs(gamma_pad))))
    width = 1e-7 * scale_m
    for _ in range(8):
        mat = base - k * gamma_pad
        mat = (mat + mat.conj().T) / 2.0
        w, vecs = np.linalg.eigh(mat)
        v = vecs[:, w <= w[0] + width]
        v128 = v.astype(np.clongdouble)
        mr = v128.conj().T @ (mat.astype(np.clongdouble) @ v128)
        mr = ((mr + mr.conj().T) / 2.0).astype(complex)
        gr = v.conj().T @ gamma_pad @ v
        s, u = np.linalg.eigh((gr + gr.conj().T) / 2.0)
        # Exact structural zeros of the Gamma form never cross; deflating
        # them leaves the pencil on the crossing directions, which whitens
        # to an ordinary eigenvalue problem.
        keep = s > 1e-12
        if not np.any(keep):
            break
        white = u[:, keep] / np.sqrt(s[keep])
        pencil = white.conj().T @ mr @ white
        pencil = (pencil + pencil.conj().T) / 2.0
        step = float(np.linalg.eigvalsh(pencil)[0])
        k_new = min(max(k + step, floor), hi + 1.0)
        if abs(k_new - k) <= 1e-13 * max(1.0, abs(k)):
            k = k_new
            break
        k = k_new
    return k


@dataclass(frozen=True)
class CurvatureProfile:
    """Sampled curvature function N -> K(N) with structure flags.

    ``constant_from`` is the first sampled N whose smallest-eigenvalue
    multiplicity exceeds d; from there on the function is constant (checked,
    violation raises).  ``equality_from`` is the first sampled N at which two
    consecutive samples agree to 1e-9; it is informational only, since a
    slowly increasing function can produce numerically equal samples.
    """

    samples: tuple[tuple[float, float, int], ...]
    constant_from: float | None
    equality_from: float | None

    def value(self, n) -> float:
        for grid_n, k, _ in self.samples:
            if grid_n == n:
                return k
        raise KeyError(f"N={n} was not sampled")


def curvature_profile(local: LocalStructure, grid) -> CurvatureProfile:
    """Sample K(N) and multiplicities on an ascending grid (inf allowed last).

    Validates the shape guarantees of the curvature function: monotone
    non-decreasing and concave along the samples (slack 1e-7), and constancy
    after a detected multiplicity > d (slack 1e-9).
    """
    grid = [_check_n(n) for n in grid]
    if not grid:
        raise ValidationError("curvature_profile: empty grid")
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise ValidationError("curvature_profile: grid must be strictly ascending")

    evaluate = curvature_function(local)
    samples = []
    for n in grid:
        k, mult = evaluate(n)
        samples.append((n, k, mult))

    ks = [k for _, k, _ in samples]
    for i in range(len(ks) - 1):
        if ks[i + 1] < ks[i] - PROFILE_SHAPE_SLACK:
            raise CrossCheckError(
                f"curvature profile is not monotone: K({grid[i]})={ks[i]:.12g} "
                f"> K({grid[i + 1]})={ks[i + 1]:.12g}"
            )
    for i in range(len(ks) - 2):
        n1, n2, n3 = grid[i], grid[i + 1], grid[i + 2]
        if n3 == INF:
            continue
        chord = ks[i] + (ks[i + 2] - ks[i]) * (n2 - n1) / (n3 - n1)
        if ks[i + 1] < chord - PROFILE_SHAPE_SLACK:
            raise CrossCheckError(
                f"curvature profile is not concave at N={n2}: "
                f"K={ks[i + 1]:.12g} < chord {chord:.12g}"
            )

    constant_from = None
    for i, (n, k, mult) in enumerate(samples):
        if mult > local.d:
            constant_from = n
            for n2, k2, _ in samples[i + 1:]:
                if abs(k2 - k) > PROFILE_TOL:
                    raise CrossCheckError(
                        f"multiplicity {mult} > d at N={n} but K moves from "
                        f"{k:.12g} to {k2:.12g} at N={n2}"
                    )
            break

    equality_from = None
    for i in range(len(samples) - 1):
        if abs(ks[i + 1] - ks[i]) <= PROFILE_TOL:
            equality_from = samples[i][0]
            break

    return CurvatureProfile(tuple(samples), constant_from, equality_from)
