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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CrossCheckError, ValidationError
from .graphs import SLACK, LocalStructure, _as_array, _as_number, _rng
from .hermitian import HermitianMatrix, _Eigh, _eigh_rank, _lambda_min, _scale
from .operators import _gamma2_array, _gamma_array, _neighbour_stack, _q_array, delta_matrix

INF = float("inf")
ORACLE_PSD_SLACK = 1e-9  # the oracle's own slack, so that it stays independent of the record
ORACLE_BRACKET = 1e-10   # width of the oracle's bisection bracket, relative to its bound on |K|


def _check_n(n) -> float:
    """The one rule for N: a number by the document rule (a string, bool or
    None is refused), ``N > 0``, and inf or with ``2/N`` (the weight of A_N's
    dimension term) finite; 0, negatives, nan and 1e-320 are refused."""
    if type(n) is not float:   # a float is a number already; N = inf skips the call
        n = _as_number(n, lambda: "dimension parameter N")
    if not (n > 0 and (n == INF or math.isfinite(2.0 / n))):
        raise ValidationError(f"dimension parameter N must be inf or > 0 with 2/N finite, got {n}")
    return n


def _dimension_weight(n: float, c: float, gram: np.ndarray) -> float:
    """The weight c/N of a dimension term ``(c/N) gram``.  An N that passes
    _check_n can still be small enough for the term to overflow on a ball
    with large rates; such an N is refused with a ValidationError naming it."""
    w = c / n
    if not math.isfinite(w * float(np.max(np.abs(gram)))):
        raise ValidationError(f"dimension parameter N = {n} is too small for this ball: "
                              f"the dimension term ({c:g}/N) times a matrix of the ball overflows")
    return w


def canonical_basis(local: LocalStructure) -> np.ndarray:
    """The canonical normalizing basis ``B0 = [[I, S^H], [0, D]]``: S is the
    plain neighbour stack and ``D = diag(p_xyi^{-1/2}) (x) I_d``.  Its first d
    rows are p0^T, whose conjugate spans the kernel of 2*Gamma(x) and which
    annihilates Delta(x); ``B0 (2 Gamma(x)) B0^H = diag(0_d, I_md)``."""
    s = _neighbour_stack(local)
    return np.block([[np.eye(local.d), s.conj().T],
                     [np.zeros_like(s), np.diag(np.repeat(1.0 / np.sqrt(local.p_x), local.d))]])


def basis_residual(local: LocalStructure, b: np.ndarray) -> float:
    """Largest residual of the normalization condition for a candidate B,
    each entry of ``B (2 Gamma) B^H - diag(0, I)`` over
    ``max(1, (|B| |2 Gamma| |B|^H)_ij)``, the scale at which it rounds.  The
    scale is 1 on the normalized rows of the canonical basis."""
    d, two_gamma = local.d, _gamma_array(local)
    resid = b @ two_gamma @ b.conj().T
    resid[d:, d:] -= np.eye(local.m * d)   # the target diag(0_d, I_md)
    abs_b = np.abs(b)
    # the floor of 1 is the unit-free target diag(0, I), not a unit of the rates
    scale = np.maximum(1.0, abs_b @ np.abs(two_gamma) @ abs_b.T)
    return float(np.max(np.abs(resid) / scale))


def general_basis(local: LocalStructure, seed: int) -> np.ndarray:
    """A random valid basis ``B = [[E, 0], [C, U]] @ B0``, the form of every
    normalizing basis: a random nonsingular d x d E, kernel-row component C
    and md x md unitary U, the U that ``CurvatureBundle.basis_unitary`` reads
    back.  E and C are drawn at the scale ``median(p_xy)^{-1/2}`` of B0's
    normalized rows, so that neither swamps them at any scale of the rates.
    Used to exercise basis-independence; all default computations use
    ``canonical_basis``.  ``seed`` follows the seed rule of ``graphs._rng``.
    """
    rng = _rng(seed)
    d, md = local.d, local.m * local.d
    scale = 1.0 / np.sqrt(np.median(local.p_x))

    def rand_complex(shape):
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    while True:
        e = rand_complex((d, d))
        if np.linalg.cond(e) < 1e6:
            break
    q, r = np.linalg.qr(rand_complex((md, md)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    c = 0.5 * rand_complex((md, d))
    b = np.block([[e, np.zeros((d, md))], [c, u]]) @ canonical_basis(local)
    resid = basis_residual(local, b)
    if resid > SLACK:
        raise CrossCheckError(f"general_basis produced relative residual {resid:.3e}")
    return b


@dataclass(frozen=True)
class CurvatureBundle:
    """The one elimination record of a vertex, and all that is read after it.

    ``q2 = 4*Q / 2``; ``a`` is the d x d kernel block, ``eig`` its eigh and
    rank; ``omega_t`` is the d x md block omega^T; ``a_inf`` is the
    N-independent curvature matrix in the canonical basis, exactly Hermitian.
    ``v0``, the canonical basis ``b`` and the constancy threshold ``n0`` are
    formed on first read.  ``a_n`` is the one A_N formula, with the dimension
    term of ``dimension_term``; ``k`` reads K off
    its eigenvalues, ``k_scale`` is the scale at which they round, and
    ``basis_unitary`` carries it to any other basis.
    """

    local: LocalStructure
    q2: np.ndarray
    a: np.ndarray
    eig: _Eigh
    omega_t: np.ndarray
    a_inf: np.ndarray

    @cached_property
    def b(self) -> np.ndarray:
        """The canonical normalizing basis B0 (:func:`canonical_basis`)."""
        return canonical_basis(self.local)

    @cached_property
    def v0(self) -> np.ndarray:
        """The md x d block v0 with ``B0 Delta(x) = (0; v0)``: its blocks are
        ``sqrt(p_xyi) sigma_xyi^T``."""
        return _neighbour_stack(self.local, np.sqrt(self.local.p_x))

    @cached_property
    def n0(self) -> float:
        """The least N with K(N) = K(inf), inf if there is none.  With
        ``A_inf = U diag(lam) U^H`` and ``z = U^H v0``: inf when z is not zero
        (to SLACK of max|z|) on the cluster of lam_1 that ``_lambda_min``
        counts, else ``2 lambda_max(sum over the rest of z_i^H z_i / (lam_i - lam_1))``."""
        lam, u = np.linalg.eigh(self.a_inf)
        z = u.conj().T @ self.v0
        c = _lambda_min(lam)[1]
        mag = np.abs(z)
        if mag[:c].max() > SLACK * mag.max():
            return INF
        y = z[c:] / np.sqrt(lam[c:] - lam[0])[:, None]
        return 2.0 * float(np.linalg.eigvalsh(y.conj().T @ y)[-1])

    def dimension_term(self, n, rows=slice(None)) -> np.ndarray:
        """The dimension term ``(2/N) v0 v0^H`` of A_N, of the ``rows`` of v0
        when given, for an N that passes _check_n.  It is made Hermitian
        where it is formed, from its strict lower triangle and real diagonal:
        those are what ``eigvalsh`` reads, so K does not depend on the
        rounding of the upper triangle.  An N at which it overflows is refused."""
        v0 = self.v0[rows]
        term = v0 @ v0.conj().T
        low = np.tril(term, -1)
        herm = low + low.conj().T + np.diag(term.diagonal().real)
        return _dimension_weight(_check_n(n), 2.0, term) * herm

    def a_n(self, n) -> np.ndarray:
        """``A_N = A_inf - (2/N) v0 v0^H``, exactly Hermitian, for an N that
        passes _check_n.  At N = inf the term is exactly zero, and neither it
        nor v0 is formed."""
        n = _check_n(n)
        return self.a_inf if n == INF else self.a_inf - self.dimension_term(n)

    def k(self, n) -> tuple[float, int]:
        """K(N) and its multiplicity, from the eigenvalues of ``a_n(n)`` only."""
        return _lambda_min(np.linalg.eigvalsh(self.a_n(n)))

    def k_scale(self, *ks) -> float:
        """The scale at which a K of this ball rounds: ``_scale`` of A_inf and the k given."""
        return _scale(self.a_inf, ks)

    def basis_unitary(self, b) -> np.ndarray:
        """The md x md unitary U with ``B B0^{-1} = [[E, 0], [C, U]]``, for a
        basis B that normalizes 2 Gamma(x) within SLACK (else
        ValidationError).  Since ``X D^{-1} = v0^H``,
        ``U = B[d:, d:] D^{-1} - B[d:, :d] v0^H``.  Then ``A_N(B) = U A_N U^H``,
        and B's tangent coordinates are conj(U) times those of B0."""
        local, d = self.local, self.local.d
        b = _as_array(b, "basis b", ((local.m + 1) * d,) * 2)
        resid = basis_residual(local, b)
        if resid > SLACK:
            raise ValidationError(
                f"basis does not normalize 2 Gamma(x): residual {resid:.3e} > {SLACK:.1e}")
        return b[d:, d:] * np.repeat(np.sqrt(local.p_x), d) - b[d:, :d] @ self.v0.conj().T


def curvature_bundle(local: LocalStructure) -> CurvatureBundle:
    """The elimination record of the ball: the kernel block a of
    ``S = B0 q2 B0^H`` eliminated, ``q2 = 4*Q / 2``.

    The canonical basis ``B0 = [[I, X], [0, D]]``, ``D = diag(p_xyi^{-1/2})
    (x) I_d``, is applied without forming it: with ``Z = q2 conj(p0)``,
    ``a = p0^T Z``, ``S10 = D Z[d:]`` and ``core = D q2[d:, d:] D``.  Every
    other basis is read from this record through ``basis_unitary``.
    """
    d = local.d
    q2 = _q_array(local) / 2.0
    p0c = np.concatenate([np.eye(d), _neighbour_stack(local)])   # conj(p0) = [I; S]
    z = q2 @ p0c
    dd = np.repeat(1.0 / np.sqrt(local.p_x), d)[:, None]
    a, s10, core = p0c.conj().T @ z, dd * z[d:], q2[d:, d:] * (dd * dd.T)
    eig = _eigh_rank(a)
    return CurvatureBundle(local, q2, a, eig, s10.conj().T, eig.schur(s10, core))


def curvature_matrix(local: LocalStructure, n, b: np.ndarray | None = None) -> HermitianMatrix:
    """The md x md curvature matrix A_N for the basis B (canonical default):
    ``U A_N(B0) U^H`` with U from ``CurvatureBundle.basis_unitary``."""
    bundle = curvature_bundle(local)
    if b is None:
        return HermitianMatrix(bundle.a_n(n))
    u = bundle.basis_unitary(b)   # the basis is checked before N
    return HermitianMatrix(u @ bundle.a_n(n) @ u.conj().T)


def curvature(local: LocalStructure, n) -> tuple[float, int]:
    """The N-curvature of the center and the eigenvalue multiplicity.

    Equals the smallest eigenvalue of A_N in the canonical basis; the
    multiplicity is ``hermitian._lambda_min``'s, at the spectrum's scale.  Only
    eigenvalues are computed, from one elimination.  N follows the one rule
    of ``_check_n``: positive with 2/N finite, or inf.
    """
    return curvature_bundle(local).k(n)


def curvature_function(local: LocalStructure):
    """A fast callable N -> (K, multiplicity): the bound ``k`` of one
    elimination, so each evaluation equals ``curvature(local, N)`` bit for
    bit, by the same N rule, with A_inf formed once."""
    return curvature_bundle(local).k


def curvature_oracle(local: LocalStructure, n) -> float:
    """Bisection on the original semidefinite feasibility problem.

    Tests ``lambda_min(Gamma_2(x) - (1/N) Delta Delta^H - K Gamma(x)) >=
    -ORACLE_PSD_SLACK * s`` on the full 2-ball matrix (the Gamma and Laplacian
    terms are zero-padded over the 2-sphere block) and bisects K to a bracket
    of width <= ``ORACLE_BRACKET * max(bound, |lo|, |hi|)``, with ``bound``
    its Rayleigh bound on |K| and ``s = max(max|base|, bound * max|Gamma|)``:
    no test has a floor.  Deliberately independent of the Schur/basis route.

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
    d, m, n2 = local.d, local.m, local.n
    size = (m + n2 + 1) * d
    b1 = (m + 1) * d

    four_gamma2 = _gamma2_array(local)
    two_gamma = _gamma_array(local)
    gamma_pad = np.zeros((size, size), dtype=complex)
    gamma_pad[:b1, :b1] = two_gamma / 2.0
    delta = delta_matrix(local)
    ddh = delta @ delta.conj().T
    weight = _dimension_weight(n, 1.0, ddh)
    base = four_gamma2 / 4.0
    base[:b1, :b1] -= weight * ddh
    # symmetrized once: base - k * gamma_pad is then exactly Hermitian for every real k
    base = (base + base.conj().T) / 2.0

    # Bracket from the Rayleigh-quotient bound |K| <= |4 Gamma_2| / lambda_+,
    # expanded defensively if the feasibility pattern disagrees.  Tests on the
    # matrices (quadratic in the rates) read scale_m, tests on K the bound.
    # The lower start also covers the dimension term, of size up to
    # (4/N) |Delta Delta^H| / lambda_+, which dominates K at small N.
    lam_plus = float(np.linalg.eigvalsh(two_gamma)[d])
    bound = float(np.max(np.abs(four_gamma2))) / lam_plus
    scale_g = float(np.max(np.abs(gamma_pad)))
    scale_m = max(float(np.max(np.abs(base))), bound * scale_g)

    def smallest(k: float) -> float:
        return float(np.linalg.eigvalsh(base - k * gamma_pad)[0])

    def feasible(k: float) -> bool:
        return smallest(k) >= -ORACLE_PSD_SLACK * scale_m

    reach = 4.0 * weight * float(np.max(np.abs(ddh))) / lam_plus
    lo, hi = -4.0 * (bound + reach), 4.0 * bound
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
    while hi - lo > ORACLE_BRACKET * max(bound, abs(lo), abs(hi)):
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
    # where dense-solver noise is negligible.  Exact steps only lower k (the
    # smallest eigenvalue is concave in k), so a rise no smaller than the
    # step before it is rounding noise: the refinement stops before it.
    k, last = hi, INF
    width = 1e-7 * scale_m
    for _ in range(64):   # the bound of the bracket loops; ordinary balls stop after 1-2 steps
        mat = base - k * gamma_pad
        w, vecs = np.linalg.eigh(mat)
        v = vecs[:, w <= w[0] + width]
        gr = v.conj().T @ gamma_pad @ v
        s, u = np.linalg.eigh((gr + gr.conj().T) / 2.0)
        vu = v @ u
        mr = vu.conj().T @ mat @ vu
        mr = (mr + mr.conj().T) / 2.0
        # The zeros of the Gamma form do not move with k, so the largest
        # step keeping mr - step * diag(s) PSD is read after eliminating
        # them: the Schur complement of mr's Gamma-null block (its
        # eigenvalues below the oracle's slack taken as zero), whitened by
        # s to an ordinary eigenvalue problem.
        pos = s > 1e-12 * scale_g
        if not np.any(pos):
            break
        lam0, u0 = np.linalg.eigh(mr[np.ix_(~pos, ~pos)])
        inv = lam0 > ORACLE_PSD_SLACK * scale_m
        y = mr[np.ix_(pos, ~pos)] @ u0[:, inv]
        white = 1.0 / np.sqrt(s[pos])
        pencil = (mr[np.ix_(pos, pos)] - (y / lam0[inv]) @ y.conj().T) * np.outer(white, white)
        pencil = (pencil + pencil.conj().T) / 2.0
        step = float(np.linalg.eigvalsh(pencil)[0])
        k_new = min(max(k + step, floor), hi + bound)
        if abs(k_new - k) <= 1e-13 * max(bound, abs(k)):
            k = k_new
            break
        if k_new - k >= last:
            break
        k, last = k_new, abs(k_new - k)
    return k


@dataclass(frozen=True)
class CurvatureProfile:
    """Sampled curvature function N -> K(N) with its constancy threshold.

    ``n0`` is ``CurvatureBundle.n0``: K(N) = K(inf) exactly for N >= n0.
    ``constant_from`` is the first sampled N >= ``n0 (1 - SLACK)``, so
    a grid point equal to n0 up to rounding counts, or None if there is none.
    """

    samples: tuple[tuple[float, float, int], ...]
    constant_from: float | None
    n0: float


def curvature_profile(local: LocalStructure, grid) -> CurvatureProfile:
    """Sample K(N) and multiplicities on an ascending grid (inf allowed last).

    Validates, each to ``SLACK * k_scale`` of the samples: monotone
    non-decreasing and concave along the samples, and equal to K(inf) from
    ``constant_from`` on.  The grid is an iterable of N values: a lone
    number, a string or bytes is refused before any N is read.
    """
    if not np.iterable(grid) or isinstance(grid, (str, bytes)):
        raise ValidationError(f"curvature_profile: grid must be an iterable of N values, "
                              f"got {grid!r}")
    grid = [_check_n(n) for n in grid]
    if not grid:
        raise ValidationError("curvature_profile: empty grid")
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise ValidationError("curvature_profile: grid must be strictly ascending")

    bundle = curvature_bundle(local)
    samples = [(n, *bundle.k(n)) for n in grid]
    ks = [k for _, k, _ in samples]
    slack = SLACK * bundle.k_scale(*ks)
    for i in range(len(ks) - 1):
        if ks[i + 1] < ks[i] - slack:
            raise CrossCheckError(
                f"curvature profile is not monotone: K({grid[i]})={ks[i]:.12g} "
                f"> K({grid[i + 1]})={ks[i + 1]:.12g}")
    for i in range(len(ks) - 2):
        n1, n2, n3 = grid[i], grid[i + 1], grid[i + 2]
        if n3 == INF:
            continue
        chord = ks[i] + (ks[i + 2] - ks[i]) * (n2 - n1) / (n3 - n1)
        if ks[i + 1] < chord - slack:
            raise CrossCheckError(
                f"curvature profile is not concave at N={n2}: "
                f"K={ks[i + 1]:.12g} < chord {chord:.12g}")

    n0, k_inf = bundle.n0, bundle.k(INF)[0]
    tail = [s for s in samples if n0 < INF and s[0] >= n0 * (1.0 - SLACK)]
    for n, k, _ in tail:
        if abs(k - k_inf) > slack:
            raise CrossCheckError(f"K(N) is constant from N0={n0:.12g} but K({n})={k:.12g} "
                                  f"differs from K(inf)={k_inf:.12g}")
    return CurvatureProfile(tuple(samples), tail[0][0] if tail else None, n0)
