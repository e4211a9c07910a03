"""Dense complex Hermitian linear algebra: eigensolvers, Moore-Penrose
pseudoinverses, Schur complements and PSD tests.

Everything operates on small dense matrices (desk scale, a few hundred rows
at most).  Inputs are plain numpy arrays; :class:`HermitianMatrix` is a thin
validated wrapper used at module boundaries so downstream code can rely on
exact Hermitianity.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITIAN_TOL = 1e-9        # max allowed |M - M^H| entry on construction
PSD_SLACK = 1e-9            # lambda_min >= -PSD_SLACK * max(1, |M|) counts as PSD
PINV_RTOL_SCALE = 1e-10     # default pinv cutoff is PINV_RTOL_SCALE * n
MULTIPLICITY_GAP = 1e-8     # relative gap grouping eigenvalues with lambda_min


def _as_array(m) -> np.ndarray:
    if isinstance(m, HermitianMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


class HermitianMatrix:
    """A dense complex matrix kept exactly Hermitian.

    The constructor rejects inputs further than ``HERMITIAN_TOL`` from their
    conjugate transpose and symmetrizes the rest to ``(M + M^H) / 2``.
    """

    __slots__ = ("mat", "n", "tol")

    def __init__(self, mat, tol: float | None = None):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        mh = m.conj().T
        dev = float(np.max(np.abs(m - mh))) if m.size else 0.0
        if dev > HERMITIAN_TOL:
            raise ValidationError(
                f"matrix is not Hermitian: max |M - M^H| = {dev:.3e} > {HERMITIAN_TOL:.1e}"
            )
        m = (m + mh) / 2.0
        m.setflags(write=False)
        self.mat = m
        self.n = m.shape[0]
        self.tol = float(tol) if tol is not None else PINV_RTOL_SCALE * max(self.n, 1)

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


def is_psd(m, slack: float = PSD_SLACK) -> bool:
    """Tolerance-aware PSD test: smallest eigenvalue >= -slack * max(1, |M|)."""
    a = _as_array(m)
    if a.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.linalg.eigvalsh(a)[0]) >= -slack * scale


def pinv(m, rtol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``rtol * sigma_max`` are zeroed; ``rtol``
    defaults to ``PINV_RTOL_SCALE * n`` for an n-column input.  A zero matrix
    maps to a zero matrix.
    """
    a = _as_array(m)
    if a.size == 0:
        return a.conj().T.copy()
    if rtol is None:
        rtol = PINV_RTOL_SCALE * max(a.shape)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros_like(a.conj().T)
    inv = np.where(s > rtol * s[0], 1.0 / np.where(s == 0.0, 1.0, s), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def schur_complement(s, keep) -> HermitianMatrix:
    """Schur complement of the block complementary to ``keep``.

    For the Hermitian matrix ``S`` partitioned by the index sets
    ``drop = {0..n-1} - keep`` and ``keep``, returns
    ``S[keep,keep] - S[keep,drop] @ pinv(S[drop,drop]) @ S[drop,keep]``.
    An empty ``drop`` set returns ``S[keep,keep]`` unchanged.
    """
    a = _as_array(s)
    n = a.shape[0]
    keep = np.asarray(sorted(keep), dtype=int)
    if keep.size == 0:
        raise ValidationError("schur_complement: the keep index set is empty")
    if keep.min() < 0 or keep.max() >= n or len(set(keep.tolist())) != keep.size:
        raise ValidationError("schur_complement: keep indices out of range or repeated")
    dropped = np.ones(n, dtype=bool)
    dropped[keep] = False
    drop = np.flatnonzero(dropped)
    s22 = a[keep[:, None], keep]
    if drop.size == 0:
        return HermitianMatrix(s22)
    s11 = a[drop[:, None], drop]
    s12 = a[drop[:, None], keep]
    s21 = a[keep[:, None], drop]
    corr = s21 @ pinv(s11) @ s12
    # exactly Hermitian in exact arithmetic; a nearly singular block leaves
    # floating-point asymmetry that the explicit average removes
    corr = (corr + corr.conj().T) / 2.0
    return HermitianMatrix(s22 - corr)


def min_eig_hermitian(m):
    """Smallest eigenvalue of a Hermitian matrix.

    Returns ``(lambda_min, eigvec, multiplicity)`` where the multiplicity
    counts eigenvalues within ``MULTIPLICITY_GAP * max(1, |lambda_min|)`` of
    the smallest one.
    """
    a = _as_array(m)
    if not isinstance(m, HermitianMatrix):
        a = HermitianMatrix(a).mat
    w, v = np.linalg.eigh(a)
    lam = float(w[0])
    gap = MULTIPLICITY_GAP * max(1.0, abs(lam))
    mult = int(np.sum(w <= lam + gap))
    return lam, v[:, 0].copy(), mult
