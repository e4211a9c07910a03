"""Dense complex Hermitian linear algebra: eigensolvers, Moore-Penrose
pseudoinverses, Schur complements and PSD tests.

Everything operates on small dense matrices (desk scale, a few hundred rows
at most).  Inputs are plain numpy arrays; :class:`HermitianMatrix` is a thin
validated wrapper for public results, so callers can rely on exact
Hermitianity.  :func:`schur_complement` is the generic reference form.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITIAN_TOL = 1e-9        # max allowed |M - M^H| entry, relative to max(1, max|M|)
PSD_SLACK = 1e-9            # lambda_min >= -PSD_SLACK * max(1, |M|) counts as PSD
PINV_RTOL_SCALE = 1e-10     # pinv cutoff is PINV_RTOL_SCALE * n
MULTIPLICITY_GAP = 1e-8     # relative gap grouping eigenvalues with lambda_min


def _as_array(m) -> np.ndarray:
    if isinstance(m, HermitianMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


class HermitianMatrix:
    """A dense complex matrix kept exactly Hermitian.

    The constructor rejects inputs further than ``HERMITIAN_TOL * max(1,
    max|M|)`` from their conjugate transpose, so rounding at large entries
    passes, and symmetrizes the rest to ``(M + M^H) / 2``.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        mh = m.conj().T
        dev = float(np.max(np.abs(m - mh), initial=0.0))
        bound = HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m), initial=0.0)))
        if dev > bound:
            raise ValidationError(f"matrix is not Hermitian: max |M - M^H| = {dev:.3e} "
                                  f"> {bound:.1e}")
        m = (m + mh) / 2.0
        m.setflags(write=False)
        self.mat = m

    def __repr__(self):
        return f"HermitianMatrix(n={self.mat.shape[0]})"


def is_psd(m) -> bool:
    """Tolerance-aware PSD test: smallest eigenvalue >= -PSD_SLACK * max(1, |M|)."""
    a = _as_array(m)
    return a.size == 0 or _psd_within(a, float(np.max(np.abs(a))))


def _psd_within(a: np.ndarray, scale: float) -> bool:
    """``lambda_min(a) >= -PSD_SLACK * max(1, scale)``, for a difference ``a``
    whose rounding follows the size ``scale`` of its operands."""
    return float(np.linalg.eigvalsh(a)[0]) >= -PSD_SLACK * max(1.0, scale)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse (numpy's, by SVD).

    Singular values at or below ``PINV_RTOL_SCALE * n * sigma_max`` are
    zeroed, n being the larger dimension of the input.  A zero matrix maps
    to a zero matrix.
    """
    a = _as_array(m)
    # positional: the relative cutoff is ``rcond`` on numpy 1.x, which has
    # no ``rtol`` keyword, and numpy 2 reads it the same way
    return np.linalg.pinv(a, PINV_RTOL_SCALE * max(a.shape))


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
    a = m.mat if isinstance(m, HermitianMatrix) else HermitianMatrix(m).mat
    w, v = np.linalg.eigh(a)
    lam, mult = _lambda_min(w)
    return lam, v[:, 0].copy(), mult


def _lambda_min(w: np.ndarray) -> tuple[float, int]:
    """The smallest of the ascending eigenvalues ``w`` and its multiplicity:
    the count of eigenvalues within ``MULTIPLICITY_GAP * max(1, |lambda_min|)``
    of it."""
    lam = float(w[0])
    gap = MULTIPLICITY_GAP * max(1.0, abs(lam))
    return lam, int(np.count_nonzero(w <= lam + gap))
