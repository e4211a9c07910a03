"""Dense complex Hermitian linear algebra: eigensolvers, the one
pseudoinverse rule (by ``eigh``), Schur complements and the PSD test.

Everything operates on small dense matrices (desk scale, a few hundred rows
at most).  Inputs are plain numpy arrays; :class:`HermitianMatrix` is a thin
validated wrapper for public results, so callers can rely on exact
Hermitianity.  :func:`schur_complement` is the generic reference form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

HERMITIAN_TOL = 1e-9        # max allowed |M - M^H| entry, relative to max(1, max|M|)
PSD_SLACK = 1e-9            # lambda_min >= -PSD_SLACK * max(1, |M|) counts as PSD
PINV_RTOL_SCALE = 1e-10     # pseudoinverse cutoff is PINV_RTOL_SCALE * n * max abs(eigenvalue)
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


def _psd_within(a: np.ndarray, scale: float) -> bool:
    """``lambda_min(a) >= -PSD_SLACK * max(1, scale)``, for a difference ``a``
    whose rounding follows the size ``scale`` of its operands."""
    return float(np.linalg.eigvalsh(a)[0]) >= -PSD_SLACK * max(1.0, scale)


class _Eigh(NamedTuple):
    """eigh of a Hermitian a (ascending ``lam``, vectors ``u``), the cutoff
    of its pseudoinverse and the mask ``keep`` of the eigenvalues inverted."""

    lam: np.ndarray
    u: np.ndarray
    cutoff: float
    keep: np.ndarray

    def pinv(self) -> np.ndarray:
        uk = self.u[:, self.keep]
        return (uk / self.lam[self.keep]) @ uk.conj().T

    def schur(self, s10: np.ndarray, core: np.ndarray) -> np.ndarray:
        """``core - s10 a^+ s10^H``, averaged to be exactly Hermitian at any scale."""
        y = s10 @ self.u[:, self.keep]
        corr = (y / self.lam[self.keep]) @ y.conj().T
        return core - (corr + corr.conj().T) / 2.0


def _eigh_rank(a: np.ndarray) -> _Eigh:
    """The library's one rank decision: eigenvalues of the Hermitian n x n a
    with ``|lam| <= PINV_RTOL_SCALE * n * max|lam|`` are zeroed (numpy's
    SVD-pinv rule, since they are a's singular values)."""
    lam, u = np.linalg.eigh(a)
    cutoff = PINV_RTOL_SCALE * lam.size * float(abs(lam).max())
    return _Eigh(lam, u, cutoff, np.abs(lam) > cutoff)


def schur_complement(s, keep) -> HermitianMatrix:
    """Schur complement of the block complementary to ``keep``.

    For the Hermitian matrix ``S`` partitioned by the index sets
    ``drop = {0..n-1} - keep`` and ``keep``, returns
    ``S[keep,keep] - S[keep,drop] pinv(S[drop,drop]) S[keep,drop]^H`` (pinv by ``_eigh_rank``).
    An empty ``drop`` set returns ``S[keep,keep]`` unchanged.
    """
    a = _as_array(s)
    n = a.shape[0]
    keep = np.asarray(sorted(keep), dtype=int)
    if keep.size == 0:
        raise ValidationError("schur_complement: the keep index set is empty")
    if keep.min() < 0 or keep.max() >= n or len(set(keep.tolist())) != keep.size:
        raise ValidationError("schur_complement: keep indices out of range or repeated")
    drop = np.setdiff1d(np.arange(n), keep)
    s22 = a[keep[:, None], keep]
    if drop.size == 0:
        return HermitianMatrix(s22)
    return HermitianMatrix(_eigh_rank(a[drop[:, None], drop]).schur(a[keep[:, None], drop], s22))


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
