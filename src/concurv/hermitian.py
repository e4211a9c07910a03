"""Dense complex Hermitian linear algebra: eigensolvers, the one
pseudoinverse rule (by ``eigh``), Schur complements and the PSD test.

Everything operates on small dense matrices (desk scale, a few hundred rows
at most).  Inputs are plain numpy arrays; :class:`HermitianMatrix` is a thin
validated wrapper for public results, so callers can rely on exact
Hermitianity.  :func:`schur_complement` is the generic reference form.
Every matrix check allows ``SLACK`` (the library's one slack, from
``graphs``) times ``_scale`` of the matrices it compares, with no floor, so
no check depends on the unit of the rates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .graphs import SLACK, _as_array, _is_integer

PINV_RTOL_SCALE = 1e-10     # pseudoinverse cutoff is PINV_RTOL_SCALE * n * max abs(eigenvalue)
MULTIPLICITY_GAP = 1e-8     # gap grouping eigenvalues with lambda_min, relative to |lambda_min|


def _scale(*mats) -> float:
    """The largest entry of ``mats``: the scale at which a check on them rounds."""
    return max(float(np.max(np.abs(m), initial=0.0)) for m in mats)


class HermitianMatrix:
    """A dense complex matrix kept exactly Hermitian.

    The constructor takes a square matrix by the array rule (numbers, all
    finite), rejects inputs further than ``SLACK * max|M|`` from their
    conjugate transpose, so rounding passes at any scale of the entries, and
    symmetrizes the rest to ``(M + M^H) / 2``.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = _as_array(mat, "matrix", (None, None))
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix must have shape (k, k), got {m.shape}")
        mh = m.conj().T
        dev = float(np.max(np.abs(m - mh), initial=0.0))
        bound = SLACK * _scale(m)
        if dev > bound:
            raise ValidationError(f"matrix is not Hermitian: max |M - M^H| = {dev:.3e} "
                                  f"> {bound:.1e}")
        m = (m + mh) / 2.0
        m.setflags(write=False)
        self.mat = m

    def __repr__(self):
        return f"HermitianMatrix(n={self.mat.shape[0]})"


def _psd_within(a: np.ndarray, *operands) -> bool:
    """``lambda_min(a) >= -SLACK * _scale(*operands)``, the operands ``a`` is formed from."""
    return float(np.linalg.eigvalsh(a)[0]) >= -SLACK * _scale(*operands)


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
    An empty ``drop`` set returns ``S[keep,keep]`` unchanged; ``keep`` holds distinct integers.
    """
    a = (s if isinstance(s, HermitianMatrix) else HermitianMatrix(s)).mat
    n = a.shape[0]
    idx = list(keep) if np.iterable(keep) else [None]   # a lone value is refused
    if not idx:
        raise ValidationError("schur_complement: the keep index set is empty")
    if not all(_is_integer(k) and 0 <= k < n for k in idx) or len(set(idx)) != len(idx):
        raise ValidationError(f"schur_complement: keep must be distinct integers in [0, {n}), "
                              f"got {keep!r}")
    keep = np.array(sorted(idx), dtype=int)
    drop = np.setdiff1d(np.arange(n), keep)
    s22 = a[keep[:, None], keep]
    if drop.size == 0:
        return HermitianMatrix(s22)
    return HermitianMatrix(_eigh_rank(a[drop[:, None], drop]).schur(a[keep[:, None], drop], s22))


def min_eig_hermitian(m):
    """Smallest eigenvalue of a Hermitian matrix.

    Returns ``(lambda_min, eigvec, multiplicity)``, the multiplicity by the
    one rule of :func:`_lambda_min`.
    """
    a = (m if isinstance(m, HermitianMatrix) else HermitianMatrix(m)).mat
    w, v = np.linalg.eigh(a)
    lam, mult = _lambda_min(w)
    return lam, v[:, 0].copy(), mult


def _lambda_min(w: np.ndarray) -> tuple[float, int]:
    """The smallest of the ascending eigenvalues ``w`` and its multiplicity, by
    the one multiplicity and cluster rule: the count of those within
    ``MULTIPLICITY_GAP * |w[0]|`` of it, or within ``2**14`` epsilons of max|w|
    if wider, near eigh's resolution yet above nearly all the rounding that
    eliminating a balanced ball leaves on a cluster at zero."""
    lam, top = float(w[0]), max(abs(float(w[0])), abs(float(w[-1])))
    gap = max(MULTIPLICITY_GAP * abs(lam), 2.0 ** 14 * np.finfo(float).eps * top)
    return lam, int(np.count_nonzero(w <= lam + gap))
