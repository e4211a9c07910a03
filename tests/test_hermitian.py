import numpy as np
import pytest

from concurv import ValidationError
from concurv.hermitian import (
    PINV_RTOL_SCALE,
    HermitianMatrix,
    _psd_within,
    min_eig_hermitian,
    schur_complement,
)

from helpers import assert_close, pinv


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_psd(rng, n, rank=None):
    x = rand_complex(rng, (n, rank or n))
    return x @ x.conj().T


class TestHermitianMatrix:
    def test_symmetrizes_small_deviation(self):
        m = np.array([[1.0, 0.5 + 1e-11], [0.5, 2.0]], dtype=complex)
        h = HermitianMatrix(m)
        assert np.max(np.abs(h.mat - h.mat.conj().T)) == 0.0

    def test_rejects_far_from_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.zeros((2, 3)))


class TestPinv:
    """The SVD pseudoinverse lives in tests/helpers.py as the reference for
    the library's eigh pseudoinverse; no library path takes it."""

    def test_identity(self):
        assert_close(pinv(np.eye(3)), np.eye(3), 1e-14)

    def test_zero_matrix(self):
        assert_close(pinv(np.zeros((2, 2))), np.zeros((2, 2)), 0.0)

    def test_rank_one_hermitian(self):
        # the kernel-block matrix of the 4-vertex U(2) example
        a = 0.5 * np.array([[4, 4j], [-4j, 4]], dtype=complex)
        assert_close(a @ pinv(a) @ a, a, 1e-12)

    def test_penrose_identities(self):
        rng = np.random.default_rng(3)
        for shape in [(4, 4), (5, 3), (3, 5)]:
            a = rand_complex(rng, shape)
            ap = pinv(a)
            assert_close(a @ ap @ a, a, 1e-10)
            assert_close(ap @ a @ ap, ap, 1e-10)
            assert_close((a @ ap).conj().T, a @ ap, 1e-10)
            assert_close((ap @ a).conj().T, ap @ a, 1e-10)

    def test_cutoff_without_rtol_keyword(self, monkeypatch):
        # numpy 1.x's signature: the cutoff is the positional rcond
        numpy_pinv = np.linalg.pinv

        def pinv_1x(a, rcond=1e-15, hermitian=False):
            return numpy_pinv(a, rcond, hermitian)

        monkeypatch.setattr(np.linalg, "pinv", pinv_1x)
        # a 2 x 2 input zeroes singular values at or below 2 * PINV_RTOL_SCALE
        small = PINV_RTOL_SCALE
        assert_close(pinv(np.diag([1.0, small])), np.diag([1.0, 0.0]), 0.0)
        assert_close(pinv(np.diag([1.0, 4 * small])), np.diag([1.0, 0.25 / small]), 1e-6)


def test_no_library_path_reaches_svd_pinv(monkeypatch, tmp_path, capsys):
    """curvature, curvature_function, curvature_bundle, an explicit-basis
    curvature_matrix, the tensors, the
    product decomposition, schur_complement and the CLI take every
    pseudoinverse from one eigh (``hermitian._eigh_rank``)."""
    import json

    from concurv import (INF, ProductSpec, curvature, curvature_bundle, curvature_function,
                         curvature_matrix, general_basis, local_structure, phi_map,
                         product_decomposition, ric_and_metric, tensor_matrix_check)
    from concurv.cli import main
    from concurv.fixtures import fixture_document, fixture_graph

    paths = {}
    for name in ("g1_u2", "triangle_signed", "diamond_signed"):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fixture_document(name)))
    loc = local_structure(fixture_graph("g1_u2"), "1")
    b = general_basis(loc, seed=0)
    v = np.arange(loc.m * loc.d) + 1j

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.pinv reached")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    for n in (INF, 2.0):
        curvature(loc, n)
        curvature_function(loc)(n)
        curvature_bundle(loc).a_n(n)
        curvature_matrix(loc, n, b)
        ric_and_metric(loc, n, v, v)
        tensor_matrix_check(loc, n)
        tensor_matrix_check(loc, n, b=b)
    phi_map(loc)
    schur_complement(random_psd(np.random.default_rng(9), 5, rank=3), range(2, 5))
    product_decomposition(fixture_graph("triangle_signed"), fixture_graph("diamond_signed"),
                          ProductSpec(), "A", "1", INF, 2.0)
    assert main(["curvature", str(paths["g1_u2"]), "--vertex", "1", "--N", "2",
                 "--oracle", "--matrix"]) == 0
    assert main(["product", str(paths["triangle_signed"]), str(paths["diamond_signed"]),
                 "--decompose", "A,1"]) == 0
    capsys.readouterr()


class TestSchurComplement:
    def test_block_diagonal_unchanged(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 2)
        b = random_psd(rng, 3)
        s = np.zeros((5, 5), dtype=complex)
        s[:2, :2] = a
        s[2:, 2:] = b
        assert_close(schur_complement(s, range(2, 5)).mat, b, 1e-12)

    def test_psd_closure(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_psd(rng, 6)
            out = schur_complement(s, range(2, 6))
            assert float(np.linalg.eigvalsh(out.mat)[0]) >= -1e-9

    def test_empty_keep_raises(self):
        with pytest.raises(ValidationError):
            schur_complement(np.eye(3), [])

    def test_norm_square_identity(self):
        # quadratic form = Schur form + completion norm square, for PSD S
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_psd(rng, 5)
            s11, s12 = s[:2, :2], s[:2, 2:]
            v1 = rand_complex(rng, 2)
            v2 = rand_complex(rng, 3)
            v = np.concatenate([v1, v2])
            lhs = v @ s @ np.conj(v)
            # s11 = L L^H is positive definite; t = L^H conj(v1) + L^-1 s12 conj(v2)
            low = np.linalg.cholesky(s11)
            t = low.conj().T @ np.conj(v1) + np.linalg.solve(low, s12 @ np.conj(v2))
            rhs = v2 @ schur_complement(s, range(2, 5)).mat @ np.conj(v2) + np.vdot(t, t)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestMinEig:
    def test_identity(self):
        lam, vec, mult = min_eig_hermitian(np.eye(4))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert mult == 4
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_full_decomposition(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_psd(rng, 6) - random_psd(rng, 6)
            lam, _, _ = min_eig_hermitian(m)
            assert lam == pytest.approx(float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]), abs=1e-12)

    def test_multiplicity(self):
        m = np.diag([2.0, 2.0, 2.0 + 1e-12, 5.0])
        _, _, mult = min_eig_hermitian(m)
        assert mult == 3


def test_is_psd_slack():
    assert _psd_within(np.diag([0.0, -5e-10]), 5e-10)
    assert not _psd_within(np.diag([1.0, -1e-3]), 1.0)


def test_hermitian_tolerance_is_relative():
    """HERMITIAN_TOL scales with max(1, max|M|): a few ulps of asymmetry in
    entries near 1e8 pass, an asymmetry above 1e-9 of the largest entry
    does not."""
    big = np.array([[3e8, 1e8 + 1e-7], [1e8, 2e8]], dtype=complex)
    assert HermitianMatrix(big).mat[0, 1] == pytest.approx(1e8, rel=1e-15)
    with pytest.raises(ValidationError, match="not Hermitian"):
        HermitianMatrix(big + np.array([[0.0, 1.0], [0.0, 0.0]]))
