import numpy as np
import pytest

from concurv import (
    INF,
    ValidationError,
    curvature,
    curvature_bundle,
    gamma2_matrix,
    local_structure,
    phi_map,
    psi_extend,
    ric_and_metric,
    tangent_from_function,
    tensor_matrix_check,
)
from concurv.curvature import general_basis, p0_transpose
from concurv.fixtures import fixture_graph, fixture_names
from concurv.hermitian import pinv
from concurv.operators import q_matrix
from concurv.tensor import PHI_RESIDUAL_TOL, coordinate_map, phi_matrix

from helpers import (
    assert_close,
    ball_from_graph_loops,
    random_balanced_graph,
    random_function,
    random_graph,
)


def rand_tangent(rng, loc):
    v = rng.normal(size=loc.m * loc.d) + 1j * rng.normal(size=loc.m * loc.d)
    return v / np.linalg.norm(v)


class TestPsiExtend:
    def test_no_2_sphere_is_identity(self):
        g = fixture_graph("single_edge")
        loc = local_structure(g, "x")
        w = np.array([1.0 + 2.0j, -0.5])
        assert_close(psi_extend(loc, w), w, 0.0)

    def test_identity_connections_extend_constants(self):
        rng = np.random.default_rng(61)
        g = random_graph(rng, d=2, identity_connections=True)
        loc = local_structure(g, "1")
        if loc.n == 0:
            pytest.skip("sampled graph has no 2-sphere")
        ones = np.ones((loc.m + 1) * loc.d, dtype=complex)
        assert_close(psi_extend(loc, ones), np.ones((loc.m + loc.n + 1) * loc.d), 1e-12)

    def test_completion_zeroes_the_remainder(self):
        # the extension must kill the norm-square term of the Schur identity:
        # equivalently the 2-sphere rows of Gamma_2 applied to it vanish
        rng = np.random.default_rng(62)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        g2 = gamma2_matrix(loc).mat
        b1 = (loc.m + 1) * loc.d
        for _ in range(5):
            w = rng.normal(size=b1) + 1j * rng.normal(size=b1)
            ext = psi_extend(loc, w)
            assert_close(g2[b1:, :] @ np.conj(ext), np.zeros(loc.n * loc.d), 1e-9)

    def test_extension_minimizes_gamma2_form(self):
        rng = np.random.default_rng(63)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        g2 = gamma2_matrix(loc).mat
        b1 = (loc.m + 1) * loc.d
        w = rng.normal(size=b1) + 1j * rng.normal(size=b1)
        ext = psi_extend(loc, w)
        value = np.real(ext @ g2 @ np.conj(ext))
        for _ in range(100):
            alt = np.concatenate([w, rng.normal(size=loc.n * loc.d)
                                  + 1j * rng.normal(size=loc.n * loc.d)])
            assert np.real(alt @ g2 @ np.conj(alt)) >= value - 1e-9

    def test_shape_validation(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        with pytest.raises(ValidationError):
            psi_extend(loc, np.zeros(3))


class TestPhiMap:
    def test_balanced_gives_zero_map(self):
        rng = np.random.default_rng(64)
        g = random_balanced_graph(rng, d=2)
        loc = local_structure(g, "1")
        assert float(np.max(np.abs(phi_map(loc)))) <= 1e-9

    def test_unbalanced_d1_unique_solution(self):
        loc = local_structure(fixture_graph("diamond_signed"), "1")
        bundle = curvature_bundle(loc)
        assert float(np.real(bundle.a[0, 0])) > 1e-6  # a > 0, so phi is unique
        f = phi_map(loc)
        assert f.shape == (1, loc.m)

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(65)
        for _ in range(5):
            loc = local_structure(random_graph(rng, d=2), "1")
            f = phi_map(loc)  # raises internally if eq residual is large
            phim = phi_matrix(loc, f)
            from concurv.operators import q_matrix
            two_q = q_matrix(loc).mat / 2
            out = p0_transpose(loc) @ two_q @ np.conj(phim)
            assert float(np.max(np.abs(out))) <= 1e-9 * max(
                1.0, float(np.max(np.abs(two_q))))


class TestRicAndMetric:
    def test_zero_vectors(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        z = np.zeros(loc.m * loc.d, dtype=complex)
        ric, g = ric_and_metric(loc, INF, z, z)
        assert ric == 0 and g == 0

    def test_metric_formula_and_positivity(self):
        rng = np.random.default_rng(66)
        graph = fixture_graph("g1_u2")
        loc = local_structure(graph, "1")
        for _ in range(5):
            v = rand_tangent(rng, loc)
            _, g = ric_and_metric(loc, INF, v, v)
            expected = sum(graph.p("1", y)
                           * np.vdot(v[i * 2:(i + 1) * 2], v[i * 2:(i + 1) * 2]).real
                           for i, y in enumerate(loc.s1))
            assert np.real(g) == pytest.approx(expected, abs=1e-12)
            assert np.real(g) > 0

    def test_rayleigh_quotient_lower_bound(self):
        rng = np.random.default_rng(67)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        for n in (2.0, INF):
            k, _ = curvature(loc, n)
            for _ in range(50):
                v = rand_tangent(rng, loc)
                ric, g = ric_and_metric(loc, n, v, v)
                assert np.real(ric) / np.real(g) >= k - 1e-9

    def test_two_sided_rayleigh_sweep(self):
        # min over 10^4 random unit tangent vectors stays above the curvature
        # and the mapped eigenvector attains it
        rng = np.random.default_rng(167)
        graph = fixture_graph("g1_u2")
        loc = local_structure(graph, "1")
        md = loc.m * loc.d
        f = phi_map(loc)
        phim = phi_matrix(loc, f)
        from concurv.tensor import psi_extend as _psi
        from concurv.operators import gamma2_matrix as _g2
        ext = np.column_stack([_psi(loc, phim[:, j]) for j in range(md)])
        ric_form = ext.T @ (_g2(loc).mat / 2.0) @ np.conj(ext)
        g_form = np.zeros((md, md))
        for i, y in enumerate(loc.s1):
            g_form[i * loc.d:(i + 1) * loc.d, i * loc.d:(i + 1) * loc.d] = (
                graph.p("1", y) * np.eye(loc.d))
        vs = rng.normal(size=(10_000, md)) + 1j * rng.normal(size=(10_000, md))
        rics = np.real(np.einsum("ti,ij,tj->t", vs, ric_form, np.conj(vs)))
        gs = np.real(np.einsum("ti,ij,tj->t", vs, g_form, np.conj(vs)))
        k, _ = curvature(loc, INF)
        assert np.min(rics / gs) >= k - 1e-9
        bundle = curvature_bundle(loc)
        from concurv.hermitian import min_eig_hermitian
        lam, vec, _ = min_eig_hermitian(bundle.a_n(INF))
        xi = coordinate_map(loc, bundle.b, f)
        v_star = np.linalg.solve(xi, np.conj(vec))
        ric, g = ric_and_metric(loc, INF, v_star, v_star, phi=f)
        assert np.real(ric) / np.real(g) == pytest.approx(lam, abs=1e-9)

    def test_sesquilinearity(self):
        rng = np.random.default_rng(68)
        loc = local_structure(random_graph(rng, d=2), "1")
        v1, v2, v3 = (rand_tangent(rng, loc) for _ in range(3))
        a = complex(rng.normal(), rng.normal())
        for n in (INF, 3.0):
            r12, g12 = ric_and_metric(loc, n, v1, v2)
            r32, g32 = ric_and_metric(loc, n, v3, v2)
            r_sum, g_sum = ric_and_metric(loc, n, v1 + a * v3, v2)
            assert abs(r_sum - (r12 + a * r32)) <= 1e-10
            assert abs(g_sum - (g12 + a * g32)) <= 1e-10
            r21, _ = ric_and_metric(loc, n, v2, v1 + a * v3)
            r21a, _ = ric_and_metric(loc, n, v2, v1)
            r21b, _ = ric_and_metric(loc, n, v2, v3)
            assert abs(r21 - (r21a + np.conj(a) * r21b)) <= 1e-10

    def test_metric_independent_of_phi_choice(self):
        # perturbing phi inside the kernel of a keeps the defining equation
        # satisfied; the metric never moves, by its closed formula
        rng = np.random.default_rng(69)
        g = random_balanced_graph(rng, d=2)
        loc = local_structure(g, "1")
        f = phi_map(loc)
        perturbed = f + (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
        for _ in range(3):
            v = rand_tangent(rng, loc)
            _, g0 = ric_and_metric(loc, INF, v, v, phi=f)
            _, g1 = ric_and_metric(loc, INF, v, v, phi=perturbed)
            assert abs(g0 - g1) <= 1e-12

    def test_balanced_ric_independent_of_phi_choice(self):
        rng = np.random.default_rng(70)
        g = random_balanced_graph(rng, d=2)
        loc = local_structure(g, "1")
        f = phi_map(loc)
        for n in (INF, 2.5):
            for _ in range(3):
                v = rand_tangent(rng, loc)
                ric0, _ = ric_and_metric(loc, n, v, v, phi=f)
                perturbed = f + (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
                ric1, _ = ric_and_metric(loc, n, v, v, phi=perturbed)
                assert abs(ric0 - ric1) <= 1e-9


class TestMatrixRepresentation:
    def test_residuals_on_reference_fixture(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        assert tensor_matrix_check(loc, INF) <= 1e-9

    def test_residuals_balanced_graph(self):
        rng = np.random.default_rng(71)
        g = random_graph(rng, d=2, identity_connections=True)
        loc = local_structure(g, "1")
        assert tensor_matrix_check(loc, INF) <= 1e-12

    def test_residuals_random_bases_and_n(self):
        rng = np.random.default_rng(72)
        for trial in range(6):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            b = general_basis(loc, seed=trial)
            for n in (1.5, INF):
                assert tensor_matrix_check(loc, n, b=b, seed=trial) <= 1e-9

    def test_eigenvector_attainment(self):
        rng = np.random.default_rng(73)
        loc = local_structure(random_graph(rng, d=2), "1")
        bundle = curvature_bundle(loc)
        from concurv.hermitian import min_eig_hermitian
        lam, vec, _ = min_eig_hermitian(bundle.a_n(INF))
        xi = coordinate_map(loc, bundle.b)
        # the form is v^T A conj(v): its minimizer is the conjugate eigenvector
        v = np.linalg.solve(xi, np.conj(vec))
        ric, g = ric_and_metric(loc, INF, v, v)
        assert np.real(ric) / np.real(g) == pytest.approx(lam, abs=1e-9)


def test_tangent_from_function_identifies_gradient():
    rng = np.random.default_rng(74)
    g = fixture_graph("g1_u2")
    loc = local_structure(g, "1")
    f = random_function(rng, g.vertex_ids, 2)
    v = tangent_from_function(loc, f)
    for i, y in enumerate(loc.s1):
        assert_close(v[2 * i:2 * i + 2], g.sigma("1", y) @ f[y] - f["1"], 1e-12)
    # equivalent functions (same gradient data) map to the same vector
    shift = rng.normal(size=2) + 1j * rng.normal(size=2)
    f2 = dict(f)
    f2["1"] = f["1"] + shift
    for y in loc.s1:
        f2[y] = f[y] + g.sigma(y, "1") @ shift
    assert_close(tangent_from_function(loc, f2), v, 1e-12)


def tangent_loops(ball, f) -> np.ndarray:
    """sigma_xyi f(yi) - f(x), one 1-sphere neighbor at a time."""
    d, x = ball.d, ball.center
    fx = np.atleast_1d(np.asarray(f[x], dtype=complex))
    out = np.zeros(ball.m * d, dtype=complex)
    for i, y in enumerate(ball.s1):
        fy = np.atleast_1d(np.asarray(f[y], dtype=complex))
        out[i * d:(i + 1) * d] = ball.sigma[(x, y)] @ fy - fx
    return out


def under_blocks_loops(ball, block) -> np.ndarray:
    """The (m+1)d x md matrix with block(sigma_xyi) at block (i + 1, i)."""
    d, m, x = ball.d, ball.m, ball.center
    out = np.zeros(((m + 1) * d, m * d), dtype=complex)
    for i, y in enumerate(ball.s1):
        out[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = block(ball.sigma[(x, y)])
    return out


def phi_map_loops(loc, ball) -> np.ndarray:
    """phi_map with its T matrix built block by block from the loop ball."""
    two_q = q_matrix(loc).mat / 2.0
    p0t = p0_transpose(loc)
    a = p0t @ two_q @ p0t.conj().T
    w = p0t @ two_q @ under_blocks_loops(ball, np.transpose)
    scale = max(1.0, float(np.max(np.abs(two_q))))
    if float(np.linalg.norm(a, 2)) <= 1e-10 * scale:
        return np.zeros_like(w)
    m_conj = -pinv(a) @ w
    assert float(np.max(np.abs(w + a @ m_conj))) <= PHI_RESIDUAL_TOL * scale
    return np.conj(m_conj)


def metric_loops(ball, v1, v2) -> complex:
    d, x = ball.d, ball.center
    g = 0.0 + 0.0j
    for i, y in enumerate(ball.s1):
        g += ball.p[(x, y)] * (v1[i * d:(i + 1) * d] @ np.conj(v2[i * d:(i + 1) * d]))
    return complex(g)


def test_array_forms_match_loops():
    """tangent_from_function, phi_map, phi_matrix and the metric of
    ric_and_metric against their loop forms over the loop ball, at every
    fixture vertex and every vertex of random, balanced and switched-balanced
    graphs with d = 1, 2, 3."""
    rng = np.random.default_rng(75)
    graphs = [fixture_graph(name) for name in fixture_names()]
    for t in range(45):
        d = 1 + t % 3
        graphs.append(random_balanced_graph(rng, d=d) if t % 5 == 0 else
                      random_graph(rng, d=d, identity_connections=t % 5 == 1))
    balls = 0
    for g in graphs:
        for x in g.vertex_ids:
            if not g.neighbors(x):
                continue
            loc = local_structure(g, x)
            ball = ball_from_graph_loops(g, x)
            f = random_function(rng, g.vertex_ids, g.dimension)
            assert_close(tangent_from_function(loc, f), tangent_loops(ball, f), 1e-15, "tangent")
            phi = phi_map(loc)
            assert_close(phi, phi_map_loops(loc, ball), 1e-15, "phi_map")
            want = p0_transpose(loc).T @ phi + under_blocks_loops(ball, lambda s: s.conj().T)
            assert_close(phi_matrix(loc, phi), want, 1e-15, "phi_matrix")
            v1, v2 = rand_tangent(rng, loc), rand_tangent(rng, loc)
            _, metric = ric_and_metric(loc, INF, v1, v2, phi=phi)
            assert abs(metric - metric_loops(ball, v1, v2)) <= 1e-15
            balls += 1
    assert balls >= 200
