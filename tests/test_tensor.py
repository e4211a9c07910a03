import warnings

import numpy as np
import pytest

from concurv import (
    INF,
    ValidationError,
    curvature,
    curvature_bundle,
    curvature_matrix,
    gamma2_matrix,
    local_structure,
    phi_map,
    psi_extend,
    ric_and_metric,
    tangent_from_function,
    tensor_matrix_check,
)
from concurv.curvature import canonical_basis, general_basis
from concurv.fixtures import fixture_graph, fixture_names
from concurv.operators import _ball_blocks, _q_array, delta_matrix, q_matrix
from concurv.graphs import SLACK
from concurv.tensor import _tensor_matrices, coordinate_map, phi_matrix

from helpers import (
    assert_close,
    ball_from_graph_loops,
    count_calls,
    count_gamma2_assemblies,
    phase_triangle,
    q_reference,
    random_balanced_graph,
    random_function,
    random_graph,
    scaled_rates,
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
        for bad in (np.zeros(3), np.zeros((3, 2)), np.zeros((3 * loc.d, 2, 2))):
            with pytest.raises(ValidationError):
                psi_extend(loc, bad)

    def test_matrix_extends_each_column(self):
        rng = np.random.default_rng(64)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        shape = ((loc.m + 1) * loc.d, 5)
        w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = np.column_stack([psi_extend(loc, w[:, j]) for j in range(5)])
        assert_close(psi_extend(loc, w), want, 1e-14)


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
            two_q = q_matrix(loc).mat / 2
            out = canonical_basis(loc)[:loc.d] @ two_q @ np.conj(phim)
            assert float(np.max(np.abs(out))) <= 1e-9 * max(
                1.0, float(np.max(np.abs(two_q))))

    @pytest.mark.parametrize("theta", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_near_balanced_phase_triangle(self, theta):
        """Near balance a shrinks like theta^2 while the right-hand side w
        shrinks like theta: phi solves its equation with the one rank
        decision of the curvature path instead of raising, and the tensor
        calls return values (README, "Numerical notes")."""
        g = phase_triangle(theta)
        loc = local_structure(g, "a")
        e = curvature_bundle(loc)
        assert e.eig.keep.all()   # curvature() inverts a here too
        f = phi_map(loc)
        t = under_blocks_loops(ball_from_graph_loops(g, "a"), np.transpose)
        w = canonical_basis(loc)[:loc.d] @ e.q2 @ t
        resid = float(np.max(np.abs(w + e.a @ np.conj(f))))
        assert resid <= SLACK * float(np.max(np.abs(e.q2)))
        v = np.ones(loc.m * loc.d, dtype=complex)
        for n in (INF, 2.5):
            assert np.isfinite(tensor_matrix_check(loc, n))
            ric, metric = ric_and_metric(loc, n, v, v)
            assert np.isfinite(ric) and metric == 2


class TestRicAndMetric:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
    def test_phi_shape_validation(self, shape):
        """phi must be d x md: at vertex 1 of diamond_signed (d = 1, m = 2)
        a zero (1, 1) phi would broadcast to the zero map, which does not
        solve the phi equation there.  phi_matrix rejects it."""
        loc = local_structure(fixture_graph("diamond_signed"), "1")
        assert phi_matrix(loc, phi_map(loc)).shape == ((loc.m + 1) * loc.d, loc.m * loc.d)
        with pytest.raises(ValidationError, match="phi must have shape"):
            phi_matrix(loc, np.zeros(shape))

    def test_non_solving_phi_gives_a_wrong_tensor(self):
        """Why ric_and_metric takes no phi: at vertex 1 of diamond_signed
        (d = 1, m = 2, a > 0, so phi is unique) Ric(v, v) = 3 for v = (1, 1),
        while the paper's route with the zero map, which does not solve the
        phi equation there, gives 12."""
        loc = local_structure(fixture_graph("diamond_signed"), "1")
        v = np.ones(loc.m * loc.d, dtype=complex)
        assert ric_and_metric(loc, INF, v, v)[0] == pytest.approx(3.0)
        assert v @ ricci_psi_route(loc, INF, phi_map(loc)) @ v == pytest.approx(3.0)
        assert v @ ricci_psi_route(loc, INF, np.zeros((1, 2))) @ v == pytest.approx(12.0)

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
        xi = coordinate_map(loc, bundle.b)
        v_star = np.linalg.solve(xi, np.conj(vec))
        ric, g = ric_and_metric(loc, INF, v_star, v_star)
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
        # B's g-orthonormal coordinates (B^{-T} Phi)[d:] drop the p0 part of
        # a Phi lift, so coordinate_map takes no phi: in the canonical basis
        # and in a general one it equals that product for any phi, solving
        # or not, and gives |v_B|^2 = g(v, v)
        rng = np.random.default_rng(69)
        loc = local_structure(random_graph(rng, d=2), "1")
        f = phi_map(loc)
        for b in (curvature_bundle(loc).b, general_basis(loc, seed=3)):
            xi = coordinate_map(loc, b)
            for _ in range(3):
                perturbed = f + (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
                want = (np.linalg.inv(b).T @ phi_matrix(loc, perturbed))[loc.d:]
                assert_close(xi, want, 1e-12 * max(1.0, float(np.max(np.abs(xi)))))
                v = rand_tangent(rng, loc)
                vb = xi @ v
                _, g = ric_and_metric(loc, INF, v, v)
                assert abs(g - np.vdot(vb, vb)) <= 1e-12

    def test_explicit_basis_matrix_represents_the_tensor(self):
        """For every fixture vertex and several general bases B, the tensor
        equals B's curvature matrix on B's coordinates formed straight from
        their definition, ``v_B = (B^{-T} Phi)[d:] v``:
        ``Ric_N(v, v) = v_B^T A_N(B) conj(v_B)`` and ``g(v, v) = |v_B|^2``.
        This reads neither the unitary of ``B B0^{-1}`` nor coordinate_map,
        and covers the balanced g4_signed vertices 4 and 5, where a = 0."""
        rng = np.random.default_rng(70)
        for name in fixture_names():
            g = fixture_graph(name)
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                phim = phi_matrix(loc, phi_map(loc))
                for seed in (0, 1, 2):
                    b = general_basis(loc, seed)
                    xi = (np.linalg.inv(b).T @ phim)[loc.d:]
                    v = rand_tangent(rng, loc)
                    vb = xi @ v
                    for n in (INF, 1.5):
                        ric, met = ric_and_metric(loc, n, v, v)
                        a_b = curvature_matrix(loc, n, b).mat
                        want = vb @ a_b @ np.conj(vb)
                        scale = max(1.0, abs(ric), float(np.max(np.abs(a_b))) * np.vdot(vb, vb).real)
                        assert abs(ric - want) <= 1e-12 * scale, (name, x, seed, n, ric, want)
                        assert abs(met - np.vdot(vb, vb)) <= 1e-12 * max(1.0, abs(met)), (name, x, seed)

    def test_balanced_ric_independent_of_phi_choice(self):
        # on a balanced ball a = 0, so every phi solves its equation, and the
        # paper's route gives the library's Ric with any of them
        rng = np.random.default_rng(70)
        g = random_balanced_graph(rng, d=2)
        loc = local_structure(g, "1")
        f = phi_map(loc)
        for n in (INF, 2.5):
            for _ in range(3):
                v = rand_tangent(rng, loc)
                ric, _ = ric_and_metric(loc, n, v, v)
                perturbed = f + (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
                assert abs(ric - v @ ricci_psi_route(loc, n, perturbed) @ np.conj(v)) <= 1e-9


class TestAssemblyCount:
    """Each call builds Ric_N and g as matrices once, from the md-size 4*Q:
    no call assembles the (m+n+1)d 4*Gamma_2, whatever the number of
    vectors, and tensor.py does not import the full-matrix assembler."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        return count_gamma2_assemblies(monkeypatch)

    def test_gamma2_assemblies_per_call(self, calls):
        import concurv.tensor
        assert "_gamma2_array" not in vars(concurv.tensor)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        v = np.arange(loc.m * loc.d) + 1j
        for n in (INF, 2.5):
            tensor_matrix_check(loc, n)
            ric_and_metric(loc, n, v, v)
        assert calls == []

    @pytest.mark.parametrize("fn", [_q_array, _ball_blocks], ids=["q_array", "ball_blocks"])
    def test_q_once_per_call(self, fn, monkeypatch):
        """One 4*Q per tensor call: phi, R and an explicit basis are read
        from one elimination, with or without a given basis."""
        loc = local_structure(fixture_graph("g1_u2"), "1")
        b = general_basis(loc, seed=1)
        v = np.arange(loc.m * loc.d) + 1j
        calls = count_calls(monkeypatch, fn)
        for run in (lambda: tensor_matrix_check(loc, 2.5),
                    lambda: tensor_matrix_check(loc, 2.5, b=b),
                    lambda: ric_and_metric(loc, 2.5, v, v)):
            calls.clear()
            run()
            assert calls == ["1"]


def ricci_psi_route(loc, n, phi):
    """The Ricci matrix as the paper defines it: 2*Gamma_2 on the Psi
    extensions of the Phi lifts, minus the (2/N) Laplacian-square term."""
    phim = phi_matrix(loc, phi)
    ext = psi_extend(loc, phim)
    return ext.T @ (gamma2_matrix(loc).mat / 2.0) @ np.conj(ext) - laplacian_term(loc, n, phim)


def laplacian_term(loc, n, phim):
    """(2/N) lap lap^H with lap = Phi^T Delta, as the paper's route subtracts
    it; the library's ``(2/N) P P^T`` is the same term (TestLaplacianLift)."""
    if n == INF:
        return 0.0
    lap = phim.T @ delta_matrix(loc)
    return (2.0 / n) * lap @ lap.conj().T


def ricci_reference(g, x, ns):
    """The Ricci matrices at each N in ns to 50 digits, whatever phi solves
    its equation.  With ``B_T = [p0^T; T^T]``, T the Phi lift of the zero
    map, ``Phi^T = [phi^T, I] B_T``, so for a solving phi the first term
    ``Phi^T (Q/2) conj(Phi)`` is the Schur complement of the kernel block
    ``a`` in ``B_T (Q/2) B_T^H``, taken with the exact inverse of ``a`` and Q
    from :func:`q_reference`.  The float64 Laplacian-square term of the
    paper's route does not depend on phi either: ``p0^T Delta = 0``."""
    import mpmath

    loc = local_structure(g, x)
    d, md = loc.d, loc.m * loc.d
    t = phi_matrix(loc, np.zeros((d, md)))
    with mpmath.workdps(50):
        b_t = mpmath.matrix(np.vstack([canonical_basis(loc)[:d], t.T]).tolist())
        k = b_t * (q_reference(g, x) / 2) * b_t.H
        a, w = k[:d, :d], k[:d, d:]
        r = k[d:, d:] - w.H * mpmath.inverse(a) * w
        r = np.array(r.tolist(), dtype=complex)
    return [r - laplacian_term(loc, n, t) for n in ns]


def test_ricci_matrix_matches_psi_route():
    """The library's R, built from the md-size 4*Q, against the Psi route
    built here from psi_extend and gamma2_matrix, at every vertex of the
    fixtures and of 120 random graphs with d = 1..3, at N = inf and 2.5.

    The routes agree within 1e-12 * max(1, max|R|) on all but a few balls
    (9 of 577 here).  Those have a nearly singular kernel block: the Phi
    lift is large (up to 844) and R cancels, so the routes differ by up to
    a few 1e-9 * max|R|.  On those balls both are compared with the
    50-digit R of :func:`ricci_reference`, which does not use the phi under
    test, and the library's error must be at most twice the Psi route's:
    both round at the same scale and neither is always the closer.  Here
    the library is off by up to 3.6e-9 of max|R| and the Psi route by up to
    5.4e-9; the library is the closer on 8 of the 9 and has 1.43 times the
    Psi route's error on the last."""
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(76)
    graphs = [fixture_graph(name) for name in fixture_names()]
    graphs += [random_graph(rng, d=1 + t % 3) for t in range(120)]
    ns = (INF, 2.5)
    balls = 0
    for g in graphs:
        for x in g.vertex_ids:
            if not g.neighbors(x):
                continue
            loc = local_structure(g, x)
            phi, e = phi_map(loc), curvature_bundle(loc)
            balls += 1
            pairs = [(_tensor_matrices(e, n)[0], ricci_psi_route(loc, n, phi)) for n in ns]
            scales = [max(1.0, float(np.max(np.abs(want)))) for _, want in pairs]
            if all(np.max(np.abs(r - want)) <= 1e-12 * scale
                   for (r, want), scale in zip(pairs, scales)):
                continue
            for (r, want), exact, scale in zip(pairs, ricci_reference(g, x, ns), scales):
                lib_err = float(np.max(np.abs(r - exact)))
                psi_err = float(np.max(np.abs(want - exact)))
                assert lib_err <= max(2.0 * psi_err, 1e-12 * scale), (x, lib_err, psi_err)
    assert balls >= 500


def fixture_balls():
    for name in fixture_names():
        g = fixture_graph(name)
        yield from (local_structure(g, x) for x in g.vertex_ids if g.neighbors(x))


class TestLaplacianLift:
    """R's dimension term is ``(2/N) P P^T`` with ``P = p_x (x) I_d``, the
    tangent-space Laplacian, weighed by A_N's N rule: tensor.py forms no
    Delta(x), so the identity ``Phi^T Delta(x) = P`` is checked here."""

    N_GRID = (INF, 4.0, 1.0, 1e-8, 1e-300)

    def test_phi_lift_of_the_laplacian_is_p(self):
        """``Phi^T Delta(x) = p_x (x) I_d`` for the phi of phi_map and for the
        zero map, at every fixture vertex and every vertex of 40 random
        graphs (d = 1..3): ``p0^T`` annihilates Delta(x), and the sigma^{-1}
        blocks of Phi meet the ``p_xyi sigma_xyi^T`` blocks of Delta(x).  The
        bound is relative to ``|Phi|^T |Delta(x)|``, the scale at which the
        product rounds (the largest deviation here is 9.1e-16 of it)."""
        rng = np.random.default_rng(78)
        locs = list(fixture_balls())
        for t in range(40):
            g = random_graph(rng, d=1 + t % 3)
            locs += [local_structure(g, x) for x in g.vertex_ids if g.neighbors(x)]
        for loc in locs:
            p = np.kron(loc.p_x[:, None], np.eye(loc.d))
            delta = delta_matrix(loc)
            for f in (phi_map(loc), np.zeros((loc.d, loc.m * loc.d))):
                phim = phi_matrix(loc, f)
                scale = float(np.max(np.abs(phim).T @ np.abs(delta)))
                assert np.max(np.abs(phim.T @ delta - p)) <= 1e-14 * scale, loc.center
        assert len(locs) >= 200

    def test_overflowing_n_is_refused(self):
        """At vertex 1 of g1_u2 with every weight times 1e20 (rates 1e20),
        ``(2/N) P P^T`` overflows at N = 1e-300: ric_and_metric refuses N by
        name, as curvature does, instead of returning NaN."""
        loc = local_structure(scaled_rates(fixture_graph("g1_u2"), 1e20), "1")
        v = np.ones(loc.m * loc.d, dtype=complex)
        for call in (lambda: ric_and_metric(loc, 1e-300, v, v),
                     lambda: tensor_matrix_check(loc, 1e-300),
                     lambda: curvature(loc, 1e-300)):
            with pytest.raises(ValidationError, match=r"N = 1e-300 is too small"):
                call()

    def test_tensor_refuses_the_n_curvature_refuses(self):
        """On every fixture vertex and on the 1e20-rate ball, at N in
        N_GRID, ric_and_metric and tensor_matrix_check refuse exactly the N
        that curvature refuses, and the residuals of tensor_matrix_check
        stay within 1e-14 (3.0e-15 measured; R is its dimension term at
        N = 1e-300).  Between the two overflow points of the large ball
        (``2 p / N`` and ``2 p^2 / N`` past the largest double) the tensors
        refuse N while curvature does not: R holds the Laplacian square in
        the unnormalized tangent coordinates, whose entries ``(2/N) p^2``
        are not doubles there, while A_N holds ``(2/N) p``."""
        def outcome(call):
            try:
                return call()
            except ValidationError:
                return None

        big = local_structure(scaled_rates(fixture_graph("g1_u2"), 1e20), "1")
        for loc in (*fixture_balls(), big):
            v = np.ones(loc.m * loc.d, dtype=complex)
            for n in self.N_GRID:
                want = outcome(lambda: curvature(loc, n)) is None
                assert (outcome(lambda: ric_and_metric(loc, n, v, v)) is None) is want, (loc.center, n)
                resid = outcome(lambda: tensor_matrix_check(loc, n))
                assert (resid is None) is want, (loc.center, n)
                assert want or resid <= 1e-14, (loc.center, n, resid)
        v = np.ones(big.m * big.d, dtype=complex)
        assert outcome(lambda: curvature(big, 1e-280)) is not None
        assert outcome(lambda: ric_and_metric(big, 1e-280, v, v)) is None


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
        """Random balls, and the balanced g4_signed vertices 4 and 5 (a is
        exactly 0 there) with 32 general bases each."""
        rng = np.random.default_rng(72)
        cases = []
        for trial in range(6):
            d = 1 if trial % 2 == 0 else 2
            cases.append((local_structure(random_graph(rng, d=d), "1"), trial))
        g4 = fixture_graph("g4_signed")
        cases += [(local_structure(g4, x), seed) for x in ("4", "5") for seed in range(32)]
        for loc, seed in cases:
            b = general_basis(loc, seed=seed)
            for n in (1.5, INF):
                assert tensor_matrix_check(loc, n, b=b, seed=seed) <= 1e-9, (loc.center, seed)

    def test_residuals_at_large_rates(self):
        """Each residual is relative to the size of the matrices it reads,
        so correct tensors pass at rates scaled by 1e8 (absolute residuals
        there reach 1e4)."""
        rng = np.random.default_rng(77)
        for trial in range(12):
            loc = local_structure(scaled_rates(random_graph(rng, d=1 + trial % 3), 1e8), "1")
            b = general_basis(loc, seed=trial)
            for n in (1.5, INF):
                assert tensor_matrix_check(loc, n) <= 1e-9
                assert tensor_matrix_check(loc, n, b=b, seed=trial) <= 1e-9

    @pytest.mark.parametrize("name, x, n", [
        ("single_edge", "x", 1.0), ("single_edge", "y", 1.0),
        ("positive_strip", "6", 4.0), ("positive_strip", "9", 4.0)])
    def test_residuals_on_a_flat_ball(self, name, x, n):
        """A_N and R are exactly zero on these balls, so their scale is 0:
        the residual of two exactly zero matrices is 0, not 0/0, and no
        warning is raised (they were NaN and an 'invalid value' warning)."""
        loc = local_structure(fixture_graph(name), x)
        assert not curvature_matrix(loc, n).mat.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tensor_matrix_check(loc, n) == 0.0
            # only the metric residual is left, and G is not zero
            assert tensor_matrix_check(loc, n, b=general_basis(loc, seed=5)) <= 1e-12

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
    """phi_map with its block-diagonal ``D^{-1} blockdiag(sigma_xyi^T)``
    placed block by block from the loop ball."""
    e = curvature_bundle(loc)
    d, x = ball.d, ball.center
    blocks = np.zeros((ball.m * d, ball.m * d), dtype=complex)
    for i, y in enumerate(ball.s1):
        block = np.sqrt(ball.p[(x, y)]) * ball.sigma[(x, y)].T
        blocks[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    w = e.omega_t @ blocks
    bound = SLACK * float(np.max(np.abs(e.q2)))
    if float(np.max(np.abs(w))) <= bound:
        return np.zeros_like(w)
    m_conj = -(e.eig.pinv() @ e.omega_t) @ blocks
    assert float(np.max(np.abs(w + e.a @ m_conj))) <= bound
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
            want = canonical_basis(loc)[:loc.d].T @ phi + under_blocks_loops(ball, lambda s: s.conj().T)
            assert_close(phi_matrix(loc, phi), want, 1e-15, "phi_matrix")
            v1, v2 = rand_tangent(rng, loc), rand_tangent(rng, loc)
            _, metric = ric_and_metric(loc, INF, v1, v2)
            assert abs(metric - metric_loops(ball, v1, v2)) <= 1e-15
            balls += 1
    assert balls >= 200
