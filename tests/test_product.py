import numpy as np
import pytest

from concurv import (
    INF,
    ConnectionGraph,
    ProductSpec,
    ValidationError,
    cartesian_product,
    curvature,
    curvature_bundle,
    curvature_function,
    curvature_matrix,
    gamma2_matrix,
    load_graph,
    local_structure,
    product_decomposition,
    product_vertex,
    q_matrix,
    star_product,
    switch,
)
from concurv.fixtures import PRODUCT_NONCOMMUTING, fixture_graph

from helpers import (
    assert_close,
    gamma_forms,
    pinv,
    random_balanced_graph,
    random_commuting_pair,
    random_graph,
    random_unitary,
)


def k2_graph(ids=("a", "b")):
    return load_graph({"dimension": 1,
                       "vertices": [{"id": ids[0]}, {"id": ids[1]}],
                       "edges": [{"u": ids[0], "v": ids[1]}]})


def diagonal_torus(rng, side, edge=None, sigma=None):
    """The side x side torus ("ti_j") with random diagonal U(2) connections,
    any two of which commute; the stored edge ``edge`` carries ``sigma``."""
    def t(i, j):
        return f"t{i % side}_{j % side}"
    edges = []
    for i in range(side):
        for j in range(side):
            for uv in ((t(i, j), t(i + 1, j)), (t(i, j), t(i, j + 1))):
                s = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
                edges.append((*uv, 1.0, sigma if uv == edge else s))
    return ConnectionGraph(2, "complex", [(t(i, j), 1.0) for i in range(side)
                                          for j in range(side)], edges)


def trivializing_switch(g, x):
    """Gauge with sigma = I on every edge leaving x."""
    tau = {v: np.eye(g.dimension, dtype=complex) for v in g.vertex_ids}
    for y in g.neighbors(x):
        tau[y] = g.sigma(y, x)
    return switch(g, tau)


class TestCartesianProduct:
    def test_k2_times_k2_is_4_cycle(self):
        prod = cartesian_product(k2_graph(("a", "b")), k2_graph(("c", "d")), ProductSpec())
        assert prod.vertex_ids == ("a|c", "a|d", "b|c", "b|d")
        assert len(prod.edge_list()) == 4
        for v in prod.vertex_ids:
            assert prod.measure(v) == 1.0
            assert len(prod.neighbors(v)) == 2
        for u, v, w, s in prod.edge_list():
            assert w == 1.0
            assert s[0, 0] == 1.0

    def test_weights_and_measures(self):
        rng = np.random.default_rng(81)
        g = random_graph(rng, d=1)
        g2 = random_graph(rng, d=1)
        spec = ProductSpec(alpha=1.7, beta=0.4)
        prod = cartesian_product(g, g2, spec)
        u, v, w, _ = g.edge_list()[0]
        x2 = g2.vertex_ids[0]
        assert prod.weight(product_vertex(u, x2), product_vertex(v, x2)) == pytest.approx(
            1.7 * w * g2.measure(x2))
        x = g.vertex_ids[0]
        u2, v2, w2, _ = g2.edge_list()[0]
        assert prod.weight(product_vertex(x, u2), product_vertex(x, v2)) == pytest.approx(
            0.4 * w2 * g.measure(x))
        assert prod.measure(product_vertex(x, x2)) == pytest.approx(
            g.measure(x) * g2.measure(x2))

    def test_triangle_times_diamond_local_structure(self):
        prod = cartesian_product(fixture_graph("triangle_signed"),
                                 fixture_graph("diamond_signed"), ProductSpec())
        loc = local_structure(prod, "A|1")
        assert loc.s1 == ("A|2", "A|3", "B|1", "C|1")
        # negative connections survive on the lifted edges
        assert prod.sigma("A|1", "C|1")[0, 0] == -1.0
        assert prod.sigma("A|2", "A|3")[0, 0] == -1.0

    def test_separator_collision_rejected(self):
        g = load_graph({"dimension": 1, "vertices": [{"id": "a|b"}, {"id": "c"}],
                        "edges": [{"u": "a|b", "v": "c"}]})
        with pytest.raises(ValidationError, match="ambiguous"):
            cartesian_product(g, k2_graph(), ProductSpec())

    def test_dimension_mismatch_needs_tensor_lift(self):
        rng = np.random.default_rng(82)
        g1 = random_graph(rng, d=1)
        g2 = random_graph(rng, d=2)
        with pytest.raises(ValidationError, match="tensor"):
            cartesian_product(g1, g2, ProductSpec())
        prod = cartesian_product(g1, g2, ProductSpec(lift="tensor"))
        assert prod.dimension == 2

    def test_tensor_lift_preserves_factor_curvature(self):
        rng = np.random.default_rng(83)
        g1 = random_graph(rng, d=1)
        g2 = random_graph(rng, d=2)
        from concurv.product import _tensor_lift
        lifted = _tensor_lift(g1, 1, 2, "left")
        k, _ = curvature(local_structure(g1, "1"), INF)
        k_lift, _ = curvature(local_structure(lifted, "1"), INF)
        assert k_lift == pytest.approx(k, abs=1e-9)


class TestProductGamma2Blocks:
    """With both factors gauged trivial at the base vertices, every block of
    the product 4*Gamma_2 is a scaled factor block plus explicit coupling
    terms, and the Schur complement splits into a direct sum."""

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.3, 0.6)])
    def test_blocks_and_q_decomposition(self, alpha, beta):
        rng = np.random.default_rng(84)
        g = trivializing_switch(random_graph(rng, d=1), "1")
        g2 = trivializing_switch(random_graph(rng, d=1), "1")
        spec = ProductSpec(alpha=alpha, beta=beta)
        prod = cartesian_product(g, g2, spec)
        x, x2 = "1", "1"
        loc1 = local_structure(g, x)
        loc2 = local_structure(g2, x2)
        locp = local_structure(prod, product_vertex(x, x2))

        g2m1 = gamma2_matrix(loc1).mat
        g2m2 = gamma2_matrix(loc2).mat
        g2mp = gamma2_matrix(locp).mat

        pos1 = {v: i for i, v in enumerate(loc1.vertices)}
        pos2 = {v: i for i, v in enumerate(loc2.vertices)}
        posp = {v: i for i, v in enumerate(locp.vertices)}
        dx1 = loc1.dx_over_mux
        dx2 = loc2.dx_over_mux
        p1 = {y: g.p(x, y) for y in loc1.s1}
        p2 = {y: g2.p(x2, y) for y in loc2.s1}
        s1_1, s2_1 = set(loc1.s1), set(loc1.s2)
        s1_2, s2_2 = set(loc2.s1), set(loc2.s2)

        def kind(u):
            a, b = u.split("|")
            if a == x and b == x2:
                return ("base", None)
            if b == x2:
                return ("gy", a) if a in s1_1 else ("gz", a)
            if a == x:
                return ("hy", b) if b in s1_2 else ("hz", b)
            return ("mix", (a, b))

        def expected_entry(u, v):
            (ku, iu), (kv, iv) = kind(u), kind(v)
            if kv == "base" and ku != "base":
                return np.conj(expected_entry(v, u))
            if (ku, kv) == ("base", "base"):
                return (alpha ** 2 * g2m1[0, 0] + beta ** 2 * g2m2[0, 0]
                        + 2 * alpha * beta * dx1 * dx2)
            if ku == "base":
                if kv == "gy":
                    return alpha ** 2 * g2m1[0, pos1[iv]] - 2 * alpha * beta * p1[iv] * dx2
                if kv == "hy":
                    return beta ** 2 * g2m2[0, pos2[iv]] - 2 * alpha * beta * p2[iv] * dx1
                if kv == "gz":
                    return alpha ** 2 * g2m1[0, pos1[iv]]
                if kv == "hz":
                    return beta ** 2 * g2m2[0, pos2[iv]]
                return 2 * alpha * beta * p1[iv[0]] * p2[iv[1]]
            if ku == "gy":
                if kv == "gy":
                    extra = 2 * alpha * beta * p1[iu] * dx2 if iu == iv else 0.0
                    return alpha ** 2 * g2m1[pos1[iu], pos1[iv]] + extra
                if kv == "hy":
                    return 2 * alpha * beta * p1[iu] * p2[iv]
                if kv == "gz":
                    return alpha ** 2 * g2m1[pos1[iu], pos1[iv]]
                if kv == "mix":
                    return -2 * alpha * beta * p1[iu] * p2[iv[1]] if iv[0] == iu else 0.0
                return 0.0  # against hz
            if ku == "hy":
                if kv == "gy":
                    return np.conj(expected_entry(v, u))
                if kv == "hy":
                    extra = 2 * alpha * beta * p2[iu] * dx1 if iu == iv else 0.0
                    return beta ** 2 * g2m2[pos2[iu], pos2[iv]] + extra
                if kv == "hz":
                    return beta ** 2 * g2m2[pos2[iu], pos2[iv]]
                if kv == "mix":
                    return -2 * alpha * beta * p1[iv[0]] * p2[iu] if iv[1] == iu else 0.0
                return 0.0  # against gz
            # u is a 2-sphere vertex of the product: gz, hz or mix
            if u != v:
                if ku in ("gz", "hz", "mix") and kv in ("gz", "hz", "mix"):
                    return 0.0
                return np.conj(expected_entry(v, u))
            if ku == "gz":
                return alpha ** 2 * g2m1[pos1[iu], pos1[iu]]
            if ku == "hz":
                return beta ** 2 * g2m2[pos2[iu], pos2[iu]]
            return 2 * alpha * beta * p1[iu[0]] * p2[iu[1]]

        for u in locp.vertices:
            for v in locp.vertices:
                got = g2mp[posp[u], posp[v]]
                expected = expected_entry(u, v)
                assert abs(got - expected) <= 1e-9, (u, v, got, expected)

        # Schur complements decompose as a direct sum over the two factors
        qp = q_matrix(locp).mat
        q1 = q_matrix(loc1).mat
        q2m = q_matrix(loc2).mat
        m1 = loc1.m
        order = [product_vertex(y, x2) for y in loc1.s1] + [
            product_vertex(x, y2) for y2 in loc2.s1]
        idx = [0] + [1 + locp.s1.index(label) for label in order]
        qp_perm = qp[np.ix_(idx, idx)]
        assert_close(qp_perm[0, 0],
                     alpha ** 2 * q1[0, 0] + beta ** 2 * q2m[0, 0], 1e-9)
        assert_close(qp_perm[1:m1 + 1, 1:m1 + 1], alpha ** 2 * q1[1:, 1:], 1e-9)
        assert_close(qp_perm[m1 + 1:, m1 + 1:], beta ** 2 * q2m[1:, 1:], 1e-9)
        assert_close(qp_perm[1:m1 + 1, m1 + 1:],
                     np.zeros((m1, loc2.m)), 1e-9)
        assert_close(qp_perm[0, 1:m1 + 1], alpha ** 2 * q1[0, 1:], 1e-9)
        assert_close(qp_perm[0, m1 + 1:], beta ** 2 * q2m[0, 1:], 1e-9)


class TestDecomposition:
    def test_balanced_factor_kills_r(self):
        rng = np.random.default_rng(85)
        g = random_balanced_graph(rng, d=1)
        g2 = random_graph(rng, d=1)
        dec = product_decomposition(g, g2, ProductSpec(), "1", "1", INF, INF)
        assert float(np.max(np.abs(dec.r))) <= 1e-12
        assert dec.residual <= 1e-9

    def test_random_commuting_pairs(self):
        """The identity holds with R and J PSD, and the product matrix read
        from the two ball graphs is the whole product's, bit for bit."""
        rng = np.random.default_rng(86)
        for trial in range(8):
            g, g2 = random_commuting_pair(rng)
            alpha, beta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
            n = (1.0, 2.5, INF)[trial % 3]
            n2 = (INF, 3.0, 2.0)[trial % 3]
            for lift in ("same-dimension", "tensor"):
                spec = ProductSpec(alpha=alpha, beta=beta, lift=lift)
                dec = product_decomposition(g, g2, spec, "1", "1", n, n2)
                assert dec.residual <= 1e-9
                for mat in (dec.r, dec.j):
                    lam = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])
                    assert lam >= -1e-9
                locp = local_structure(cartesian_product(g, g2, spec), "1|1")
                d = locp.d
                idx = np.concatenate([np.arange(d) + d * locp.s1.index(label)
                                      for label in dec.block_order])
                whole = curvature_matrix(locp, n + n2).mat[np.ix_(idx, idx)]
                assert np.array_equal(dec.a_product, whole), (trial, lift)

    def test_r_matches_svd_reference(self):
        """R from the factors' eigh pseudoinverses against R built with
        numpy's SVD pseudoinverse (``helpers.pinv``) from the factor
        bundles, at several vertex pairs of random commuting pairs."""
        rng = np.random.default_rng(89)
        pairs = 0
        for _ in range(12):
            g, g2 = random_commuting_pair(rng)
            spec = ProductSpec(alpha=float(rng.uniform(0.5, 2.0)),
                               beta=float(rng.uniform(0.5, 2.0)))
            al, be = spec.alpha, spec.beta
            for x, x2 in zip(g.vertex_ids[:2], g2.vertex_ids[:2]):
                if not (g.neighbors(x) and g2.neighbors(x2)):
                    continue
                dec = product_decomposition(g, g2, spec, x, x2, INF, 2.0)
                b1 = curvature_bundle(local_structure(g, x))
                b2 = curvature_bundle(local_structure(g2, x2))
                s = pinv(al**2 * b1.a + be**2 * b2.a)
                w1c, w2c = b1.omega_t.conj().T, b2.omega_t.conj().T
                r12 = -(al * be) ** 1.5 * w1c @ s @ b2.omega_t
                want = np.block([
                    [al**3 * w1c @ (pinv(al**2 * b1.a) - s) @ b1.omega_t, r12],
                    [r12.conj().T, be**3 * w2c @ (pinv(be**2 * b2.a) - s) @ b2.omega_t]])
                assert_close(dec.r, want, 1e-10 * max(1.0, float(np.max(np.abs(want)))))
                pairs += 1
        assert pairs >= 12

    def test_noncommuting_refused(self):
        with pytest.raises(ValidationError, match="commute"):
            product_decomposition(fixture_graph("triangle_u2"),
                                  fixture_graph("diamond_u2"),
                                  ProductSpec(), "A", "1", INF, INF)
        # Only the connections of the two 2-balls must commute: a Haar U(2)
        # outside the 2-ball of t0_0 (far away, or from its 2-sphere to its
        # 3-sphere) leaves the identity exact, one at t0_0 is refused.
        rng = np.random.default_rng(93)
        haar = random_unitary(rng, 2)
        assert np.abs(haar @ np.diag([1.0, 1j]) - np.diag([1.0, 1j]) @ haar).max() > 1e-3
        g2 = diagonal_torus(rng, 8)
        for edge in (("t4_4", "t5_4"), ("t2_0", "t3_0")):
            g = diagonal_torus(rng, 8, edge, haar)
            for n, n2 in ((INF, INF), (3.0, 2.0)):
                dec = product_decomposition(g, g2, ProductSpec(), "t0_0", "t0_0", n, n2)
                assert dec.residual <= 1e-12
                for mat in (dec.r, dec.j):
                    assert float(np.linalg.eigvalsh(mat)[0]) >= -1e-12
        g = diagonal_torus(rng, 8, ("t0_0", "t1_0"), haar)
        with pytest.raises(ValidationError, match="commute"):
            product_decomposition(g, g2, ProductSpec(), "t0_0", "t0_0", INF, INF)

    def test_reads_only_the_two_balls(self, monkeypatch):
        """No graph built by a decomposition has more vertices than the
        product of the two factor 2-balls."""
        rng = np.random.default_rng(94)
        g, g2 = diagonal_torus(rng, 20), diagonal_torus(rng, 20)
        ball, ball2 = (1 + loc.m + loc.n for loc in (local_structure(g, "t0_0"),
                                                     local_structure(g2, "t0_0")))
        built = []
        from_arrays = ConnectionGraph._from_arrays

        def spy(cls, dimension, field, ids, *rest):
            built.append(len(ids))
            return from_arrays(dimension, field, ids, *rest)

        monkeypatch.setattr(ConnectionGraph, "_from_arrays", classmethod(spy))
        for lift in ("same-dimension", "tensor"):
            dec = product_decomposition(g, g2, ProductSpec(lift=lift),
                                        "t0_0", "t0_0", INF, 2.0)
            assert dec.residual <= 1e-12
        assert built and max(built) <= ball * ball2 == 169

    def test_tensor_lift_decomposition(self):
        rng = np.random.default_rng(87)
        g = random_graph(rng, d=1)
        g2 = random_graph(rng, d=2)
        dec = product_decomposition(g, g2, ProductSpec(lift="tensor"),
                                    "1", "1", 2.0, INF)
        assert dec.residual <= 1e-9

    def test_curvature_lower_bound(self):
        rng = np.random.default_rng(88)
        for trial in range(6):
            g, g2 = random_commuting_pair(rng)
            alpha = float(rng.uniform(0.5, 1.5))
            beta = float(rng.uniform(0.5, 1.5))
            spec = ProductSpec(alpha=alpha, beta=beta)
            n, n2 = (2.0, 4.0) if trial % 2 else (INF, INF)
            k1, _ = curvature(local_structure(g, "1"), n)
            k2, _ = curvature(local_structure(g2, "1"), n2)
            prod = cartesian_product(g, g2, spec)
            ntot = n + n2
            kp, _ = curvature(local_structure(prod, "1|1"), ntot)
            assert kp >= min(alpha * k1, beta * k2) - 1e-9

    def test_sandwich_bound_dimension_one(self):
        rng = np.random.default_rng(89)
        for _ in range(6):
            g = random_graph(rng, d=1)
            g2 = random_graph(rng, d=1)
            alpha = float(rng.uniform(0.5, 1.5))
            beta = float(rng.uniform(0.5, 1.5))
            k1, _ = curvature(local_structure(g, "1"), INF)
            k2, _ = curvature(local_structure(g2, "1"), INF)
            prod = cartesian_product(g, g2, ProductSpec(alpha=alpha, beta=beta))
            kp, _ = curvature(local_structure(prod, "1|1"), INF)
            assert min(alpha * k1, beta * k2) - 1e-9 <= kp
            assert kp <= max(alpha * k1, beta * k2) + 1e-9

    def test_commuting_hypothesis_is_necessary(self):
        # same two U(2) graphs as the refused pair, but with the diamond
        # connection moved onto a base-incident edge: the product curvature
        # then drops strictly below both factor curvatures
        tri = fixture_graph("triangle_u2")
        dia = load_graph({"dimension": 2, "field": "complex",
                          "vertices": [{"id": v} for v in "1234"],
                          "edges": [
                              {"u": "1", "v": "2",
                               "sigma": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                              {"u": "1", "v": "3"}, {"u": "2", "v": "4"},
                              {"u": "3", "v": "4"}, {"u": "2", "v": "3"}]})
        k1, _ = curvature(local_structure(tri, "A"), INF)
        k2, _ = curvature(local_structure(dia, "1"), INF)
        prod = cartesian_product(tri, dia, ProductSpec())
        kp, _ = curvature(local_structure(prod, "A|1"), INF)
        assert kp < min(k1, k2) - 1e-6
        assert kp < 0

    @staticmethod
    def noncommuting_gamma2_at_a1():
        """The product of the non-commuting U(2) fixtures, its ball at (A, 1)
        and the assembled 4*Gamma_2 there."""
        prod = cartesian_product(fixture_graph("triangle_u2"), fixture_graph("diamond_u2"),
                                 ProductSpec())
        loc = local_structure(prod, "A|1")
        return prod, loc, gamma2_matrix(loc).mat

    def test_noncommuting_gamma2_matches_recursive_forms(self):
        # 4*Gamma_2(e_i, e_j)(x) straight from the recursive definitions, for
        # the unit vectors e_i of the 2-ball, against the assembled matrix
        prod, loc, g2 = self.noncommuting_gamma2_at_a1()
        d = loc.d
        units = []
        for v in loc.vertices:
            for k in range(d):
                f = {u: np.zeros(d) for u in prod.vertex_ids}
                f[v] = np.eye(d)[k]
                units.append(f)
        recursive = np.array([[4 * gamma_forms(prod, f, h, loc.center)[1] for h in units]
                              for f in units])
        assert recursive.shape == g2.shape == (20, 20)
        assert_close(recursive, g2, 1e-12, "4*Gamma_2 at (A,1)")

    def test_noncommuting_gamma2_min_eig_at_50_digits(self):
        mpmath = pytest.importorskip("mpmath")
        _, _, g2 = self.noncommuting_gamma2_at_a1()
        # the entries are Gaussian integers, so the float matrix is exact
        assert_close(g2, np.round(g2.real) + 1j * np.round(g2.imag), 0.0, "integer entries")
        with mpmath.workdps(50):
            lam = min(mpmath.eighe(mpmath.matrix(g2.tolist()), eigvals_only=True))
            assert abs(lam - PRODUCT_NONCOMMUTING["A|1"]["gamma2_min_eig"]) <= 1e-12


class TestSwitchCompatibility:
    def test_product_of_switched_factors(self):
        rng = np.random.default_rng(90)
        g = random_graph(rng, d=1)
        g2 = random_graph(rng, d=1)
        tau = {v: random_unitary(rng, 1) for v in g.vertex_ids}
        tau2 = {v: random_unitary(rng, 1) for v in g2.vertex_ids}
        lhs = cartesian_product(switch(g, tau), switch(g2, tau2), ProductSpec())
        tau_prod = {product_vertex(x, x2): tau[x] @ tau2[x2]
                    for x in g.vertex_ids for x2 in g2.vertex_ids}
        rhs = switch(cartesian_product(g, g2, ProductSpec()), tau_prod)
        for u, v, w, s in lhs.edge_list():
            assert rhs.weight(u, v) == pytest.approx(w)
            assert_close(rhs.sigma(u, v), s, 1e-9)


class TestStarProduct:
    def test_equal_factors_halve_the_argument(self):
        f = lambda t: 2.0 - 2.0 / t  # curvature function of a single edge
        for t in (1.0, 3.0, 10.0):
            assert star_product(f, f, t) == pytest.approx(f(t / 2), abs=1e-9)

    def test_infinite_argument_takes_min(self):
        f1 = lambda t: 0.5 - 1.0 / t
        f2 = lambda t: 1.5 - 2.0 / t
        assert star_product(f1, f2, INF) == 0.5

    def test_product_profile_is_star_of_factor_profiles(self):
        rng = np.random.default_rng(91)
        g = random_balanced_graph(rng, d=1)
        g2 = random_graph(rng, d=1)
        prod = cartesian_product(g, g2, ProductSpec())
        f1 = curvature_function(local_structure(g, "1"))
        f2 = curvature_function(local_structure(g2, "1"))
        fp = curvature_function(local_structure(prod, "1|1"))
        for t in (1.5, 3.0, 7.0, INF):
            star = star_product(lambda s: f1(s)[0], lambda s: f2(s)[0], t)
            assert fp(t)[0] == pytest.approx(star, abs=1e-7)

    def test_associativity(self):
        rng = np.random.default_rng(92)
        fs = []
        for _ in range(3):
            loc = local_structure(random_graph(rng, d=1), "1")
            f = curvature_function(loc)
            fs.append(lambda t, f=f: f(t)[0])
        f1, f2, f3 = fs
        left_inner = lambda t: star_product(f1, f2, t)
        right_inner = lambda t: star_product(f2, f3, t)
        for t in (2.0, 5.0, 12.0):
            left = star_product(left_inner, f3, t)
            right = star_product(f1, right_inner, t)
            assert left == pytest.approx(right, abs=1e-6)

    def test_too_small_t_rejected_by_name(self):
        """A t whose bracket end t * 1e-12 would fail the N rule is refused
        naming t, not an N the caller never gave."""
        f = curvature_function(local_structure(fixture_graph("g1_u2"), "1"))
        with pytest.raises(ValidationError, match="star_product: t = 1e-300"):
            star_product(lambda s: f(s)[0], lambda s: f(s)[0], 1e-300)

    def test_non_bracketing_input_rejected(self):
        up = lambda t: 5.0  # no divergence at zero: no balance point
        down = lambda t: -7.0
        with pytest.raises(ValidationError, match="monotone"):
            star_product(up, down, 4.0)
