import numpy as np
import pytest

from concurv import (
    ValidationError,
    delta_matrix,
    gamma2_matrix,
    gamma_forms,
    gamma_matrix,
    load_graph,
    local_structure,
    q_matrix,
    schur_complement,
    switch,
)
from concurv.fixtures import fixture_graph, fixture_names
from concurv.curvature import canonical_basis, p0_transpose

from helpers import (
    assert_close,
    ball_from_graph_loops,
    random_function,
    random_graph,
    random_switching,
)


def q_closed_form_loops(local, g2: np.ndarray) -> np.ndarray:
    """4*Q(x) from the explicit correction sums over 2-sphere vertices, built
    from the rates and connections of the loop ball (``ball_from_graph_loops``):
    an oracle for q_matrix."""
    d, m = local.d, local.m
    x = local.center
    s1, s2 = local.s1, local.s2
    P = [local.p[(x, y)] for y in s1]
    sx = [local.sigma[(x, y)] for y in s1]
    out = np.array(g2[: (m + 1) * d, : (m + 1) * d], dtype=complex)

    def blk(i):
        return slice(i * d, (i + 1) * d)

    for z in s2:
        r = [local.rate(y, z) for y in s1]
        wk = sum(P[i] * r[i] for i in range(m))
        # row vector of the x block against z, and its building blocks
        sz = [local.sigma[(y, z)] if r[i] else None for i, y in enumerate(s1)]
        xz = np.zeros((d, d), dtype=complex)
        for i in range(m):
            if r[i]:
                xz = xz + P[i] * r[i] * sx[i].conj() @ sz[i].conj()
        out[blk(0), blk(0)] -= xz @ xz.conj().T / wk
        for i in range(m):
            if r[i]:
                corr = 2.0 * P[i] * r[i] / wk * xz @ sz[i].T
                out[blk(0), blk(1 + i)] += corr
                out[blk(1 + i), blk(0)] += corr.conj().T
            for j in range(i, m):
                if not (r[i] and r[j]):
                    continue
                if j == i:
                    out[blk(1 + i), blk(1 + i)] -= 4.0 * P[i] ** 2 * r[i] ** 2 / wk * np.eye(d)
                else:
                    corr = 4.0 * P[i] * r[i] * P[j] * r[j] / wk * sz[i].conj() @ sz[j].T
                    out[blk(1 + i), blk(1 + j)] -= corr
                    out[blk(1 + j), blk(1 + i)] -= corr.conj().T
    return out


def _blk(i, d):
    return slice(i * d, (i + 1) * d)


def degree_ratio_loops(local, v):
    """d_v / mu_v, summed over the oriented edges leaving v inside the ball."""
    return sum(rate for (a, _), rate in local.p.items() if a == v)


def gamma2_matrix_loops(local) -> np.ndarray:
    """4*Gamma_2(x) assembled block by block from the rate and connection
    dictionaries of the loop ball: an oracle for the array assembly."""
    d, m, n = local.d, local.m, local.n
    x = local.center
    s1, s2 = local.s1, local.s2
    P = [local.p[(x, y)] for y in s1]
    pin = [local.p[(y, x)] for y in s1]
    dx = local.dx_over_mux
    dy = [degree_ratio_loops(local, y) for y in s1]
    sx = [local.sigma[(x, y)] for y in s1]
    eye = np.eye(d)
    out = np.zeros(((m + n + 1) * d, (m + n + 1) * d), dtype=complex)
    out[_blk(0, d), _blk(0, d)] = (3.0 * sum(P[i] * pin[i] for i in range(m)) + dx * dx) * eye
    for i, y in enumerate(s1):
        block = -(2.0 * pin[i] + dy[i] + dx) * P[i] * sx[i].conj()
        for j, y2 in enumerate(s1):
            q_ji = local.rate(y2, y)
            if j != i and q_ji:
                block = block + P[j] * q_ji * sx[j].conj() @ local.sigma[(y2, y)].conj()
        out[_blk(0, d), _blk(1 + i, d)] = block
        out[_blk(1 + i, d), _blk(0, d)] = block.conj().T
        diag = (2.0 * P[i] + 3.0 * dy[i] - dx) * P[i]
        diag += sum(P[j] * local.rate(s1[j], y) for j in range(m) if j != i)
        out[_blk(1 + i, d), _blk(1 + i, d)] = diag * eye
        for j in range(i + 1, m):
            y2 = s1[j]
            block = 2.0 * P[i] * P[j] * sx[i].T @ sx[j].conj()
            cross = P[i] * local.rate(y, y2) + P[j] * local.rate(y2, y)
            if cross:
                block = block - 2.0 * cross * local.sigma[(y, y2)].conj()
            out[_blk(1 + i, d), _blk(1 + j, d)] = block
            out[_blk(1 + j, d), _blk(1 + i, d)] = block.conj().T
    for k, z in enumerate(s2):
        col = _blk(1 + m + k, d)
        block = np.zeros((d, d), dtype=complex)
        wk = 0.0
        for i, y in enumerate(s1):
            r_ik = local.rate(y, z)
            if not r_ik:
                continue
            block = block + P[i] * r_ik * sx[i].conj() @ local.sigma[(y, z)].conj()
            wk += P[i] * r_ik
            yz = -2.0 * P[i] * r_ik * local.sigma[(y, z)].conj()
            out[_blk(1 + i, d), col] = yz
            out[col, _blk(1 + i, d)] = yz.conj().T
        out[_blk(0, d), col] = block
        out[col, _blk(0, d)] = block.conj().T
        out[col, col] = wk * eye
    return out


def delta_matrix_loops(local) -> np.ndarray:
    """Delta(x) block by block from the loop ball: an oracle for delta_matrix."""
    d, m = local.d, local.m
    x = local.center
    out = np.zeros(((m + 1) * d, d), dtype=complex)
    out[_blk(0, d), :] = -local.dx_over_mux * np.eye(d)
    for i, y in enumerate(local.s1):
        out[_blk(i + 1, d), :] = local.p[(x, y)] * local.sigma[(x, y)].T
    return out


def canonical_basis_loops(local) -> np.ndarray:
    """B0 block by block from the loop ball: an oracle for canonical_basis."""
    d, m = local.d, local.m
    x = local.center
    out = np.zeros(((m + 1) * d, (m + 1) * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    for i, y in enumerate(local.s1):
        out[:d, _blk(i + 1, d)] = local.sigma[(x, y)].conj()
        out[_blk(i + 1, d), _blk(i + 1, d)] = np.eye(d) / np.sqrt(local.p[(x, y)])
    return out


def single_edge():
    return load_graph({"dimension": 1, "vertices": [{"id": "x"}, {"id": "y"}],
                       "edges": [{"u": "x", "v": "y"}]})


def ball2(g, x):
    s1 = set(g.neighbors(x))
    verts = {x} | s1
    for y in s1:
        verts |= set(g.neighbors(y))
    return sorted(verts)


def local_vector(f, vertices, d):
    return np.concatenate([np.atleast_1d(np.asarray(f[v], dtype=complex)) for v in vertices])


class TestDeltaMatrix:
    def test_single_edge(self):
        loc = local_structure(single_edge(), "x")
        assert_close(delta_matrix(loc), np.array([[-1.0], [1.0]]), 0.0)

    def test_u2_fixture(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        expected = np.vstack([-2 * np.eye(2), np.eye(2), np.eye(2)])
        assert_close(delta_matrix(loc), expected, 0.0)

    def test_constant_function_is_harmonic(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, d=2, identity_connections=True)
        loc = local_structure(g, "1")
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        fvec = np.concatenate([c] * (loc.m + 1))
        assert_close(fvec @ delta_matrix(loc), np.zeros(2), 1e-12)


class TestGammaMatrix:
    def test_single_edge(self):
        loc = local_structure(single_edge(), "x")
        assert_close(gamma_matrix(loc).mat, np.array([[1, -1], [-1, 1]]), 0.0)

    def test_zero_eigenvalue_multiplicity_d(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            loc = local_structure(random_graph(rng, d=d), "1")
            w = np.linalg.eigvalsh(gamma_matrix(loc).mat)
            assert np.all(np.abs(w[:d]) <= 1e-9)
            assert np.all(w[d:] > 1e-9)

    def test_kernel_is_conjugate_p0(self):
        rng = np.random.default_rng(33)
        loc = local_structure(random_graph(rng, d=2), "1")
        p0 = p0_transpose(loc).T
        assert_close(gamma_matrix(loc).mat @ np.conj(p0), np.zeros_like(p0), 1e-12)

    def test_p0_annihilates_delta(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            loc = local_structure(random_graph(rng, d=2), "1")
            out = p0_transpose(loc) @ delta_matrix(loc)
            assert_close(out, np.zeros_like(out), 1e-12)


class TestAssemblyAgainstForms:
    """The matrix assembly must reproduce the recursive form definitions."""

    def test_forms_match_matrices(self):
        rng = np.random.default_rng(35)
        for trial in range(12):
            d = 1 if trial % 2 == 0 else 2
            g = random_graph(rng, d=d)
            x = "1"
            loc = local_structure(g, x)
            f = random_function(rng, g.vertex_ids, d)
            h = random_function(rng, g.vertex_ids, d)
            gamma, gamma2, delta_f = gamma_forms(g, f, h, x)

            fb1 = local_vector(f, (x,) + loc.s1, d)
            hb1 = local_vector(h, (x,) + loc.s1, d)
            fb2 = local_vector(f, loc.vertices, d)
            hb2 = local_vector(h, loc.vertices, d)

            assert abs(fb1 @ gamma_matrix(loc).mat @ np.conj(hb1) - 2 * gamma) <= 1e-9
            assert abs(fb2 @ gamma2_matrix(loc).mat @ np.conj(hb2) - 4 * gamma2) <= 1e-9
            assert_close(fb1 @ delta_matrix(loc), delta_f, 1e-10)

    def test_constant_with_identity_connections(self):
        rng = np.random.default_rng(36)
        g = random_graph(rng, d=2, identity_connections=True)
        c = rng.normal(size=2)
        f = {v: c for v in g.vertex_ids}
        gamma, gamma2, delta_f = gamma_forms(g, f, f, "1")
        assert abs(gamma) <= 1e-12
        assert abs(gamma2) <= 1e-12
        assert_close(delta_f, np.zeros(2), 1e-12)

    def test_undefined_vertex_raises(self):
        g = fixture_graph("g1_u2")
        f = {"1": np.zeros(2), "2": np.zeros(2)}
        with pytest.raises(ValidationError, match="undefined"):
            gamma_forms(g, f, f, "1")


class TestQMatrix:
    def test_no_2_sphere_restricts_gamma2(self):
        # star with two leaves: no 2-sphere at the center
        g = load_graph({"dimension": 1,
                        "vertices": [{"id": "c"}, {"id": "l1"}, {"id": "l2"}],
                        "edges": [{"u": "c", "v": "l1"}, {"u": "c", "v": "l2"}]})
        loc = local_structure(g, "c")
        assert loc.n == 0
        assert_close(q_matrix(loc).mat, gamma2_matrix(loc).mat, 0.0)

    def test_cross_check_runs_on_random_graphs(self):
        """q_matrix against both oracles at every fixture vertex and every
        vertex of 210 random graphs with d = 1, 2, 3."""
        rng = np.random.default_rng(37)
        graphs = [fixture_graph(name) for name in fixture_names()]
        for trial in range(210):
            graphs.append(random_graph(rng, d=1 + trial % 3,
                                       field="real" if trial % 4 == 3 else "complex"))
        no_2_sphere = 0
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                g2 = gamma2_matrix(loc)
                q = q_matrix(loc).mat
                b1 = (loc.m + 1) * loc.d
                assert_close(q, schur_complement(g2, range(b1)).mat, 1e-9, "generic Schur")
                assert_close(q, q_closed_form_loops(ball_from_graph_loops(g, x), g2.mat), 1e-9,
                             "loop closed form")
                no_2_sphere += loc.n == 0
        assert no_2_sphere >= 10

    def test_missing_spherical_edges_vanish(self):
        # no spherical or 2-sphere structure at all: Q reduces to Gamma_2 on B1
        g = load_graph({"dimension": 1,
                        "vertices": [{"id": "c"}, {"id": "a"}, {"id": "b"}, {"id": "e"}],
                        "edges": [{"u": "c", "v": "a"}, {"u": "c", "v": "b"},
                                  {"u": "c", "v": "e"}]})
        loc = local_structure(g, "c")
        q = q_matrix(loc).mat
        # off-diagonal 1-sphere blocks have no spherical/2-sphere terms left
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert q[i, j] == pytest.approx(2.0 * 1.0 * 1.0)


class TestArrayAssemblyAgainstLoops:
    def test_every_fixture_and_random_vertex(self):
        """gamma2_matrix, delta_matrix and canonical_basis against their
        block-by-block loop forms at 1e-12, at every fixture vertex and every
        vertex of 150 random graphs with d = 1, 2, 3 and random weights and
        measures."""
        rng = np.random.default_rng(40)
        graphs = [fixture_graph(name) for name in fixture_names()]
        graphs += [random_graph(rng, n_max=7, d=1 + t % 3, extra_edge_p=0.45)
                   for t in range(150)]
        seen = {"balls": 0, "n = 0": 0, "1-sphere triangle": 0, "2-sphere edge dropped": 0}
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                ball = ball_from_graph_loops(g, x)
                assert_close(gamma2_matrix(loc).mat, gamma2_matrix_loops(ball), 1e-12, "Gamma_2")
                assert_close(delta_matrix(loc), delta_matrix_loops(ball), 1e-12, "Delta")
                assert_close(canonical_basis(loc), canonical_basis_loops(ball), 1e-12, "B0")
                seen["balls"] += 1
                seen["n = 0"] += loc.n == 0
                seen["1-sphere triangle"] += any(
                    g.has_edge(a, b) for i, a in enumerate(loc.s1) for b in loc.s1[i + 1:])
                seen["2-sphere edge dropped"] += any(
                    g.has_edge(a, b) for i, a in enumerate(loc.s2) for b in loc.s2[i + 1:])
        assert seen["balls"] >= 700
        for kind in ("n = 0", "1-sphere triangle", "2-sphere edge dropped"):
            assert seen[kind] >= 100, (kind, seen)


class TestSwitchingCovariance:
    def test_operator_transformation(self):
        rng = np.random.default_rng(38)
        for trial in range(8):
            d = 1 if trial % 2 == 0 else 2
            g = random_graph(rng, d=d)
            tau = random_switching(rng, g)
            g2 = switch(g, tau)
            loc = local_structure(g, "1")
            loc2 = local_structure(g2, "1")
            assert loc.s1 == loc2.s1 and loc.s2 == loc2.s2

            def blockdiag(ids):
                mats = [tau[v] for v in ids]
                out = np.zeros((d * len(mats), d * len(mats)), dtype=complex)
                for k, t in enumerate(mats):
                    out[k * d:(k + 1) * d, k * d:(k + 1) * d] = t
                return out

            tb1 = blockdiag(("1",) + loc.s1)
            tb2 = blockdiag(loc.vertices)
            assert_close(gamma_matrix(loc2).mat,
                         tb1.T @ gamma_matrix(loc).mat @ np.conj(tb1), 1e-9)
            assert_close(gamma2_matrix(loc2).mat,
                         tb2.T @ gamma2_matrix(loc).mat @ np.conj(tb2), 1e-9)
            assert_close(q_matrix(loc2).mat,
                         tb1.T @ q_matrix(loc).mat @ np.conj(tb1), 1e-9)
            assert_close(delta_matrix(loc2),
                         tb1.T @ delta_matrix(loc) @ np.conj(tau["1"]), 1e-9)


def test_two_sphere_block_real_diagonal_positive():
    """The property that makes q_matrix's elimination exact: the 2-sphere
    block of 4*Gamma_2 is real, diagonal and positive, so blocks between
    2-sphere vertices vanish."""
    rng = np.random.default_rng(39)
    locs = [local_structure(fixture_graph("g1_u2"), "1")]
    locs += [local_structure(random_graph(rng, d=1 + t % 3), "1") for t in range(30)]
    locs = [loc for loc in locs if loc.n > 0]
    assert len(locs) >= 10
    for loc in locs:
        b1 = (loc.m + 1) * loc.d
        s2_block = gamma2_matrix(loc).mat[b1:, b1:]
        assert_close(s2_block, np.diag(np.diag(s2_block)), 0.0)
        assert np.all(np.real(np.diag(s2_block)) > 0)
        assert float(np.max(np.abs(np.imag(np.diag(s2_block))))) == 0.0
