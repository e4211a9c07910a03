import json

import numpy as np
import pytest

from concurv import (
    ConnectionGraph,
    ValidationError,
    is_locally_balanced,
    load_graph,
    local_structure,
    signature_groups_commute,
    switch,
)
from concurv.fixtures import fixture_document, fixture_graph

from helpers import (
    MALFORMED_DOCUMENTS,
    NON_FINITE_DOCUMENTS,
    assert_close,
    random_balanced_graph,
    random_graph,
    random_switching,
)


class TestLoadGraph:
    def test_u2_fixture_roundtrip(self):
        g = load_graph(json.dumps(fixture_document("g1_u2")))
        assert g.dimension == 2
        assert g.vertex_ids == ("1", "2", "3", "4")
        assert_close(g.sigma("2", "3"), np.array([[0, 1j], [-1j, 0]]), 0.0)
        assert_close(g.sigma("1", "2"), np.eye(2), 0.0)

    def test_single_edge(self):
        g = load_graph({"dimension": 1, "field": "real",
                        "vertices": [{"id": "x"}, {"id": "y"}],
                        "edges": [{"u": "x", "v": "y"}]})
        assert g.weight("x", "y") == 1.0
        assert g.measure("x") == 1.0

    def test_non_unitary_sigma_reports_edge(self):
        doc = {"dimension": 2, "field": "complex",
               "vertices": [{"id": "a"}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b",
                          "sigma": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}]}
        with pytest.raises(ValidationError, match=r"\('a', 'b'\).*not unitary"):
            load_graph(doc)

    def test_near_unitary_is_reprojected(self):
        eps = 1e-10
        doc = {"dimension": 1, "field": "complex",
               "vertices": [{"id": "a"}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b", "sigma": [[[1 + eps, 0]]]}]}
        g = load_graph(doc)
        assert abs(g.sigma("a", "b")[0, 0] - 1.0) < 1e-15

    def test_negative_weight_and_measure(self):
        with pytest.raises(ValidationError, match="weight"):
            load_graph({"dimension": 1, "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b", "weight": -1.0}]})
        with pytest.raises(ValidationError, match="measure"):
            load_graph({"dimension": 1,
                        "vertices": [{"id": "a", "measure": 0.0}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b"}]})

    def test_duplicate_edge_and_self_loop(self):
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph({"dimension": 1, "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "a"}]})
        with pytest.raises(ValidationError, match="self-loop"):
            load_graph({"dimension": 1, "vertices": [{"id": "a"}],
                        "edges": [{"u": "a", "v": "a"}]})

    def test_sigma_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            load_graph({"dimension": 2, "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b", "sigma": [[[1, 0]]]}]})

    def test_sign_shorthand_only_d1(self):
        g = load_graph({"dimension": 1, "field": "real",
                        "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b", "sign": -1}]})
        assert g.sigma("a", "b")[0, 0] == -1.0
        with pytest.raises(ValidationError, match="shorthand"):
            load_graph({"dimension": 2, "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b", "sign": -1}]})

    def test_real_field_rejects_complex_sigma(self):
        with pytest.raises(ValidationError, match="imaginary"):
            load_graph({"dimension": 1, "field": "real",
                        "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [{"u": "a", "v": "b", "sigma": [[[0, 1]]]}]})

    @pytest.mark.parametrize("name", sorted(NON_FINITE_DOCUMENTS))
    def test_non_finite_values_rejected(self, name):
        text, message = NON_FINITE_DOCUMENTS[name]
        with pytest.raises(ValidationError, match=message):
            load_graph(text)

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document_rejected(self, name):
        text, message = MALFORMED_DOCUMENTS[name]
        with pytest.raises(ValidationError, match=message):
            load_graph(text)

    def test_document_roundtrip(self):
        g = fixture_graph("g1_u2")
        g2 = load_graph(g.to_document())
        for u, v, w, s in g.edge_list():
            assert g2.weight(u, v) == w
            assert_close(g2.sigma(u, v), s, 0.0)


class TestReverseConnections:
    def test_reverse_composes_to_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_graph(rng, d=2)
            for u, v, _, _ in g.edge_list():
                assert_close(g.sigma(v, u) @ g.sigma(u, v), np.eye(2), 1e-12)


def ball_from_graph_loops(g, x):
    """The 2-ball of x from the graph's accessors alone: the sorted spheres
    and the rate and connection of every oriented in-ball edge (none between
    two 2-sphere vertices).  An oracle for local_structure."""
    s1 = g.neighbors(x)
    s2 = tuple(sorted({u for y in s1 for u in g.neighbors(y)} - set(s1) - {x}))
    pairs = [(x, y) for y in s1]
    pairs += [(y, v) for y in s1 for v in g.neighbors(y) if v != x]
    p, sigma = {}, {}
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            p[(a, b)] = g.p(a, b)
            sigma[(a, b)] = g.sigma(a, b)
    return s1, s2, p, sigma


class TestEdgeIndex:
    def test_rows_reproduce_the_edges(self):
        """Every CSR row gives the neighbor, rate p_uv = w/mu_u and connection
        of one oriented edge, against the constructor's input."""
        rng = np.random.default_rng(23)
        for trial in range(40):
            d = 1 + trial % 3
            ref = random_graph(rng, n_max=8, d=d, extra_edge_p=0.4)
            mu = {v: ref.measure(v) for v in ref.vertex_ids}
            given = {}
            for u, v, w, s in ref.edge_list():
                given[(u, v)] = (w, np.array(s))
                given[(v, u)] = (w, np.array(s).conj().T)
            # vertices and edges in a scrambled order
            verts = [(v, mu[v]) for v in rng.permutation(list(mu)).tolist()]
            edges = [ref.edge_list()[k] for k in rng.permutation(len(ref.edge_list()))]
            g = ConnectionGraph(d, "complex", verts, edges)
            ix = g.index
            assert ix.ids == tuple(sorted(mu)) == g.vertex_ids
            assert ix.indptr[-1] == len(given) == ix.nbr.size
            for k, u in enumerate(ix.ids):
                lo, hi = ix.indptr[k], ix.indptr[k + 1]
                nbrs = tuple(ix.ids[j] for j in ix.nbr[lo:hi])
                assert nbrs == g.neighbors(u) == tuple(sorted(v for (a, v) in given if a == u))
                for e, v in zip(range(lo, hi), nbrs):
                    w, s = given[(u, v)]
                    assert ix.rate[e] == w / mu[u] == g.p(u, v)
                    assert_close(ix.sigma[e], s, 0.0)
                    assert_close(g.sigma(u, v), s, 0.0)
                    assert ix.nbr[ix.rev[e]] == k and ix.rev[ix.rev[e]] == e
            with pytest.raises(ValueError):
                ix.sigma[0][0, 0] = 0.0

    def test_edgeless_graph(self):
        g = ConnectionGraph(2, "complex", [("b", 1.0), ("a", 2.0)], [])
        assert g.vertex_ids == ("a", "b")
        assert g.neighbors("a") == ()
        assert g.index.sigma.shape == (0, 2, 2)
        assert list(g.index.indptr) == [0, 0, 0]


class TestLocalStructure:
    def test_u2_fixture(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        assert loc.s1 == ("2", "3")
        assert loc.s2 == ("4",)
        assert loc.m == 2 and loc.n == 1
        assert loc.dx_over_mux == pytest.approx(2.0)
        assert all(p == pytest.approx(1.0) for p in loc.p.values())

    def test_single_edge(self):
        g = load_graph({"dimension": 1, "vertices": [{"id": "x"}, {"id": "y"}],
                        "edges": [{"u": "x", "v": "y"}]})
        loc = local_structure(g, "x")
        assert loc.m == 1 and loc.n == 0

    def test_strip_fixture(self):
        loc = local_structure(fixture_graph("positive_strip"), "1")
        assert loc.m == 4 and loc.n == 4
        assert loc.s1 == ("2", "3", "4", "5")
        assert loc.s2 == ("6", "7", "8", "9")

    def test_isolated_vertex(self):
        g = ConnectionGraph(1, "real", [("a", 1.0), ("b", 1.0), ("c", 1.0)],
                            [("a", "b", 1.0, None)])
        with pytest.raises(ValidationError, match="isolated"):
            local_structure(g, "c")

    def test_unknown_vertex(self):
        with pytest.raises(ValidationError, match="not in the graph"):
            local_structure(fixture_graph("g1_u2"), "zz")

    def test_s2_s2_edges_dropped(self):
        # path x - y - z1, y - z2, plus edge z1 - z2 inside the 2-sphere
        g = ConnectionGraph(1, "real",
                            [("x", 1.0), ("y", 1.0), ("z1", 1.0), ("z2", 1.0)],
                            [("x", "y", 1.0, None), ("y", "z1", 1.0, None),
                             ("y", "z2", 1.0, None), ("z1", "z2", 1.0, None)])
        loc = local_structure(g, "x")
        assert loc.s2 == ("z1", "z2")
        assert ("z1", "z2") not in loc.p and ("z2", "z1") not in loc.p

    def test_matches_graph_loops(self):
        """Spheres, rates and connections of every ball against the loop
        extraction from the graph, at every vertex of fixtures and 80 random
        graphs, including 2-sphere edges that must be dropped."""
        rng = np.random.default_rng(24)
        graphs = [fixture_graph("g1_u2"), fixture_graph("positive_strip")]
        graphs += [random_graph(rng, n_max=8, d=1 + t % 3, extra_edge_p=0.45) for t in range(80)]
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                s1, s2, p, sigma = ball_from_graph_loops(g, x)
                assert (loc.s1, loc.s2) == (s1, s2)
                assert loc.p == p
                assert sorted(loc.sigma) == sorted(sigma)
                for key, s in sigma.items():
                    assert_close(loc.sigma[key], s, 0.0)
                assert loc.dx_over_mux == sum(p[(x, y)] for y in s1)

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, d=2)
        a = local_structure(g, "1")
        b = local_structure(g, "1")
        assert a.s1 == b.s1 and a.s2 == b.s2
        assert sorted(a.p) == sorted(b.p)
        for key in a.p:
            assert a.p[key] == b.p[key]
            assert_close(a.sigma[key], b.sigma[key], 0.0)


class TestSwitch:
    def test_identity_switching(self):
        g = fixture_graph("g1_u2")
        tau = {v: np.eye(2) for v in g.vertex_ids}
        g2 = switch(g, tau)
        for u, v, w, s in g.edge_list():
            assert g2.weight(u, v) == w
            assert_close(g2.sigma(u, v), s, 0.0)

    def test_switch_then_inverse_restores(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_graph(rng, d=2)
            tau = random_switching(rng, g)
            tau_inv = {v: t.conj().T for v, t in tau.items()}
            g2 = switch(switch(g, tau), tau_inv)
            for u, v, w, s in g.edge_list():
                assert_close(g2.sigma(u, v), s, 1e-12)

    def test_triangle_sign_switch_preserves_cycle_signature(self):
        g = fixture_graph("triangle_signed")
        tau = {"A": np.array([[1.0]]), "B": np.array([[1.0]]), "C": np.array([[-1.0]])}
        g2 = switch(g, tau)
        sig = g.sigma("A", "B") @ g.sigma("B", "C") @ g.sigma("C", "A")
        sig2 = g2.sigma("A", "B") @ g2.sigma("B", "C") @ g2.sigma("C", "A")
        assert_close(sig, sig2, 1e-12)
        # but the individual edge signs moved
        assert g.sigma("B", "C")[0, 0] != g2.sigma("B", "C")[0, 0]

    def test_missing_vertex_raises(self):
        g = fixture_graph("triangle_signed")
        with pytest.raises(ValidationError, match="missing"):
            switch(g, {"A": np.eye(1), "B": np.eye(1)})

    def test_non_unitary_tau_raises(self):
        g = fixture_graph("triangle_signed")
        tau = {v: np.array([[2.0]]) for v in g.vertex_ids}
        with pytest.raises(ValidationError, match="not unitary"):
            switch(g, tau)


class TestLocallyBalanced:
    def test_u2_fixture_unbalanced(self):
        assert not is_locally_balanced(local_structure(fixture_graph("g1_u2"), "1"))

    def test_identity_graph_balanced(self):
        rng = np.random.default_rng(24)
        g = random_graph(rng, d=2, identity_connections=True)
        assert is_locally_balanced(local_structure(g, "1"))

    def test_diamond_with_negative_spherical_edge(self):
        assert not is_locally_balanced(local_structure(fixture_graph("diamond_signed"), "1"))

    def test_invariant_under_switching(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            g = random_graph(rng, d=2)
            before = is_locally_balanced(local_structure(g, "1"))
            g2 = switch(g, random_switching(rng, g))
            assert is_locally_balanced(local_structure(g2, "1")) == before
        for _ in range(5):
            g = random_balanced_graph(rng, d=2)
            assert is_locally_balanced(local_structure(g, "1"))


class TestSignatureGroupsCommute:
    def test_dimension_one_always(self):
        rng = np.random.default_rng(26)
        g = random_graph(rng, d=1)
        g2 = random_graph(rng, d=1)
        assert signature_groups_commute(g, g2)

    def test_u2_counterpair(self):
        assert not signature_groups_commute(fixture_graph("triangle_u2"),
                                            fixture_graph("diamond_u2"))

    def test_identity_copy_commutes(self):
        rng = np.random.default_rng(27)
        g = random_graph(rng, d=2)
        g_id = random_graph(rng, d=2, identity_connections=True)
        assert signature_groups_commute(g, g_id)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ValidationError, match="dimension"):
            signature_groups_commute(random_graph(rng, d=1), random_graph(rng, d=2))
