import json
import math
import re

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
from concurv.fixtures import fixture_document, fixture_graph, fixture_names
from concurv.graphs import BALANCE_TOL, REPROJECT_TOL, UNITARY_TOL

from helpers import (
    MALFORMED_DOCUMENTS,
    NON_FINITE_DOCUMENTS,
    assert_close,
    ball_from_graph_loops,
    random_balanced_graph,
    random_commuting_pair,
    random_diagonal_graph,
    random_graph,
    random_switching,
    random_unitary,
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

    def test_bad_sigma_names_its_edge(self):
        doc = {"dimension": 2, "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
               "edges": [{"u": "a", "v": "b"},
                         {"u": "b", "v": "c", "sigma": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
        with pytest.raises(ValidationError, match=re.escape("edge ('b', 'c'): malformed sigma")):
            load_graph(doc)
        doc["edges"][1]["sigma"] = [[[1, 0]]]
        with pytest.raises(ValidationError,
                           match=re.escape("edge ('b', 'c'): sigma has shape (1, 1)")):
            load_graph(doc)

    def test_omitted_explicit_and_sign_sigmas_mix(self):
        """Omitted sigmas are I_d, explicit cells are taken exactly, and the
        dimension-1 sign shorthand is -1 or 1, side by side in one document."""
        g = load_graph({"dimension": 1,
                        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}],
                        "edges": [{"u": "a", "v": "b"},
                                  {"u": "b", "v": "c", "sigma": [[[0.6, -0.8]]]},
                                  {"u": "c", "v": "d", "sign": -1},
                                  {"u": "d", "v": "a", "sigma": [[[0, 1]]]}]})
        assert g.sigma("a", "b")[0, 0] == 1.0
        assert g.sigma("b", "c")[0, 0] == complex(0.6, -0.8)
        assert g.sigma("c", "d")[0, 0] == -1.0
        assert g.sigma("d", "a")[0, 0] == 1j
        assert g.sigma("a", "d")[0, 0] == -1j

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


class TestEdgeIndex:
    def test_rows_reproduce_the_edges(self):
        """Every CSR row gives the neighbor, weight, rate p_uv = w/mu_u and
        connection of one oriented edge, and the graph's queries give them
        back exactly, against the constructor's input, for the fixtures and
        40 random graphs.  On a non-edge has_edge is False and weight, p and
        sigma raise KeyError."""
        rng = np.random.default_rng(23)
        refs = [fixture_graph(name) for name in fixture_names()]
        refs += [random_graph(rng, n_max=8, d=1 + t % 3, extra_edge_p=0.4) for t in range(40)]
        non_edges = 0
        for ref in refs:
            d = ref.dimension
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
                    assert ix.weight[e] == w == g.weight(u, v)
                    assert ix.rate[e] == w / mu[u] == g.p(u, v)
                    assert np.array_equal(ix.sigma[e], s)
                    assert np.array_equal(g.sigma(u, v), s)
                    assert ix.nbr[ix.rev[e]] == k and ix.rev[ix.rev[e]] == e
                for v in ix.ids:
                    assert g.has_edge(u, v) == ((u, v) in given)
                    if (u, v) not in given:
                        non_edges += 1
                        for query in (g.weight, g.p, g.sigma):
                            with pytest.raises(KeyError):
                                query(u, v)
            with pytest.raises(ValueError):
                ix.sigma[0][0, 0] = 0.0
        assert non_edges > 500

    def test_unknown_vertex_queries(self):
        g = fixture_graph("g1_u2")
        assert not g.has_edge("1", "nowhere") and not g.has_edge("nowhere", "1")
        with pytest.raises(KeyError):
            g.neighbors("nowhere")
        for query in (g.weight, g.p, g.sigma):
            for u, v in (("1", "nowhere"), ("nowhere", "1")):
                with pytest.raises(KeyError):
                    query(u, v)

    def test_edgeless_graph(self):
        g = ConnectionGraph(2, "complex", [("b", 1.0), ("a", 2.0)], [])
        assert g.vertex_ids == ("a", "b")
        assert g.neighbors("a") == ()
        assert g.index.sigma.shape == (0, 2, 2)
        assert list(g.index.indptr) == [0, 0, 0]


def check_unitary_loops(sigma, d: int, where: str):
    """One connection matrix checked on its own: shape, distance from unitary
    (NaN and infinite entries fail), polar re-projection of near-unitary
    matrices."""
    if sigma.shape != (d, d):
        raise ValidationError(f"{where}: sigma has shape {sigma.shape}, expected ({d}, {d})")
    with np.errstate(invalid="ignore", over="ignore"):
        dev = float(np.max(np.abs(sigma @ sigma.conj().T - np.eye(d))))
    if not dev <= UNITARY_TOL:
        raise ValidationError(
            f"{where}: sigma is not unitary, |sigma sigma^H - I| = {dev:.3e} > {UNITARY_TOL:.1e}"
        )
    if dev > REPROJECT_TOL:
        u, _, vh = np.linalg.svd(sigma)
        sigma = u @ vh
    return sigma, dev


def connections_loops(d: int, field: str, vertices, edges):
    """The stored connections of a graph, validated edge by edge in input
    order: structural checks and the connection checks of each edge before
    the next.  Returns the connections and their distances from unitary.
    An oracle for the stacked validation in ConnectionGraph."""
    mu = {str(v): float(m) for v, m in vertices}
    adj = {v: set() for v in mu}
    out, devs = [], []
    for u, v, w, sigma in edges:
        u, v = str(u), str(v)
        if u not in mu or v not in mu:
            raise ValidationError(f"edge ({u!r}, {v!r}): unknown endpoint")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u!r} is not allowed")
        if v in adj[u]:
            raise ValidationError(f"duplicate edge ({u!r}, {v!r})")
        w = float(w)
        if not (w > 0 and math.isfinite(w)):
            raise ValidationError(
                f"edge ({u!r}, {v!r}): weight must be positive and finite, got {w}")
        if sigma is None:
            s, dev = np.eye(d, dtype=complex), 0.0
        else:
            s, dev = check_unitary_loops(np.asarray(sigma, dtype=complex), d, f"edge ({u!r}, {v!r})")
            if field == "real" and float(np.max(np.abs(s.imag))) > UNITARY_TOL:
                raise ValidationError(
                    f"edge ({u!r}, {v!r}): field='real' but sigma has imaginary entries")
        adj[u].add(v)
        adj[v].add(u)
        out.append(s)
        devs.append(dev)
    return out, devs


def near_unitary(rng, d: int, field: str):
    """A unitary scaled so that |S S^H - I| lies in (REPROJECT_TOL, UNITARY_TOL]."""
    return random_unitary(rng, d, field) * (1 + rng.uniform(1e-12, 4e-10))


def random_inputs(rng, d: int, field: str):
    """Constructor input of a random graph whose connections mix exact
    unitaries, identities (None) and near-unitary matrices that get
    re-projected."""
    g = random_graph(rng, n_max=8, d=d, field=field, extra_edge_p=0.4)
    edges = []
    for u, v, w, s in g.edge_list():
        kind = rng.integers(3)
        sigma = None if kind == 0 else near_unitary(rng, d, field) if kind == 1 else np.array(s)
        edges.append((u, v, w, sigma))
    return [(v, g.measure(v)) for v in g.vertex_ids], edges


def fixture_and_random_inputs():
    cases = []
    for name in fixture_names():
        g = fixture_graph(name)
        cases.append((g.dimension, g.field, [(v, g.measure(v)) for v in g.vertex_ids],
                      g.edge_list()))
    rng = np.random.default_rng(29)
    for t in range(60):
        d, field = 1 + t % 3, ("complex", "real")[t % 2]
        cases.append((d, field, *random_inputs(rng, d, field)))
    return cases


def single_faults(rng, d: int, field: str, vertices, edges):
    """Copies of the edge list with exactly one fault each, of every kind."""
    k = int(rng.integers(len(edges)))
    u, v, w, s = edges[k]
    ok = np.eye(d) if s is None else np.asarray(s)
    nan = ok.astype(complex)
    nan[0, -1] = np.nan
    faults = {
        "non_unitary": (u, v, w, 1.01 * ok),
        "nan_sigma": (u, v, w, nan),
        "inf_sigma": (u, v, w, np.full((d, d), np.inf)),
        "wrong_shape": (u, v, w, np.eye(d + 1)),
        "duplicate": (v, u, w, s),
        "self_loop": (u, u, w, s),
        "unknown_endpoint": (u, "nowhere", w, s),
        "bad_weight": (u, v, -w, s),
    }
    if field == "real":
        faults["imaginary"] = (u, v, w, 1j * ok)
    for name, fault in faults.items():
        if name == "duplicate":
            yield name, edges + [fault]
        else:
            yield name, edges[:k] + [fault] + edges[k + 1:]


def raised(build):
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


class TestStackedValidation:
    """The one-pass validation of a graph's stacked connections against the
    edge-by-edge loop it replaced."""

    def test_connections_match_loop_oracle(self):
        reprojected = 0
        for d, field, vertices, edges in fixture_and_random_inputs():
            g = ConnectionGraph(d, field, vertices, edges)
            want, devs = connections_loops(d, field, vertices, edges)
            for (u, v, _, _), s, dev in zip(edges, want, devs):
                got = g.sigma(u, v)
                if dev > REPROJECT_TOL:
                    reprojected += 1
                    assert_close(got, s, 1e-15)
                else:
                    assert np.array_equal(got, s)
                assert np.array_equal(g.sigma(v, u), got.conj().T)
        assert reprojected > 100

    def test_documents_load_exactly(self):
        """The sigma cells of every fixture document, and of the documents of
        random graphs, arrive bit for bit, as complex(re, im) of the written
        numbers."""
        rng = np.random.default_rng(34)
        docs = [fixture_document(name) for name in fixture_names()]
        docs += [random_graph(rng, d=1 + t % 3).to_document() for t in range(12)]
        for doc in docs:
            g = load_graph(json.dumps(doc))
            d = g.dimension
            for entry in doc["edges"]:
                if "sigma" in entry:
                    want = np.array([[complex(c[0], c[1]) for c in row] for row in entry["sigma"]])
                elif "sign" in entry:
                    want = np.array([[complex(entry["sign"])]])
                else:
                    want = np.eye(d)
                want, dev = check_unitary_loops(want, d, "")
                got = g.sigma(str(entry["u"]), str(entry["v"]))
                assert np.array_equal(got, want) if dev <= REPROJECT_TOL else \
                    np.max(np.abs(got - want)) <= 1e-15

    def test_single_fault_messages_match_loop_oracle(self):
        rng = np.random.default_rng(30)
        seen = set()
        for d, field, vertices, edges in fixture_and_random_inputs():
            if not edges:
                continue
            for name, faulty in single_faults(rng, d, field, vertices, edges):
                want = raised(lambda: connections_loops(d, field, vertices, faulty))
                assert raised(lambda: ConnectionGraph(d, field, vertices, faulty)) == want, name
                seen.add(name)
        assert len(seen) == 9

    def test_first_non_unitary_edge_is_named(self):
        edges = [("a", "b", 1.0, None), ("b", "c", 1.0, [[2.0]]), ("c", "a", 1.0, [[3.0]])]
        with pytest.raises(ValidationError, match=re.escape("edge ('b', 'c'): sigma is not unitary")):
            ConnectionGraph(1, "complex", [("a", 1.0), ("b", 1.0), ("c", 1.0)], edges)

    def test_structural_fault_reported_before_bad_connection(self):
        """The one ordering change against the edge-by-edge loop: structure
        is checked over the whole edge list before any connection, so a
        later self-loop is reported ahead of an earlier non-unitary sigma."""
        vertices = [("a", 1.0), ("b", 1.0)]
        edges = [("a", "b", 1.0, [[2.0]]), ("b", "b", 1.0, None)]
        assert "not unitary" in raised(lambda: connections_loops(1, "real", vertices, edges))
        assert "self-loop" in raised(lambda: ConnectionGraph(1, "real", vertices, edges))


def ball_entries(loc):
    """The oriented edges of a ball's edge arrays, as (u, v) id pairs."""
    names = loc.vertices
    return [(loc.s1[i], names[k]) for i, k in zip(loc.edge_row.tolist(), loc.edge_col.tolist())]


class TestLocalStructure:
    def test_u2_fixture(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        assert loc.s1 == ("2", "3")
        assert loc.s2 == ("4",)
        assert loc.m == 2 and loc.n == 1
        assert loc.dx_over_mux == pytest.approx(2.0)
        for rates in (loc.p_x, loc.edge_p, loc.edge_p_back):
            assert rates.tolist() == pytest.approx([1.0] * rates.size)

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
        assert ball_entries(loc) == [("y", "x"), ("y", "z1"), ("y", "z2")]

    def test_matches_graph_loops(self):
        """Spheres, rates and connections of every ball's arrays against the
        loop extraction from the graph, at every vertex of fixtures and 80
        random graphs, including 2-sphere edges that must be dropped."""
        rng = np.random.default_rng(24)
        graphs = [fixture_graph("g1_u2"), fixture_graph("positive_strip")]
        graphs += [random_graph(rng, n_max=8, d=1 + t % 3, extra_edge_p=0.45) for t in range(80)]
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                ball = ball_from_graph_loops(g, x)
                assert (loc.s1, loc.s2) == (ball.s1, ball.s2)
                assert loc.p_x.tolist() == [ball.p[(x, y)] for y in ball.s1]
                for y, s in zip(loc.s1, loc.sigma_x):
                    assert np.array_equal(s, ball.sigma[(x, y)])
                entries = ball_entries(loc)
                # every in-ball edge leaving the 1-sphere once, sorted by (col, row)
                assert sorted(entries) == sorted((u, v) for (u, v) in ball.p if u in ball.s1)
                keys = list(zip(loc.edge_col.tolist(), loc.edge_row.tolist()))
                assert keys == sorted(keys)
                for (u, v), r, r_back, s in zip(entries, loc.edge_p.tolist(),
                                                loc.edge_p_back.tolist(), loc.edge_sigma):
                    assert (r, r_back) == (ball.p[(u, v)], ball.p[(v, u)])
                    assert np.array_equal(s, ball.sigma[(u, v)])
                assert loc.dx_over_mux == ball.dx_over_mux

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, d=2)
        a = local_structure(g, "1")
        b = local_structure(g, "1")
        assert a.s1 == b.s1 and a.s2 == b.s2
        for name in ("p_x", "sigma_x", "edge_row", "edge_col", "edge_p", "edge_p_back",
                     "edge_sigma"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


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

    def test_matches_edge_by_edge_product(self):
        rng = np.random.default_rng(31)
        for t in range(20):
            g = random_graph(rng, n_max=7, d=1 + t % 3)
            tau = random_switching(rng, g)
            g2 = switch(g, tau)
            for u, v, w, s in g.edge_list():
                assert g2.weight(u, v) == w
                assert_close(g2.sigma(u, v), tau[u].conj().T @ s @ tau[v], 1e-15)

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


    def test_matches_breadth_first_oracle(self):
        """The array check against the breadth-first gauge fixing it
        replaced, at every fixture vertex and every vertex of random
        balanced, switched-balanced and unbalanced graphs with d = 1, 2, 3."""
        rng = np.random.default_rng(42)
        graphs = [fixture_graph(name) for name in fixture_names()]
        for t in range(90):
            d = 1 + t % 3
            kind = t // 3 % 3
            if kind == 0:
                graphs.append(random_graph(rng, n_max=7, d=d, identity_connections=True))
            elif kind == 1:
                graphs.append(random_balanced_graph(rng, n_max=7, d=d))
            else:
                graphs.append(random_graph(rng, n_max=7, d=d, extra_edge_p=0.45))
        answers = {True: 0, False: 0}
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                want = balanced_bfs(ball_from_graph_loops(g, x))
                assert is_locally_balanced(local_structure(g, x)) == want, (g.dimension, x)
                answers[want] += 1
        assert min(answers.values()) >= 100, answers


def balanced_bfs(ball, tol: float = BALANCE_TOL) -> bool:
    """Local balance by breadth-first gauge fixing over the loop ball: the
    tree edge u -> v sets gauge[v] = sigma_vu gauge[u], then every in-ball
    connection is tested against I_d.  An oracle for is_locally_balanced."""
    eye = np.eye(ball.d, dtype=complex)
    gauge = {ball.center: eye}
    adj: dict[str, list[str]] = {}
    for (u, v) in ball.p:
        adj.setdefault(u, []).append(v)
    queue = [ball.center]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj.get(u, ())):
            if v not in gauge:
                gauge[v] = ball.sigma[(v, u)] @ gauge[u]
                queue.append(v)
    for (u, v) in ball.p:
        if u < v:
            s = gauge[u].conj().T @ ball.sigma[(u, v)] @ gauge[v]
            if float(np.max(np.abs(s - eye))) > tol:
                return False
    return True


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

    def test_matches_pairwise_loop(self):
        """The broadcast commutators agree with checking every pair of
        connections on its own, on commuting pairs and on pairs where one
        edge of g2 is switched to a non-diagonal connection."""
        def commute_loops(g, g2):
            return all(float(np.max(np.abs(s @ t - t @ s))) <= UNITARY_TOL
                       for _, _, _, s in g.edge_list() for _, _, _, t in g2.edge_list())

        rng = np.random.default_rng(32)
        answers = set()
        for t in range(30):
            g, g2 = random_commuting_pair(rng)
            if t % 2 and g2.dimension == 2:
                edges = g2.edge_list()
                k = int(rng.integers(len(edges)))
                edges[k] = edges[k][:3] + (random_unitary(rng, 2),)
                g2 = ConnectionGraph(2, "complex", [(v, g2.measure(v)) for v in g2.vertex_ids],
                                     edges)
            want = commute_loops(g, g2)
            assert signature_groups_commute(g, g2) == want == commute_loops(g2, g)
            answers.add(want)
        assert answers == {True, False}

    def test_edgeless_graph_commutes(self):
        rng = np.random.default_rng(33)
        edgeless = ConnectionGraph(2, "complex", [("a", 1.0)], [])
        assert signature_groups_commute(random_graph(rng, d=2), edgeless)
        assert signature_groups_commute(edgeless, random_diagonal_graph(rng))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ValidationError, match="dimension"):
            signature_groups_commute(random_graph(rng, d=1), random_graph(rng, d=2))
