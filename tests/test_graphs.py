import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import concurv.graphs as graphs
from concurv import (
    INF,
    ConnectionGraph,
    ProductSpec,
    ValidationError,
    add_spherical_edge,
    cartesian_product,
    curvature,
    is_locally_balanced,
    load_graph,
    local_structure,
    merge_s2,
    product_decomposition,
    s1_in_regular,
    signature_groups_commute,
    switch,
)
from concurv.cli import main
from concurv.fixtures import fixture_document, fixture_graph, fixture_names
from concurv.graphs import REPROJECT_TOL, SLACK, EdgeIndex

from helpers import (
    MALFORMED_DOCUMENTS,
    NON_FINITE_DOCUMENTS,
    OVERSIZED_DOCUMENTS,
    assert_close,
    ball_from_graph_loops,
    phase_triangle,
    random_balanced_graph,
    random_commuting_pair,
    random_diagonal_graph,
    random_graph,
    random_merge_instance,
    random_s1_in_regular_graph,
    random_switching,
    random_unitary,
)


def near_identity(rng, d: int) -> np.ndarray:
    """The unitary V diag(exp(i t w)) V^H with V random, w in [-1, 1] and the
    phase scale t drawn log-uniformly from 1e-12 to 1e-5."""
    v = random_unitary(rng, d)
    t = 10.0 ** rng.uniform(-12, -5)
    return (v * np.exp(1j * t * rng.uniform(-1, 1, size=d))) @ v.conj().T


class TestLoadGraph:
    def test_fixture_documents_are_copies(self):
        """Editing a returned document changes neither a second
        fixture_document call nor fixture_graph (it returned the table's
        own dict, so one popped edge stayed popped)."""
        doc = fixture_document("g1_u2")
        doc["edges"].pop()
        doc["vertices"][0]["measure"] = 7.0
        assert len(fixture_document("g1_u2")["edges"]) == 5
        g = fixture_graph("g1_u2")
        assert len(g.edge_list()) == 5 and g.measure("1") == 1.0

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

    def test_invalid_utf8_bytes_rejected(self):
        text = json.dumps(fixture_document("single_edge"))
        assert load_graph(text.encode("utf-8")).vertex_ids == load_graph(text).vertex_ids
        with pytest.raises(ValidationError, match="UTF-8"):
            load_graph(text.replace('"x"', '"x\u00e9"').encode("latin-1"))

    def test_constructor_takes_numbers_only(self):
        """The constructor applies load_graph's rule for numbers: strings,
        booleans and integers beyond float range are rejected, numpy scalars
        accepted."""
        for vertices, edges in (([("a", "2"), ("b", True)], [("a", "b", "3", None)]),
                                ([("a", "2"), ("b", 1.0)], [("a", "b", 1.0, None)]),
                                ([("a", True), ("b", 1.0)], [("a", "b", 1.0, None)]),
                                ([("a", 1.0), ("b", 1.0)], [("a", "b", "3", None)]),
                                ([("a", 1.0), ("b", 1.0)], [("a", "b", False, None)]),
                            ([("a", 10**400), ("b", 1.0)], [("a", "b", 1.0, None)])):
            with pytest.raises(ValidationError, match="must be a number"):
                ConnectionGraph(1, "real", vertices, edges)
        g = ConnectionGraph(1, "real", [("a", np.float32(2.0)), ("b", np.int64(1))],
                            [("a", "b", np.float64(3.0), None)])
        assert (g.measure("a"), g.measure("b"), g.weight("a", "b")) == (2.0, 1.0, 3.0)

    def test_oversized_connections_rejected_before_stacking(self, monkeypatch):
        """A dimension above sqrt(MAX_CONNECTION_ENTRIES), or more stacked
        connection entries E * d^2 than MAX_CONNECTION_ENTRIES, is refused
        before any connection is stacked or an identity allocated: the
        constructor and load_graph both stack by _connections, and no call
        allocates as much as a megabyte."""
        def no_stack(*args):
            raise AssertionError("connections stacked")

        monkeypatch.setattr(graphs, "_connections", no_stack)
        limit = math.isqrt(graphs.MAX_CONNECTION_ENTRIES)
        sigmas = (None, np.eye(limit))
        tracemalloc.start()
        try:
            for doc, message in OVERSIZED_DOCUMENTS:
                with pytest.raises(ValidationError, match=message):
                    load_graph(doc)
            for sigma in sigmas:
                with pytest.raises(ValidationError, match="exceed the limit"):
                    ConnectionGraph(limit, "complex", [("a", 1.0), ("b", 1.0), ("c", 1.0)],
                                    [("a", "b", 1.0, sigma), ("b", "c", 1.0, None)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_each_value_converted_once(self, monkeypatch):
        """Loading a torus document runs the number rule once per measure and
        weight, V + E times, and converts the connections by one call of
        _connections, whose stacked conversion succeeds at once: no matrix
        is converted on its own."""
        rng = np.random.default_rng(36)
        side = 6
        ids = [f"{i},{j}" for i in range(side) for j in range(side)]
        edges = [(f"{i},{j}", nb, float(rng.uniform(0.5, 2.0)), random_unitary(rng, 2))
                 for i in range(side) for j in range(side)
                 for nb in (f"{(i + 1) % side},{j}", f"{i},{(j + 1) % side}")]
        g = ConnectionGraph(2, "complex", [(v, float(rng.uniform(0.5, 2.0))) for v in ids], edges)
        text = json.dumps(g.to_document())
        calls = []
        number = graphs._number

        def counted(value):
            calls.append(value)
            return number(value)

        stacks = []
        connections = graphs._connections
        array = np.array

        def stacked(mats, *args, **kwargs):
            stacks.append(len(mats))
            return connections(mats, *args, **kwargs)

        def no_blame(obj, *args, **kwargs):
            # the blame pass converts one edge's cells, rows of [re, im]
            if np.ndim(obj) == 3:
                raise AssertionError("a connection converted on its own")
            return array(obj, *args, **kwargs)

        monkeypatch.setattr(graphs, "_number", counted)
        monkeypatch.setattr(graphs, "_connections", stacked)
        monkeypatch.setattr(graphs.np, "array", no_blame)
        loaded = load_graph(text)
        monkeypatch.undo()
        assert len(calls) == len(ids) + len(edges) == 108
        assert stacks == [len(edges)]
        for u, v, w, s in g.edge_list():
            assert loaded.weight(u, v) == w and np.array_equal(loaded.sigma(u, v), s)

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
        """A graph written as JSON and reloaded keeps every weight and
        connection bit for bit, and so every K(inf).  The inputs include
        connections within 1e-12 to 1e-5 of the identity, which a tolerant
        identity test would leave out of the document: the d = 1 triangle
        with one phase of 3e-6 has K(inf) of about 9e-13 at a (a 50-digit
        value; the float64 paths read it within 1e-3, see
        ``test_curvature.py::TestNearBalancedReference``), and 2.5 once that
        phase is dropped."""
        rng = np.random.default_rng(25)
        triangle = phase_triangle(3e-6)
        graphs = [fixture_graph("g1_u2"), triangle]
        for t in range(30):
            d = 1 + t % 3
            g = random_graph(rng, d=d, identity_connections=True)
            edges = [(u, v, w, None if rng.uniform() < 0.2 else near_identity(rng, d))
                     for u, v, w, _ in g.edge_list()]
            graphs.append(ConnectionGraph(d, "complex",
                                          [(v, g.measure(v)) for v in g.vertex_ids], edges))
        for g in graphs:
            g2 = load_graph(json.dumps(g.to_document()))
            for u, v, w, s in g.edge_list():
                assert g2.weight(u, v) == w
                assert np.array_equal(g2.sigma(u, v), s), (u, v)
            for x in g.vertex_ids:
                assert curvature(local_structure(g2, x), INF) == \
                    curvature(local_structure(g, x), INF)
        k, _ = curvature(local_structure(load_graph(json.dumps(triangle.to_document())), "a"), INF)
        assert curvature(local_structure(phase_triangle(0.0), "a"), INF)[0] == pytest.approx(2.5)
        assert abs(k) < 1e-2   # the phase survived: K stays far below the balanced 2.5


def as_document(vertices, edges) -> dict:
    """The d = 1 graph document of constructor input."""
    def entry(u, v, w, sigma):
        out = {"u": u, "v": v, "weight": w}
        if sigma is not None:
            out["sigma"] = [[[z.real, z.imag] for z in map(complex, row)] for row in sigma]
        return out
    return {"dimension": 1, "vertices": [{"id": v, "measure": m} for v, m in vertices],
            "edges": [entry(*e) for e in edges]}


# Inputs with two faults each, and the one fault that both entry points report
# (constructor message, load_graph message).  Conversion comes first, then the
# shared checks: field, duplicate ids, edge structure, size, connection shape,
# unitarity, and last the values (measures, weights, rates).
MULTI_FAULTS = {
    "unknown_endpoint_and_string_weight": (
        "complex", [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "zz", 1.0, None), ("b", "c", "x", None)],
        "edge ('b', 'c'): weight must be a number, got 'x'",
        "edge #1: 'weight' must be a number, got 'x'"),
    "negative_measure_and_duplicate_edge": (
        "complex", [("a", -1.0), ("b", 1.0)], [("a", "b", 1.0, None), ("b", "a", 1.0, None)],
        "duplicate edge ('b', 'a')", None),
    "negative_weight_and_non_unitary_sigma": (
        "complex", [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "b", -1.0, None), ("b", "c", 1.0, [[2.0]])],
        "edge ('b', 'c'): sigma is not unitary, |sigma sigma^H - I| = 3.000e+00 > 1.0e-09", None),
    "wrong_sigma_shape_and_self_loop": (
        "complex", [("a", 1.0), ("b", 1.0)], [("a", "b", 1.0, [[1.0, 0.0]]), ("b", "b", 1.0, None)],
        "self-loop at vertex 'b' is not allowed", None),
    "negative_weight_and_infinite_measure": (
        "complex", [("a", 1.0), ("b", math.inf)], [("a", "b", -2.0, None)],
        "vertex 'b': measure must be positive and finite, got inf", None),
    "bad_field_and_duplicate_id": (
        "quaternion", [("a", 1.0), ("a", 1.0)], [],
        "field must be 'real' or 'complex', got 'quaternion'", None),
}


class TestOneFaultOrder:
    """The constructor and load_graph check converted input with one
    function, so an input with several faults gets the same fault from
    both; only a conversion fault is worded by its entry point."""

    @pytest.mark.parametrize("name", sorted(MULTI_FAULTS))
    def test_both_entry_points_report_the_same_fault(self, name):
        field, vertices, edges, message, load_message = MULTI_FAULTS[name]
        doc = dict(as_document(vertices, edges), field=field)
        assert raised(lambda: ConnectionGraph(1, field, vertices, edges)) == message
        assert raised(lambda: load_graph(json.dumps(doc))) == (load_message or message)


def bool_matrix(rows) -> np.matrix:
    """An ``np.matrix`` of booleans, whose rows iterate as matrices again
    (building one warns that the class is pending deprecation)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(rows, dtype=bool)


MALFORMED = "malformed sigma, expected a 1 x 1 matrix of numbers ([re, im] pairs in a document)"
# Bad connections on a real d = 1 graph, each as a matrix and as a document's
# [re, im] cells, with the message every entry point gives for it after the
# name of the connection.
BAD_CONNECTIONS = {
    "string": ([["-1"]], [[["-1", "0"]]], MALFORMED),
    "boolean": ([[True]], [[[True, False]]], MALFORMED),
    "boolean_beside_a_number": ([[True]], [[[True, 0]]], MALFORMED),
    "number_beside_a_boolean": ([[np.True_]], [[[1, False]]], MALFORMED),
    "boolean_matrix": (bool_matrix([[True]]), [[[True, 0]]], MALFORMED),
    "wrong_shape": ([[1.0, 0.0]], [[[1, 0], [0, 0]]], "sigma has shape (1, 2), expected (1, 1)"),
    "not_unitary": ([[2.0]], [[[2, 0]]],
                    "sigma is not unitary, |sigma sigma^H - I| = 3.000e+00 > 1.0e-09"),
    "imaginary": ([[1j]], [[[0, 1]]], "field='real' but sigma has imaginary entries"),
}
PATH = [("a", 1.0), ("b", 1.0), ("c", 1.0)], [("b", "a", 1.0, None), ("b", "c", 1.0, None)]


def connection_outcomes(matrix, cells, tmp_path, capsys) -> dict:
    """What each entry point makes of one connection on the real path
    a - b - c: the triangle with it on edge (a, c), built by the
    constructor, load_graph, add_spherical_edge and ``concurv add-edge``,
    and the path switched by it at every vertex.  Each outcome is the error
    message after the connection's name, or the field of the graph built."""
    vertices, edges = PATH
    path = ConnectionGraph(1, "real", vertices, edges)
    base = path.to_document()
    doc = dict(base, edges=[*base["edges"], {"u": "a", "v": "c", "sigma": cells}])
    src, out = tmp_path / "path.json", tmp_path / "out.json"
    src.write_text(json.dumps(base))

    def cli():
        code = main(["add-edge", str(src), "--vertex", "b", "--yi", "a", "--yj", "c",
                     "--sigma", json.dumps(cells), "--out", str(out)])
        err = capsys.readouterr().err
        if code:
            raise ValidationError(err.removeprefix("validation error: ").rstrip("\n"))
        return load_graph(out.read_text())

    builds = {
        "constructor": lambda: ConnectionGraph(1, "real", vertices,
                                               [*edges, ("a", "c", 1.0, matrix)]),
        "load_graph": lambda: load_graph(json.dumps(doc)),
        "switch": lambda: switch(path, {v: matrix for v, _ in vertices}),
        "add_spherical_edge": lambda: add_spherical_edge(path, "b", "a", "c",
                                                         sigma_new=matrix)[0],
        "concurv add-edge": cli,
    }
    outcomes = {}
    for name, build in builds.items():
        try:
            outcomes[name] = f"field={build().field}"
        except ValidationError as exc:
            outcomes[name] = str(exc).split(": ", 1)[1]
    return outcomes


class TestOneConnectionRule:
    """Every connection a caller gives is converted, checked and judged
    real by one function, so each entry point treats it alike."""

    @pytest.mark.parametrize("name", sorted(BAD_CONNECTIONS))
    def test_every_entry_point_gives_one_message(self, name, tmp_path, capsys):
        matrix, cells, message = BAD_CONNECTIONS[name]
        want = dict.fromkeys(("constructor", "load_graph", "switch", "add_spherical_edge",
                              "concurv add-edge"), message)
        if name == "imaginary":
            # A graph built from a parent keeps its real field exactly when its
            # new connections are real; i at every vertex cancels on each edge.
            want.update({"switch": "field=real", "add_spherical_edge": "field=complex",
                         "concurv add-edge": "field=complex"})
        assert connection_outcomes(matrix, cells, tmp_path, capsys) == want

    def test_realness_is_judged_at_unitary_tol(self, tmp_path, capsys):
        outcomes = connection_outcomes([[1 + 1e-11j]], [[[1, 1e-11]]], tmp_path, capsys)
        assert set(outcomes.values()) == {"field=real"}
        path = ConnectionGraph(1, "real", *PATH)
        assert switch(path, {"a": [[1j]], "b": [[1]], "c": [[1]]}).field == "complex"
        assert switch(path, {"a": [[1 + 1e-11j]], "b": [[1]], "c": [[1]]}).field == "real"

    def test_a_boolean_among_numbers_is_refused(self):
        """The stacked dtype would take True beside numbers as 1, in one
        matrix or beside another connection, so the rule walks the input
        for booleans, a parsed document's too, and judges an array met on
        the way by its dtype."""
        with pytest.raises(ValidationError, match="edge \\('a', 'b'\\): malformed sigma"):
            ConnectionGraph(2, "real", [("a", 1.0), ("b", 1.0)],
                            [("a", "b", 1.0, [[True, 0.0], [0, 1]])])
        vertices, edges = PATH
        for bad in ([[True]], bool_matrix([[True]])):
            with pytest.raises(ValidationError, match="edge \\('b', 'c'\\): malformed sigma"):
                ConnectionGraph(1, "real", vertices, [(*edges[0][:3], [[1.0]]),
                                                      (*edges[1][:3], bad)])
        with pytest.raises(ValidationError, match="malformed sigma"):
            switch(ConnectionGraph(1, "real", *PATH),
                   {"a": bool_matrix([[True]]), "b": [[1.0]], "c": np.eye(1)})
        doc = {"dimension": 1, "vertices": [{"id": "a"}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b", "sigma": [[[True, 0]]]}]}
        for document in (doc, json.dumps(doc), json.dumps(doc).encode()):
            with pytest.raises(ValidationError, match="edge \\('a', 'b'\\): malformed sigma"):
                load_graph(document)
        doc["vertices"][0]["id"] = doc["edges"][0]["u"] = "true"
        doc["edges"][0]["sigma"] = [[[1, 0]]]
        assert load_graph(json.dumps(doc)).sigma("true", "b")[0, 0] == 1.0


class TestRateLimits:
    @pytest.mark.parametrize("weight, ok", [
        (graphs.RATE_MAX, True), (graphs.RATE_MIN, True),
        (graphs.RATE_MAX * 1.5, False), (graphs.RATE_MIN / 1.5, False)])
    def test_bounds_are_inclusive(self, weight, ok):
        doc = {"dimension": 1, "vertices": [{"id": "a"}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b", "weight": weight}]}
        if ok:
            assert load_graph(doc).p("a", "b") == weight
        else:
            with pytest.raises(ValidationError, match="edge \\('a', 'b'\\): rate w/mu"):
                load_graph(doc)

    def test_either_orientation_is_checked(self):
        # w/mu_a = 1e-10 is fine, w/mu_b = 1e70 is not
        with pytest.raises(ValidationError, match="rate w/mu = 1.000e\\+70"):
            ConnectionGraph(1, "real", [("a", 1e10), ("b", 1e-70)], [("a", "b", 1.0, None)])


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

    def test_no_field_is_writable(self):
        """Every array of the edge index refuses a write, on a graph from
        each way one is built (writing into ``names`` once renamed a
        1-sphere vertex in every ball, with no error)."""
        rng = np.random.default_rng(24)
        g = fixture_graph("g1_u2")
        s1_graph, x, yi, yj = random_s1_in_regular_graph(rng, d=2)
        merge_graph, xm, zk, zl = random_merge_instance(rng, d=2)
        built = {
            "constructor": random_graph(rng, d=2),
            "load_graph": load_graph(fixture_document("g1_u2")),
            "switch": switch(g, random_switching(rng, g)),
            "same-dimension product": cartesian_product(g, random_graph(rng, d=2)),
            "tensor product": cartesian_product(g, random_graph(rng, d=1),
                                                ProductSpec(lift="tensor")),
            "add_spherical_edge": add_spherical_edge(s1_graph, x, yi, yj)[0],
            "merge_s2": merge_s2(merge_graph, xm, zk, zl)[0],
            "_ball_graph": graphs._ball_graph(g, "1"),
        }
        for how, h in built.items():
            arrays = [name for name in EdgeIndex._fields
                      if isinstance(getattr(h.index, name), np.ndarray)]
            assert len(arrays) == 8, how
            for name in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(h.index, name)[...] = getattr(h.index, name)[...]
        with pytest.raises(ValueError, match="read-only"):
            g.index.names[1] = "zz"
        assert local_structure(g, "1").s1 == ("2", "3")

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
    if not dev <= SLACK:
        raise ValidationError(
            f"{where}: sigma is not unitary, |sigma sigma^H - I| = {dev:.3e} > {SLACK:.1e}"
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
            if field == "real" and float(np.max(np.abs(s.imag))) > SLACK:
                raise ValidationError(
                    f"edge ({u!r}, {v!r}): field='real' but sigma has imaginary entries")
        adj[u].add(v)
        adj[v].add(u)
        out.append(s)
        devs.append(dev)
    return out, devs


def near_unitary(rng, d: int, field: str):
    """A unitary scaled so that |S S^H - I| lies in (REPROJECT_TOL, SLACK]."""
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


BALL_ARRAYS = ("p_x", "sigma_x", "edge_row", "edge_col", "edge_p", "edge_sigma")


def ungathered(g):
    """A copy of g without its stored gather, whose one-ball calls gather a
    single center."""
    return ConnectionGraph._from_arrays(g.dimension, g.field, *g._arrays())


def assert_same_ball(a, b):
    assert (a.center, a.s1, a.s2, a.d, a.m, a.n) == (b.center, b.s1, b.s2, b.d, b.m, b.n)
    assert a.dx_over_mux == b.dx_over_mux
    for name in BALL_ARRAYS:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


class TestLocalStructure:
    def test_u2_fixture(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        assert loc.s1 == ("2", "3")
        assert loc.s2 == ("4",)
        assert loc.m == 2 and loc.n == 1
        assert loc.dx_over_mux == pytest.approx(2.0)
        for rates in (loc.p_x, loc.edge_p):
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
        """Spheres, rates and connections of every ball's arrays, sliced
        from the stored gather and gathered for its center alone, against
        the loop extraction from the graph, at every vertex of fixtures and
        80 random graphs, including 2-sphere edges that must be dropped."""
        rng = np.random.default_rng(24)
        cases = [fixture_graph("g1_u2"), fixture_graph("positive_strip")]
        cases += [random_graph(rng, n_max=8, d=1 + t % 3, extra_edge_p=0.45) for t in range(80)]
        for g in cases:
            single = ungathered(g)
            for x in (x for x in g.vertex_ids if g.neighbors(x)):
                ball = ball_from_graph_loops(g, x)
                for loc in (local_structure(g, x), graphs._one_ball(single, x)):
                    assert (loc.s1, loc.s2) == (ball.s1, ball.s2)
                    assert loc.p_x.tolist() == [ball.p[(x, y)] for y in ball.s1]
                    for y, s in zip(loc.s1, loc.sigma_x):
                        assert np.array_equal(s, ball.sigma[(x, y)])
                    entries = ball_entries(loc)
                    # every in-ball edge leaving the 1-sphere once, sorted by (col, row)
                    assert sorted(entries) == sorted((u, v) for (u, v) in ball.p if u in ball.s1)
                    keys = list(zip(loc.edge_col.tolist(), loc.edge_row.tolist()))
                    assert keys == sorted(keys)
                    for (u, v), r, s in zip(entries, loc.edge_p.tolist(), loc.edge_sigma):
                        assert r == ball.p[(u, v)]
                        assert np.array_equal(s, ball.sigma[(u, v)])
                    assert loc.dx_over_mux == ball.dx_over_mux
            assert single._balls is None

    def test_stored_and_single_center_agree(self, monkeypatch):
        """Every ball sliced from the graph's stored gather equals the one
        gathered for its center alone, field by field, with bit-identical K.
        The draws include an isolated vertex, a graph with no edges, complete
        graphs (an empty 2-sphere) and edges inside the 2-sphere; the stored
        gather of a graph too large to hold one is never built."""
        rng = np.random.default_rng(26)
        draws = [random_graph(rng, n_max=8, d=1 + t % 3, extra_edge_p=p)
                 for t, p in enumerate([0.1, 0.45, 0.8] * 12)]
        ids, mu, u, v, w, s = draws[0]._arrays()
        with_isolated = ConnectionGraph._from_arrays(draws[0].dimension, "complex", (*ids, "iso"),
                                                     np.append(mu, 1.0), u, v, w, s)
        no_edges = ConnectionGraph(2, "complex", [("a", 1.0), ("b", 2.0)], [])
        complete = [ConnectionGraph(d, "complex", [(str(k), 1.0 + k) for k in range(5)],
                                    [(str(a), str(b), 0.5 + a, random_unitary(rng, d))
                                     for a in range(5) for b in range(a + 1, 5)])
                    for d in (1, 2)]
        cases = draws + [with_isolated, no_edges] + complete
        assert all(local_structure(g, "0").n == 0 for g in complete)
        s2_edges = 0
        for g in cases:
            single = ungathered(g)
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    with pytest.raises(ValidationError, match="isolated"):
                        local_structure(g, x)
                    with pytest.raises(ValidationError, match="isolated"):
                        graphs._one_ball(single, x)
                    continue
                stored, one = local_structure(g, x), graphs._one_ball(single, x)
                assert_same_ball(stored, one)
                for n in (INF, 4.0, 1.0):
                    assert curvature(stored, n) == curvature(one, n)
                names = set(stored.s2)
                s2_edges += sum(1 for z in stored.s2 for y in g.neighbors(z) if y in names)
            assert isinstance(g._balls, graphs._Gathered)
            assert single._balls is None
        assert s2_edges > 0
        assert no_edges._balls.e.size == 0

        # Past the size limit every call gathers one center, and nothing is stored.
        g = draws[1]
        deg = np.diff(g.index.indptr)
        monkeypatch.setattr(graphs, "MAX_CONNECTION_ENTRIES", int(deg @ deg) - 1)
        over_limit = ungathered(g)
        for x in g.vertex_ids:
            assert_same_ball(local_structure(over_limit, x), local_structure(g, x))
        assert over_limit._balls is False

    def test_derived_graph_gathers_its_own(self):
        """A switched or edited graph builds its own gather on its first
        local_structure call and leaves its parent's as it was."""
        rng = np.random.default_rng(27)
        g, x, yi, yj = random_s1_in_regular_graph(rng, d=2)
        local_structure(g, x)
        parent = g._balls
        kept = [a.copy() for a in parent]
        edited, _ = add_spherical_edge(g, x, yi, yj)
        switched = switch(g, random_switching(rng, g))
        for h in (edited, switched):
            assert h._balls is None   # a derived graph starts without a gather
            for y in h.vertex_ids:
                assert_same_ball(local_structure(h, y), graphs._one_ball(ungathered(h), y))
            assert h._balls is not parent
        assert g._balls is parent
        assert all(np.array_equal(a, b) for a, b in zip(parent, kept))
        assert not local_structure(g, x).edge_row.flags.writeable

    def test_one_off_callers_gather_one_center(self, monkeypatch, tmp_path):
        """Edits, the product check and the single-vertex CLI commands read
        one ball of a graph they derive or discard, so no gather they run
        holds more than one center."""
        sizes = []
        gather = graphs._gather

        def counted(index, centers):
            sizes.append(len(centers))
            return gather(index, centers)

        monkeypatch.setattr(graphs, "_gather", counted)
        rng = np.random.default_rng(28)
        g, x, yi, yj = random_s1_in_regular_graph(rng, d=2)
        s1_in_regular(g, x)
        add_spherical_edge(g, x, yi, yj)
        g, x, zk, zl = random_merge_instance(rng, d=2)
        merge_s2(g, x, zk, zl)
        g1, g2 = random_graph(rng, d=1), random_graph(rng, d=2)
        product_decomposition(g1, g2, ProductSpec(lift="tensor"), "1", "1", INF, 2.0)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_document()))
        for argv in (["curvature", "--oracle"], ["profile", "--grid", "1,inf"], ["balance"]):
            assert main([argv[0], str(path), "--vertex", x, *argv[1:]]) == 0
        assert sizes and set(sizes) == {1}

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, d=2)
        a = local_structure(g, "1")
        b = local_structure(g, "1")
        assert a.s1 == b.s1 and a.s2 == b.s2
        for name in BALL_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_every_ball_array_refuses_a_write(self):
        """A ball may be shared, so each of its arrays is read-only, from the
        stored gather and from a one-ball gather alike (writing 5 into
        ``edge_p`` of g1_u2 vertex 1 moved its K(inf) from 1.5 to 3.5)."""
        g = fixture_graph("g1_u2")
        for loc in (local_structure(g, "1"), graphs._one_ball(ungathered(g), "1")):
            for name in BALL_ARRAYS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(loc, name)[...] = 5
            assert curvature(loc, INF)[0] == pytest.approx(1.5, abs=1e-12)


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


    @pytest.mark.parametrize("share, balanced", [(0.5, True), (2.0, False)])
    def test_slack_boundary(self, share, balanced):
        """A triangle of identity connections but for a phase on its
        spherical edge, with |e^{i theta} - 1| = share * SLACK: balanced at
        half the slack, not at twice it."""
        theta = 2.0 * math.asin(share * SLACK / 2.0)
        phase = [[complex(math.cos(theta), math.sin(theta))]]
        g = ConnectionGraph(1, "complex", [("x", 1.0), ("a", 1.0), ("b", 1.0)],
                            [("x", "a", 1.0, None), ("x", "b", 1.0, None), ("a", "b", 1.0, phase)])
        assert is_locally_balanced(local_structure(g, "x")) is balanced

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


def balanced_bfs(ball, tol: float = SLACK) -> bool:
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
            return all(float(np.max(np.abs(s @ t - t @ s))) <= SLACK
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

    @pytest.mark.parametrize("share, commute", [(0.5, True), (2.0, False)])
    def test_slack_boundary(self, share, commute):
        """diag(1, -1) and the rotation by phi have max|S T - T S| = 2 sin(phi)
        = share * SLACK: they commute at half the slack, not at twice it."""
        phi = math.asin(share * SLACK / 2.0)
        c, s = math.cos(phi), math.sin(phi)

        def one_edge(sigma):
            return ConnectionGraph(2, "real", [("a", 1.0), ("b", 1.0)], [("a", "b", 1.0, sigma)])

        g, g2 = one_edge([[1.0, 0.0], [0.0, -1.0]]), one_edge([[c, -s], [s, c]])
        assert signature_groups_commute(g, g2) is signature_groups_commute(g2, g) is commute

    def test_edgeless_graph_commutes(self):
        rng = np.random.default_rng(33)
        edgeless = ConnectionGraph(2, "complex", [("a", 1.0)], [])
        assert signature_groups_commute(random_graph(rng, d=2), edgeless)
        assert signature_groups_commute(edgeless, random_diagonal_graph(rng))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ValidationError, match="dimension"):
            signature_groups_commute(random_graph(rng, d=1), random_graph(rng, d=2))
