"""Graphs derived from a validated parent (switching, spherical-edge additions,
2-sphere merges, tensor lifts and Cartesian products) are built from the
parent's arrays.  Each must equal the graph that the tuple rebuild through the
public constructor gives (tests/helpers.py), bit for bit, raise the same
errors, and re-check only the values it computes."""

import sys

import numpy as np
import pytest

import concurv.graphs as graphs
from concurv import (
    ConnectionGraph,
    ProductSpec,
    ValidationError,
    add_spherical_edge,
    cartesian_product,
    local_structure,
    merge_s2,
    switch,
)
from concurv.fixtures import fixture_graph, fixture_names
from concurv.product import _tensor_lift

from helpers import (
    add_edge_rebuild,
    assert_same_graph,
    merge_rebuild,
    product_rebuild,
    random_graph,
    random_merge_instance,
    random_s1_in_regular_graph,
    random_unitary,
    relabel,
    switch_rebuild,
    tensor_lift_rebuild,
)

FIXTURES = [fixture_graph(name) for name in fixture_names()]


def random_field(rng) -> str:
    return "real" if rng.uniform() < 0.5 else "complex"


def spherical_pairs(g: ConnectionGraph):
    """Every (x, yi, yj) with yi, yj two non-adjacent neighbors of x."""
    for x in g.vertex_ids:
        s1 = g.neighbors(x)
        for i, yi in enumerate(s1):
            for yj in s1[i + 1:]:
                if not g.has_edge(yi, yj):
                    yield x, yi, yj


def merge_pairs(g: ConnectionGraph):
    """Every (x, zk, zl) with zk, zl two 2-sphere vertices of x that share no
    neighbor."""
    for x in g.vertex_ids:
        if not g.neighbors(x):
            continue
        s2 = local_structure(g, x).s2
        for i, zk in enumerate(s2):
            for zl in s2[i + 1:]:
                if not set(g.neighbors(zk)) & set(g.neighbors(zl)):
                    yield x, zk, zl


class TestAddSphericalEdge:
    def test_fixtures(self):
        cases = 0
        for g in FIXTURES:
            for x, yi, yj in spherical_pairs(g):
                g_new, _ = add_spherical_edge(g, x, yi, yj, w_new=1.5)
                assert_same_graph(g_new, add_edge_rebuild(g, x, yi, yj, 1.5))
                cases += 1
        assert cases >= 10

    def test_random_default_connection(self):
        rng = np.random.default_rng(301)
        for trial in range(200):
            d = 1 + trial % 3
            g, x, yi, yj = random_s1_in_regular_graph(rng, d=d, field=random_field(rng))
            g, new = relabel(g, rng)
            w = float(rng.uniform(0.3, 3.0))
            g_new, _ = add_spherical_edge(g, new[x], new[yi], new[yj], w_new=w)
            assert_same_graph(g_new, add_edge_rebuild(g, new[x], new[yi], new[yj], w))

    def test_random_complex_connection_on_real_graph(self):
        rng = np.random.default_rng(302)
        for trial in range(200):
            d = 1 + trial % 3
            g, x, yi, yj = random_s1_in_regular_graph(rng, d=d, field="real")
            g, new = relabel(g, rng)
            sigma = random_unitary(rng, d, "complex")
            g_new, _ = add_spherical_edge(g, new[x], new[yi], new[yj], sigma_new=sigma)
            assert g_new.field == "complex"
            assert_same_graph(g_new, add_edge_rebuild(g, new[x], new[yi], new[yj], 1.0, sigma))

    def test_new_connection_errors_match_constructor(self):
        g = fixture_graph("g5_signed")   # 1 has the non-adjacent neighbors 2 and 3
        for sigma in ([[2.0]], [[1.0, 0.0]], np.eye(2)):
            with pytest.raises(ValidationError) as derived:
                add_spherical_edge(g, "1", "2", "3", sigma_new=sigma)
            with pytest.raises(ValidationError) as rebuilt:
                add_edge_rebuild(g, "1", "2", "3", 1.0, sigma)
            assert str(derived.value) == str(rebuilt.value)
        # the rebuild failed on this one with numpy's own error
        with pytest.raises(ValidationError, match="edge \\('2', '3'\\): malformed sigma"):
            add_spherical_edge(g, "1", "2", "3", sigma_new=[["a"]])


class TestMergeS2:
    def test_fixtures(self):
        cases = 0
        for g in FIXTURES:
            for x, zk, zl in merge_pairs(g):
                g_new, _ = merge_s2(g, x, zk, zl)
                assert_same_graph(g_new, merge_rebuild(g, zk, zl))
                cases += 1
        assert cases >= 3

    def test_random(self):
        rng = np.random.default_rng(303)
        dropped = 0
        for trial in range(200):
            g, x, za, zb = random_merge_instance(rng, d=1 + trial % 3, field=random_field(rng))
            if rng.uniform() < 0.3:    # an edge between the pair, which the merge drops
                edges = g.edge_list() + [(za, zb, 1.0, random_unitary(rng, g.dimension, g.field))]
                g = ConnectionGraph(g.dimension, g.field,
                                    [(v, g.measure(v)) for v in g.vertex_ids], edges)
                dropped += 1
            g, new = relabel(g, rng)
            g_new, _ = merge_s2(g, new[x], new[za], new[zb])
            assert_same_graph(g_new, merge_rebuild(g, new[za], new[zb]))
        assert dropped >= 30


class TestSwitch:
    def test_fixtures(self):
        rng = np.random.default_rng(304)
        for g in FIXTURES:
            for field in ("real", "complex"):
                tau = {v: random_unitary(rng, g.dimension, field) for v in g.vertex_ids}
                assert_same_graph(switch(g, tau), switch_rebuild(g, tau))

    @pytest.mark.parametrize("tau_field", ["real", "complex"])
    def test_random(self, tau_field):
        rng = np.random.default_rng(305 if tau_field == "real" else 306)
        for trial in range(200):
            g = random_graph(rng, n_max=7, d=1 + trial % 3, field=random_field(rng))
            tau = {v: random_unitary(rng, g.dimension, tau_field) for v in g.vertex_ids}
            g_new = switch(g, tau)
            if g.field == "real":
                assert g_new.field == tau_field
            assert_same_graph(g_new, switch_rebuild(g, tau))


class TestProduct:
    def test_fixtures(self):
        pairs = [("triangle_u2", "diamond_u2"), ("g1_u2", "triangle_u2"),
                 ("triangle_signed", "diamond_signed"), ("single_edge", "g4_signed"),
                 ("triangle_signed", "triangle_u2"), ("diamond_u2", "single_edge")]
        for a, b in pairs:
            g, g2 = fixture_graph(a), fixture_graph(b)
            lifts = ["tensor"] + (["same-dimension"] if g.dimension == g2.dimension else [])
            for lift in lifts:
                spec = ProductSpec(alpha=1.5, beta=0.5, lift=lift)
                assert_same_graph(cartesian_product(g, g2, spec), product_rebuild(g, g2, spec))

    @pytest.mark.parametrize("lift", ["same-dimension", "tensor"])
    def test_random(self, lift):
        rng = np.random.default_rng(307 if lift == "tensor" else 308)
        for trial in range(200):
            d1 = 1 + trial % 3
            d2 = 1 + int(rng.integers(0, 3)) if lift == "tensor" else d1
            g = relabel(random_graph(rng, n_max=5, d=d1, field=random_field(rng)), rng)[0]
            g2 = relabel(random_graph(rng, n_max=5, d=d2, field=random_field(rng)), rng)[0]
            spec = ProductSpec(alpha=float(10.0 ** rng.uniform(-2, 2)),
                               beta=float(10.0 ** rng.uniform(-2, 2)), lift=lift)
            assert_same_graph(cartesian_product(g, g2, spec), product_rebuild(g, g2, spec))

    def test_tensor_lifts(self):
        rng = np.random.default_rng(309)
        for trial in range(60):
            g = random_graph(rng, n_max=6, d=1 + trial % 3, field=random_field(rng))
            other = 1 + int(rng.integers(0, 3))
            assert_same_graph(_tensor_lift(g, g.dimension, other, "left"),
                              tensor_lift_rebuild(g, g.dimension, other, "left"))
            assert_same_graph(_tensor_lift(g, other, g.dimension, "right"),
                              tensor_lift_rebuild(g, other, g.dimension, "right"))


@pytest.fixture()
def positive_calls(monkeypatch):
    """Count the per-value number checks, wherever concurv looks them up."""
    calls = []
    original = graphs._as_number

    def counted(value, where):
        calls.append(value)
        return original(value, where)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "concurv" and vars(module).get("_as_number") is original:
            monkeypatch.setattr(module, "_as_number", counted)
    return calls


class TestChecksPerDerivation:
    """A derived graph re-checks only what it computes, so the per-value
    number check of outside input runs once per added edge (its weight) and
    never for a merge, a switch or a product."""

    def test_positive_calls(self, positive_calls):
        rng = np.random.default_rng(310)
        g, x, yi, yj = random_s1_in_regular_graph(rng, d=2)
        gm, xm, za, zb = random_merge_instance(rng, d=2)
        g1, g2 = random_graph(rng, d=2), random_graph(rng, d=2)
        tau = {v: random_unitary(rng, 2) for v in g1.vertex_ids}
        # a spec's scales are outside input, read when the spec is built
        specs = [ProductSpec(alpha=2.0, lift=lift) for lift in ("same-dimension", "tensor")]
        del positive_calls[:]
        add_spherical_edge(g, x, yi, yj, w_new=1.5)
        assert positive_calls == [1.5]
        del positive_calls[:]
        merge_s2(gm, xm, za, zb)
        switch(g1, tau)
        for spec in specs:
            cartesian_product(g1, g2, spec)
        assert positive_calls == []


def scaled_graph(ids, scale: float, edges) -> ConnectionGraph:
    """Measures and weights all equal to ``scale``, so every rate is 1."""
    return ConnectionGraph(1, "real", [(v, scale) for v in ids],
                           [(u, v, scale, None) for u, v in edges])


class TestOverflowGuards:
    def test_merged_measure_overflow(self):
        g = scaled_graph(["x", "y1", "y2", "za", "zb"], 1e308,
                         [("x", "y1"), ("x", "y2"), ("y1", "za"), ("y2", "zb")])
        with pytest.raises(ValidationError, match="'za\\+zb': measure must be positive") as exc:
            merge_s2(g, "x", "za", "zb")
        with pytest.raises(ValidationError) as rebuilt:
            merge_rebuild(g, "za", "zb")
        assert str(exc.value) == str(rebuilt.value)

    @pytest.mark.parametrize("scale, spec, message", [
        (1e200, ProductSpec(), "'a\\|a': measure must be positive and finite, got inf"),
        (1e-200, ProductSpec(), "'a\\|a': measure must be positive and finite, got 0.0"),
        (1e150, ProductSpec(alpha=1e200), "weight must be positive and finite, got inf"),
        (1.0, ProductSpec(alpha=1e100), "rate w/mu"),
    ])
    def test_product_overflow(self, scale, spec, message):
        g = scaled_graph(["a", "b"], scale, [("a", "b")])
        with pytest.raises(ValidationError, match=message) as exc:
            cartesian_product(g, g, spec)
        with pytest.raises(ValidationError) as rebuilt:
            product_rebuild(g, g, spec)
        assert str(exc.value) == str(rebuilt.value)

    def test_derived_rates_are_checked(self):
        g = scaled_graph(["x", "y1", "y2"], 1.0, [("x", "y1"), ("x", "y2")])
        with pytest.raises(ValidationError, match="rate w/mu") as exc:
            add_spherical_edge(g, "x", "y1", "y2", w_new=1e61)
        with pytest.raises(ValidationError) as rebuilt:
            add_edge_rebuild(g, "x", "y1", "y2", 1e61)
        assert str(exc.value) == str(rebuilt.value)

