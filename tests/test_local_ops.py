import numpy as np
import pytest

from concurv import (
    INF,
    ConnectionGraph,
    ValidationError,
    add_spherical_edge,
    curvature,
    gamma2_matrix,
    load_graph,
    local_structure,
    merge_s2,
    s1_in_regular,
    switch,
)
from concurv.fixtures import fixture_graph
from concurv.local_ops import S1_IN_TOL

from helpers import (
    add_edge_rebuild,
    assert_close,
    count_gamma2_assemblies,
    random_merge_instance,
    random_s1_in_regular_graph,
    random_unitary,
    scaled_rates,
)


class TestAddSphericalEdge:
    def test_validations(self):
        g = fixture_graph("g5_signed")
        with pytest.raises(ValidationError, match="neighbors"):
            add_spherical_edge(g, "1", "2", "4")  # 4 is not a neighbor of 1
        with pytest.raises(ValidationError, match="weight"):
            add_spherical_edge(g, "1", "2", "3", w_new=0.0)
        g_adj = fixture_graph("diamond_signed")
        with pytest.raises(ValidationError, match="adjacent"):
            add_spherical_edge(g_adj, "1", "2", "3")

    @pytest.mark.parametrize("w_new", [True, "2", float("nan"), float("inf"), 0.0, -1.0])
    def test_weight_takes_the_constructor_rule(self, w_new):
        g = fixture_graph("g5_signed")
        with pytest.raises(ValidationError, match="weight") as derived:
            add_spherical_edge(g, "1", "2", "3", w_new=w_new)
        if isinstance(w_new, float):   # a number out of range: the rebuild's message
            with pytest.raises(ValidationError) as rebuilt:
                add_edge_rebuild(g, "1", "2", "3", w_new)
            assert str(derived.value) == str(rebuilt.value)

    def test_unknown_or_isolated_center_rejected(self):
        g = load_graph({"dimension": 1,
                        "vertices": [{"id": "x"}, {"id": "a"}, {"id": "lone"}],
                        "edges": [{"u": "x", "v": "a"}]})
        with pytest.raises(ValidationError, match="not in the graph"):
            add_spherical_edge(fixture_graph("g1_u2"), "nope", "2", "3")
        with pytest.raises(ValidationError, match="isolated"):
            add_spherical_edge(g, "lone", "x", "a")

    def test_balanced_default_never_decreases(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            d = 1 if trial % 2 == 0 else 2
            g, x, yi, yj = random_s1_in_regular_graph(rng, d=d)
            assert s1_in_regular(g, x)
            g_new, report = add_spherical_edge(g, x, yi, yj,
                                               w_new=float(rng.uniform(0.5, 2.0)))
            assert report.delta_psd is True
            assert report.after >= report.before - 1e-9
            # monotone for finite N as well
            loc_b = local_structure(g, x)
            loc_a = local_structure(g_new, x)
            for n in (1.0, 3.0):
                kb, _ = curvature(loc_b, n)
                ka, _ = curvature(loc_a, n)
                assert ka >= kb - 1e-9

    def test_each_2_ball_built_once(self, monkeypatch):
        import concurv.local_ops as local_ops
        from concurv.graphs import _one_ball
        calls = []

        def counted(g, x):
            calls.append(x)
            return _one_ball(g, x)

        monkeypatch.setattr(local_ops, "_one_ball", counted)
        g, x, yi, yj = random_s1_in_regular_graph(np.random.default_rng(104), d=2)
        add_spherical_edge(g, x, yi, yj)   # balanced default: the S1-in check runs
        assert calls == [x, x]             # before and after the edit

    def test_gamma2_assembled_once_per_ball(self, monkeypatch):
        """The two curvature values take Q from the md-size blocks, so only
        the PSD difference assembles 4*Gamma_2: once before and once after."""
        calls = count_gamma2_assemblies(monkeypatch)
        g, x, yi, yj = random_s1_in_regular_graph(np.random.default_rng(104), d=2)
        add_spherical_edge(g, x, yi, yj)
        assert calls == [x, x]

    def test_difference_matrix_structure(self):
        # in the gauge where every base-incident connection is the identity,
        # the balanced-edge difference matrix is the constant block pattern
        # c * [[4, -4], [-4, 4]] on the two touched neighbors
        rng = np.random.default_rng(102)
        g, x, yi, yj = random_s1_in_regular_graph(rng, d=2)
        tau = {v: np.eye(2, dtype=complex) for v in g.vertex_ids}
        for y in g.neighbors(x):
            tau[y] = g.sigma(y, x)
        g = switch(g, tau)
        w_new = 1.3
        g_new, _ = add_spherical_edge(g, x, yi, yj, w_new=w_new)
        before = gamma2_matrix(local_structure(g, x)).mat
        after = gamma2_matrix(local_structure(g_new, x)).mat
        diff = after - before
        loc = local_structure(g, x)
        d = 2
        i = 1 + loc.s1.index(yi)
        j = 1 + loc.s1.index(yj)
        c = g.p(x, yi) * (w_new / g.measure(yi))
        expected = np.zeros_like(diff)
        expected[i * d:(i + 1) * d, i * d:(i + 1) * d] = 4 * c * np.eye(d)
        expected[j * d:(j + 1) * d, j * d:(j + 1) * d] = 4 * c * np.eye(d)
        expected[i * d:(i + 1) * d, j * d:(j + 1) * d] = -4 * c * np.eye(d)
        expected[j * d:(j + 1) * d, i * d:(i + 1) * d] = -4 * c * np.eye(d)
        assert_close(diff, expected, 1e-9)

    def test_unbalanced_edge_examples_move_both_ways(self):
        neg = np.array([[-1.0]], dtype=complex)
        cases = {
            "g3_signed": ("3", "4", 1),    # curvature increases
            "g4_signed": ("2", "3", 0),    # stays put
            "g5_signed": ("2", "3", -1),   # decreases
        }
        for name, (yi, yj, direction) in cases.items():
            g = fixture_graph(name)
            _, report = add_spherical_edge(g, "1", yi, yj, 1.0, neg)
            assert report.delta_psd is False
            if direction > 0:
                assert report.after > report.before + 1e-6
            elif direction < 0:
                assert report.after < report.before - 1e-6
            else:
                assert report.after == pytest.approx(report.before, abs=1e-9)

    def test_custom_sigma_graph_contains_edge(self):
        g = fixture_graph("g5_signed")
        sigma = np.array([[-1.0]])
        g_new, _ = add_spherical_edge(g, "1", "2", "3", 2.0, sigma)
        assert g_new.weight("2", "3") == 2.0
        assert g_new.sigma("2", "3")[0, 0] == -1.0
        # original graph untouched
        assert not g.has_edge("2", "3")


class TestMergeS2:
    def test_validations(self):
        g = fixture_graph("g1_u2")  # S2(1) = {4} only
        with pytest.raises(ValidationError, match="2-sphere"):
            merge_s2(g, "1", "4", "2")
        g4 = fixture_graph("g4_signed")  # S2(1) = {4, 5}, no common neighbor
        g_bad = load_graph({"dimension": 1,
                            "vertices": [{"id": v} for v in ("x", "y", "z1", "z2")],
                            "edges": [{"u": "x", "v": "y"}, {"u": "y", "v": "z1"},
                                      {"u": "y", "v": "z2"}]})
        with pytest.raises(ValidationError, match="share"):
            merge_s2(g_bad, "x", "z1", "z2")
        # and a well-posed case on the same fixture family
        merged, report = merge_s2(g4, "1", "4", "5")
        assert report.after >= report.before - 1e-9

    def test_merged_graph_structure(self):
        g = fixture_graph("g4_signed")
        merged, _ = merge_s2(g, "1", "4", "5")
        assert "4+5" in merged
        assert "4" not in merged and "5" not in merged
        assert merged.measure("4+5") == pytest.approx(2.0)
        assert merged.weight("2", "4+5") == pytest.approx(1.0)
        assert merged.weight("3", "4+5") == pytest.approx(1.0)

    def test_path_pair_merges_into_4_cycle(self):
        g = load_graph({"dimension": 1,
                        "vertices": [{"id": v} for v in ("x", "y1", "y2", "z1", "z2")],
                        "edges": [{"u": "x", "v": "y1"}, {"u": "x", "v": "y2"},
                                  {"u": "y1", "v": "z1"}, {"u": "y2", "v": "z2"}]})
        merged, report = merge_s2(g, "x", "z1", "z2")
        assert sorted(merged.neighbors("z1+z2")) == ["y1", "y2"]
        assert report.after >= report.before - 1e-9
        # merging the two arms of the path produces the 4-cycle through x
        k4, _ = curvature(local_structure(fixture_graph("g5_signed"), "1"), INF)
        loc = local_structure(merged, "x")
        k, _ = curvature(loc, INF)
        assert k == pytest.approx(k4, abs=1e-12)

    def test_symmetric_duplicates_never_decrease(self):
        rng = np.random.default_rng(103)
        for trial in range(5):
            d = 1 if trial % 2 == 0 else 2
            sigma = random_unitary(rng, d)
            # z1 and z2 are exact copies hanging off two different neighbors
            g = load_graph({"dimension": d, "field": "complex",
                            "vertices": [{"id": v} for v in ("x", "a", "b", "z1", "z2")],
                            "edges": [{"u": "x", "v": "a"}, {"u": "x", "v": "b"}]})
            from concurv import ConnectionGraph
            edges = g.edge_list() + [("a", "z1", 1.0, sigma), ("b", "z2", 1.0, sigma)]
            g = ConnectionGraph(d, "complex", [(v, 1.0) for v in g.vertex_ids], edges)
            _, report = merge_s2(g, "x", "z1", "z2")
            assert report.after >= report.before - 1e-9

    def test_random_merges_never_decrease(self):
        rng = np.random.default_rng(104)
        for trial in range(20):
            d = 1 if trial % 2 == 0 else 2
            g, x, za, zb = random_merge_instance(rng, d=d)
            _, report = merge_s2(g, x, za, zb)  # raises internally on decrease
            assert report.after >= report.before - 1e-9

    def test_dropped_edge_between_merged_pair(self):
        # za ~ zb is allowed (they share no *other* vertex as neighbor);
        # the merged vertex silently drops that edge
        g = load_graph({"dimension": 1,
                        "vertices": [{"id": v} for v in ("x", "y1", "y2", "za", "zb")],
                        "edges": [{"u": "x", "v": "y1"}, {"u": "x", "v": "y2"},
                                  {"u": "y1", "v": "za"}, {"u": "y2", "v": "zb"},
                                  {"u": "za", "v": "zb"}]})
        merged, _ = merge_s2(g, "x", "za", "zb")
        assert not merged.has_edge("za+zb", "za+zb")
        assert sorted(merged.neighbors("za+zb")) == ["y1", "y2"]


def test_s1_in_regular_detection():
    assert s1_in_regular(fixture_graph("g5_signed"), "1")
    g = load_graph({"dimension": 1,
                    "vertices": [{"id": "x"}, {"id": "a", "measure": 1.0},
                                 {"id": "b", "measure": 2.0}],
                    "edges": [{"u": "x", "v": "a"}, {"u": "x", "v": "b"}]})
    assert not s1_in_regular(g, "x")  # p_ax = 1 but p_bx = 1/2


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("share, regular", [(0.5, True), (2.0, False)])
def test_s1_in_tol_boundary(share, regular, s):
    """Inward rates s and s (1 - share * S1_IN_TOL): S1-in regular at half
    the tolerance, not at twice it, in any unit of the rates."""
    g = ConnectionGraph(1, "complex", [("x", 1.0), ("a", 1.0), ("b", 1.0)],
                        [("x", "a", s, None), ("x", "b", s * (1.0 - share * S1_IN_TOL), None)])
    assert s1_in_regular(g, "x") is regular


def test_s1_in_regular_rejects_unknown_and_isolated_vertices():
    g = load_graph({"dimension": 1,
                    "vertices": [{"id": "x"}, {"id": "a"}, {"id": "lone"}],
                    "edges": [{"u": "x", "v": "a"}]})
    with pytest.raises(ValidationError, match="not in the graph"):
        s1_in_regular(g, "nowhere")
    with pytest.raises(ValidationError, match="isolated"):
        s1_in_regular(g, "lone")


@pytest.mark.parametrize("s", [1e6, 1e8])
def test_edits_at_large_rates(s):
    """Edits of graphs whose weights are scaled by s raise no cross-check:
    the monotonicity slack is relative to the k_scale of the two balls and
    the PSD slack of the Gamma_2 difference to the size of the two matrices
    it subtracts.
    With absolute slacks, 2 to 30 of these 30 balanced additions and 4 to 6
    of these 30 merges raised on correct values."""
    rng = np.random.default_rng(105)
    for trial in range(30):
        g, x, yi, yj = random_s1_in_regular_graph(rng, d=1 + trial % 3)
        _, edit = add_spherical_edge(scaled_rates(g, s), x, yi, yj)
        assert edit.delta_psd
        assert edit.after >= edit.before - 1e-9 * abs(edit.before)
        g, x, za, zb = random_merge_instance(rng, d=1 + trial % 3)
        _, edit = merge_s2(scaled_rates(g, s), x, za, zb)
        assert edit.after >= edit.before - 1e-9 * abs(edit.before)
