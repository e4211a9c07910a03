"""One scale for every check on K, over a table of balls at rates scaled by
1e-20 to 1e12.

Multiplying every edge weight by s multiplies every curvature matrix and K
by s, so no check on K may depend on the unit of the weights.  Each check
allows ``K_SLACK`` (or the CLI's tolerance) times ``CurvatureBundle.k_scale``,
``max(max|A_inf|, |K| ...)`` with no floor.  At every scale of the table:
the oracle agrees with ``curvature``, no correct balanced addition or merge
raises, and ``concurv curvature --oracle`` exits 0; and an error of a few
bounds, injected by a stub, still fails.  An absolute floor of 1 made the
checks vacuous at small rates (an oracle off K by 5.4 |K| passed at 1e-8)
and too tight at large ones (the flat tori raised on 66 of 96 merges at
1e8).
"""

import contextlib
import functools
import io
import itertools
import json

import numpy as np
import pytest

from concurv import (INF, ConnectionGraph, CrossCheckError, add_spherical_edge, cli,
                     curvature_bundle, curvature_oracle, load_graph, local_ops, local_structure,
                     merge_s2, switch)
from concurv.fixtures import fixture_graph, fixture_names
from concurv.local_ops import s1_in_regular

from helpers import (random_graph, random_merge_instance, random_s1_in_regular_graph,
                     random_unitary, scaled_rates)

SCALES = (1e-20, 1e-8, 1.0, 1e8, 1e12)
ORACLE_AGREEMENT = 1e-10   # measured: 3.6e-13 of k_scale at most, over the table


def flat_torus(side: int, d: int) -> ConnectionGraph:
    """The side x side torus with unit weights and measures and identity
    connections: K(inf) = 0 at every vertex."""
    def t(i, j):
        return f"t{i % side}_{j % side}"
    edges = [(t(i, j), t(*nxt), 1.0, None) for i in range(side) for j in range(side)
             for nxt in ((i + 1, j), (i, j + 1))]
    return ConnectionGraph(d, "complex", [(t(i, j), 1.0) for i in range(side)
                                          for j in range(side)], edges)


@functools.cache
def table() -> dict[str, list[tuple[ConnectionGraph, str]]]:
    """The (graph, center) cases by family: every vertex of the fixtures and
    of 40 random graphs, the 8x8 flat tori for d = 1..3 before and after a
    Haar switch (K = 0 exactly), and the seed-105 edit draws."""
    fixtures = [(g, x) for g in map(fixture_graph, fixture_names())
                for x in g.vertex_ids if g.neighbors(x)]
    rng = np.random.default_rng(0)
    randoms = [(g, x) for g in (random_graph(rng, d=1 + t % 3) for t in range(40))
               for x in g.vertex_ids if g.neighbors(x)]
    rng = np.random.default_rng(1)
    tori = []
    for d in (1, 2, 3):
        g = flat_torus(8, d)
        tori += [(g, "t0_0"), (switch(g, {v: random_unitary(rng, d) for v in g.vertex_ids}),
                               "t0_0")]
    rng = np.random.default_rng(105)
    draws = []
    for t in range(12):
        draws.append(random_s1_in_regular_graph(rng, d=1 + t % 3)[:2])
        draws.append(random_merge_instance(rng, d=1 + t % 3)[:2])
    return {"fixtures": fixtures, "random": randoms, "tori": tori, "draws": draws}


def all_balls():
    return [case for cases in table().values() for case in cases]


@functools.cache
def edits() -> tuple[list, list]:
    """Every balanced addition at an S1-in regular center of the table, and
    every merge of two 2-sphere vertices that share no neighbor."""
    adds, merges = [], []
    for g, x in all_balls():
        loc = local_structure(g, x)
        if s1_in_regular(g, x):
            adds += [(g, x, a, b) for a, b in itertools.combinations(loc.s1, 2)
                     if not g.has_edge(a, b)]
        merges += [(g, x, a, b) for a, b in itertools.combinations(loc.s2, 2)
                   if not set(g.neighbors(a)) & set(g.neighbors(b))]
    return adds, merges


def test_the_table_holds_every_kind_of_case():
    adds, merges = edits()
    assert len(all_balls()) > 200 and len(adds) >= 100 and len(merges) >= 100
    assert sum(g.dimension == 1 for g, _ in table()["tori"]) == 2


@pytest.mark.parametrize("s", SCALES)
def test_oracle_agrees_in_units_of_k_scale(s):
    """The oracle is judged in the units of its own matrices, so it agrees
    with ``curvature`` to the ball's scale (with a floor of 1 it was off by
    up to 7.8e31 k_scale at 1e-20 and 29 k_scale at 1e-8)."""
    for g, x in all_balls():
        loc = local_structure(scaled_rates(g, s), x)
        e = curvature_bundle(loc)
        for n in (INF, 2.0):
            k = e.k(n)[0]
            gap = abs(curvature_oracle(loc, n) - k)
            assert gap <= ORACLE_AGREEMENT * e.k_scale(k), (x, s, n, k, gap)


@pytest.mark.parametrize("s", SCALES)
def test_correct_edits_do_not_raise(s):
    """The new edge of an addition has the unit weight times s too."""
    adds, merges = edits()
    for g, x, a, b in adds:
        add_spherical_edge(scaled_rates(g, s), x, a, b, w_new=s)
    for g, x, a, b in merges:
        merge_s2(scaled_rates(g, s), x, a, b)


@pytest.mark.parametrize("s", SCALES)
def test_s1_in_regularity_is_free_of_the_rate_unit(s):
    """Which centers get the addition's monotonicity check does not depend
    on the unit either (with a floor of 1 on the rate spread, all 140
    irregular centers of the random graphs read regular at 1e-20)."""
    for g, x in all_balls():
        assert s1_in_regular(scaled_rates(g, s), x) == s1_in_regular(g, x), (x, s)


def lower_after(monkeypatch, drop: float):
    """Make the edits read K after the edit as K before it minus ``drop``
    times the ``k_scale`` of the ball before: an edit eliminates the ball
    before it first and the ball after it second."""
    real = local_ops.curvature_bundle
    seen = []

    def bundle(loc):
        e = real(loc)
        if seen:
            before = seen[0]

            def k(n):
                kb, mult = before.k(n)
                return kb - drop * before.k_scale(kb), mult
            object.__setattr__(e, "k", k)
        seen.append(e)
        return e

    monkeypatch.setattr(local_ops, "curvature_bundle", bundle)
    return seen


@pytest.mark.parametrize("s", SCALES)
def test_a_decrease_of_the_scale_raises_in_both_edits(s, monkeypatch):
    adds, merges = edits()
    for family in ("fixtures", "tori", "draws"):
        graphs = [g for g, _ in table()[family]]
        add = next(e for e in adds if any(e[0] is g for g in graphs))
        merge = next(e for e in merges if any(e[0] is g for g in graphs))
        for edit, (g, x, a, b) in ((functools.partial(add_spherical_edge, w_new=s), add),
                                   (merge_s2, merge)):
            with monkeypatch.context() as m:
                seen = lower_after(m, 1e-6)
                with pytest.raises(CrossCheckError, match="decreased curvature"):
                    edit(scaled_rates(g, s), x, a, b)
                assert len(seen) == 2


def cli_balls():
    return table()["fixtures"] + table()["tori"]


def run_curvature(path, x) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", "curvature", str(path), "--vertex", x, "--oracle"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("s", SCALES)
def test_cli_oracle_check_passes(s, tmp_path):
    """``curvature --oracle`` exits 0 at every ball, and records the bound
    it applied: ``tol * k_scale(K, K_oracle)``."""
    path = tmp_path / "g.json"
    for g, x in cli_balls():
        path.write_text(json.dumps(scaled_rates(g, s).to_document()))
        code, report = run_curvature(path, x)
        results = report["results"]
        assert code == 0 and results["oracle_agreement"] is True, (x, s, results)
        e = curvature_bundle(local_structure(load_graph(path.read_text()), x))
        want = report["tolerance"] * e.k_scale(results["curvature"], results["oracle"])
        assert results["oracle_bound"] == want


@pytest.mark.parametrize("s", SCALES)
def test_cli_oracle_check_bites(s, tmp_path, monkeypatch):
    """An oracle stubbed half the applied bound off K passes and one stubbed
    twice the bound off fails with exit 2, at every scale."""
    path = tmp_path / "g.json"
    for g, x in cli_balls():
        path.write_text(json.dumps(scaled_rates(g, s).to_document()))
        e = curvature_bundle(local_structure(load_graph(path.read_text()), x))
        k = e.k(INF)[0]
        bound = cli.COMPARISON_TOL * e.k_scale(k)
        for factor, want in ((0.5, 0), (2.0, 2)):
            monkeypatch.setattr(cli, "curvature_oracle", lambda loc, n: k + factor * bound)
            code, report = run_curvature(path, x)
            assert code == want, (x, s, factor, report["results"])
