"""One slack and one scale for every check on K and on the curvature
matrices, over a table of balls at rates scaled by 1e-20 to 1e12.

Multiplying every edge weight by s multiplies every curvature matrix and K
by s, so no check may depend on the unit of the weights.  Each check on K
allows ``graphs.SLACK`` (or the CLI's tolerance) times
``CurvatureBundle.k_scale``, ``max(max|A_inf|, |K| ...)`` with no floor, and
each matrix check allows ``SLACK`` times ``hermitian._scale``, the largest
entry of the matrices it compares.  At every scale of the table: the oracle
agrees with ``curvature``, no correct balanced addition, merge or product
decomposition raises, ``concurv curvature --oracle`` exits 0 and phi is the
map it is at unit rates; and an error injected at a small multiple of the
bound, or at 1e-6 of the scale, still fails.  An absolute floor of 1 made
the checks vacuous at small rates (an oracle off K by 5.4 |K| passed at
1e-8, and at 1e-8 phi was the zero map on every unbalanced fixture ball)
and too tight at large ones (the flat tori raised on 66 of 96 merges at
1e8).
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import json

import numpy as np
import pytest

from concurv import (INF, ConnectionGraph, CrossCheckError, HermitianMatrix, ProductSpec,
                     ValidationError, add_spherical_edge, cli, curvature_bundle,
                     curvature_matrix, curvature_oracle, load_graph, local_ops, local_structure,
                     merge_s2, phi_map, product, product_decomposition, switch, tensor,
                     tensor_matrix_check)
from concurv.fixtures import fixture_graph, fixture_names
from concurv.hermitian import _scale
from concurv.local_ops import s1_in_regular
from concurv.operators import _neighbour_stack

from helpers import (random_commuting_pair, random_graph, random_merge_instance,
                     random_s1_in_regular_graph, random_unitary, scaled_rates)

SCALES = (1e-20, 1e-8, 1.0, 1e8, 1e12)
ORACLE_AGREEMENT = 1e-10   # measured: 3.6e-13 of k_scale at most, over the table
INJECTED = 1e-6            # an error this far off, relative to the scale, must raise
TENSOR_AGREEMENT = 1e-12   # measured: 4.3e-15 at most, over the table


def top(m) -> float:
    """The largest entry of m."""
    return float(np.max(np.abs(m)))


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
    assert len(product_pairs()) == 3 * 6 + 8 and len(unbalanced_fixture_balls()) == 33


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
        _, report = add_spherical_edge(scaled_rates(g, s), x, a, b, w_new=s)
        assert report.delta_psd is True, (x, a, b, s)
    for g, x, a, b in merges:
        _, report = merge_s2(scaled_rates(g, s), x, a, b)
        assert report.delta_psd is True, (x, a, b, s)


@pytest.mark.parametrize("s", SCALES)
def test_s1_in_regularity_is_free_of_the_rate_unit(s):
    """Which centers get the addition's monotonicity check does not depend
    on the unit either (with a floor of 1 on the rate spread, all 140
    irregular centers of the random graphs read regular at 1e-20)."""
    for g, x in all_balls():
        assert s1_in_regular(scaled_rates(g, s), x) == s1_in_regular(g, x), (x, s)


def lower_after(monkeypatch, drop: float):
    """Make the edits read the after-record's 4*Q/2 with its first diagonal
    entry, at x, lowered by ``drop * _scale(q2)``: an edit eliminates the
    ball before it first and the ball after it second.  The 4*Q difference
    then has an eigenvalue below ``-drop / 2`` of the scale at every edit of
    the table (measured: at most -0.52 drop; an addition leaves the row of x
    as it is, and a merge's difference has rank d at most)."""
    real = local_ops.curvature_bundle
    seen = []

    def bundle(loc):
        e = real(loc)
        if seen:
            q2 = e.q2.copy()
            q2[0, 0] -= drop * _scale(q2)
            object.__setattr__(e, "q2", q2)
        seen.append(e)
        return e

    monkeypatch.setattr(local_ops, "curvature_bundle", bundle)
    return seen


def certified_edits(s: float):
    """A balanced addition and a merge of each of three families of the
    table, at rates scaled by s; the new edge has the unit weight times s."""
    adds, merges = edits()
    for family in ("fixtures", "tori", "draws"):
        graphs = [g for g, _ in table()[family]]
        for edit, cases in ((functools.partial(add_spherical_edge, w_new=s), adds),
                            (merge_s2, merges)):
            g, x, a, b = next(e for e in cases if any(e[0] is h for h in graphs))
            yield edit, (scaled_rates(g, s), x, a, b)


@pytest.mark.parametrize("s", SCALES)
def test_a_non_psd_difference_of_the_scale_raises_in_both_edits(s, monkeypatch):
    for edit, case in certified_edits(s):
        with monkeypatch.context() as m:
            seen = lower_after(m, INJECTED)
            with pytest.raises(CrossCheckError, match=r"produced a non-PSD 4\*Q difference"):
                edit(*case)
            assert len(seen) == 2


@pytest.mark.parametrize("s", SCALES)
def test_a_difference_off_psd_by_rounding_passes_in_both_edits(s, monkeypatch):
    """The same entry lowered by 1e-12 of the scale, below SLACK: every
    such edit still reads ``delta_psd`` True."""
    for edit, case in certified_edits(s):
        with monkeypatch.context() as m:
            seen = lower_after(m, 1e-12)
            _, report = edit(*case)
            assert report.delta_psd is True and len(seen) == 2, (case[1:], s)


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


@functools.cache
def product_pairs() -> list[tuple[ConnectionGraph, ConnectionGraph, str, str]]:
    """Every vertex pair of ``triangle_signed`` x ``g2_signed``, and the pair
    ("1", "1") of eight random commuting pairs."""
    g, g2 = fixture_graph("triangle_signed"), fixture_graph("g2_signed")
    pairs = [(g, g2, x, x2) for x in g.vertex_ids for x2 in g2.vertex_ids if g2.neighbors(x2)]
    rng = np.random.default_rng(86)
    return pairs + [(*random_commuting_pair(rng), "1", "1") for _ in range(8)]


@functools.cache
def unbalanced_fixture_balls():
    """The fixture balls whose phi is not the zero map at unit rates."""
    return [(g, x) for g, x in table()["fixtures"] if np.any(phi_map(local_structure(g, x)))]


@pytest.mark.parametrize("s", SCALES)
def test_correct_product_decompositions_pass(s):
    """R and J are PSD, and the identity holds, at every scale of both
    factors, N, N' = (inf, inf) and (2, 3)."""
    for g, g2, x, x2 in product_pairs():
        for n, n2 in ((INF, INF), (2.0, 3.0)):
            product_decomposition(scaled_rates(g, s), scaled_rates(g2, s), ProductSpec(),
                                  x, x2, n, n2)


@pytest.mark.parametrize("s", SCALES)
def test_phi_and_the_tensor_check_are_free_of_the_rate_unit(s):
    """phi is homogeneous of degree 0 in the rates, so it is the map it is
    at unit rates, not the zero map; and the tensor and its matrix agree
    (with a floor of 1, phi was the zero map on all 33 balls at 1e-20 and
    1e-8, and ``tensor_matrix_check`` read 7e-20 and 7e-8)."""
    for g, x in unbalanced_fixture_balls():
        loc = local_structure(scaled_rates(g, s), x)
        want = phi_map(local_structure(g, x))
        assert top(phi_map(loc) - want) <= 1e-9 * top(want), (x, s)
        for n in (INF, 2.0):
            assert tensor_matrix_check(loc, n) <= TENSOR_AGREEMENT, (x, s, n)


@pytest.mark.parametrize("s", SCALES)
def test_an_injected_product_residual_raises(s, monkeypatch):
    """The product matrix read one entry ``INJECTED * max|A_N|`` off: the
    product ball's record (its center holds the separator) gets the shifted
    A_inf, which is A_N at N = inf; the factor balls' records are left as
    they are."""
    real = product.curvature_bundle

    def shifted(loc):
        bundle = real(loc)
        if product.SEPARATOR not in loc.center:
            return bundle
        m = bundle.a_inf.copy()
        m[0, 0] += INJECTED * top(m)
        return dataclasses.replace(bundle, a_inf=m)

    monkeypatch.setattr(product, "curvature_bundle", shifted)
    for g, g2, x, x2 in product_pairs():
        with pytest.raises(CrossCheckError, match="residual"):
            product_decomposition(scaled_rates(g, s), scaled_rates(g2, s), ProductSpec(),
                                  x, x2, INF, INF)


@pytest.mark.parametrize("s", SCALES)
def test_an_injected_asymmetry_raises(s):
    """A curvature matrix with one entry ``INJECTED * max|A_N|`` off its
    mirror is not Hermitian."""
    for g, x in table()["fixtures"]:
        m = curvature_matrix(local_structure(scaled_rates(g, s), x), INF).mat.copy()
        m[-1, 0] += 1j * INJECTED * top(m)
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix(m)


@pytest.mark.parametrize("s", SCALES)
def test_an_injected_phi_residual_raises(s, monkeypatch):
    """phi read through a kernel block moved by ``delta I``, with delta set
    so that its equation is left ``INJECTED * max|4Q/2|`` unsolved."""
    real, balls = tensor.curvature_bundle, unbalanced_fixture_balls()

    def moved(loc):
        e = real(loc)
        m_conj = -(e.eig.pinv() @ e.omega_t) @ _neighbour_stack(loc, np.sqrt(loc.p_x), diagonal=True)
        delta = INJECTED * top(e.q2) / top(m_conj)
        return dataclasses.replace(e, a=e.a + delta * np.eye(loc.d))

    monkeypatch.setattr(tensor, "curvature_bundle", moved)
    for g, x in balls:
        with pytest.raises(CrossCheckError, match="solvability"):
            phi_map(local_structure(scaled_rates(g, s), x))
