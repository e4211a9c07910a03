"""Property-based invariants of the curvature over random connection graphs.

Hypothesis draws only the shape of a graph (dimension, field, size) and an
integer seed; the weights, measures and Haar-random connections come from
numpy through ``helpers.random_graph``.  Shrinking therefore moves between
whole random graphs and never walks a connection towards balance, where K
jumps (ROADMAP item 4).  Runs are derandomized and bounded.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from concurv import (  # noqa: E402
    INF,
    ConnectionGraph,
    curvature,
    curvature_bundle,
    curvature_matrix,
    curvature_profile,
    general_basis,
    local_structure,
    switch,
)
from concurv.graphs import SLACK  # noqa: E402
from concurv.hermitian import MULTIPLICITY_GAP  # noqa: E402

from helpers import (  # noqa: E402
    cover,
    direct_sum,
    fibre_balls,
    random_balanced_graph,
    random_graph,
    random_permutation_graph,
    random_unitary,
    scaled_rates,
)

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)
N_VALUES = (INF, 4.0, 1.0)

graph_shapes = st.fixed_dictionaries({
    "d": st.integers(1, 3),
    "field": st.sampled_from(["real", "complex"]),
    "n_max": st.integers(3, 7),
    "seed": st.integers(0, 2**32 - 1),
})


def balls(g: ConnectionGraph):
    """The ball of every vertex of g that has a neighbor."""
    return [local_structure(g, x) for x in g.vertex_ids if g.neighbors(x)]


def k_resolution(loc) -> float:
    """How far rounding can move K at this ball, over ``max(1, |K|)``.  The
    kernel correction ``conj(omega) a^+ omega^T`` moves by about
    ``eps s (max|omega| / lambda)^2`` when a and omega round at the scale
    ``s = max(1, max|4Q/2|)``, lambda the smallest eigenvalue of a that is
    inverted.  Near balance this is the README's limit: K is resolvable only
    to about eps over that eigenvalue.  Over 43785 switched balls (seeds
    0-1199, d = 1..3) the largest error was 1.4e-13 of this scale."""
    bundle = curvature_bundle(loc)
    kept = np.abs(bundle.eig.lam[bundle.eig.keep])
    ratio = float(np.max(np.abs(bundle.omega_t))) / kept.min() if kept.size else 0.0
    return 1e-11 * max(1.0, float(np.max(np.abs(bundle.q2)))) * (1.0 + ratio**2)


@PROPERTY_SETTINGS
@given(graph_shapes)
def test_switching_leaves_k_unchanged(shape):
    """K(N) is unchanged by a Haar gauge, to the resolution of the ball:
    a random graph can be near balance by chance (at seed 2, d = 2, a
    triangle's kernel block has eigenvalues 3.8e-5 and 2.2, and K moves by
    1.6e-10 under switching)."""
    rng = np.random.default_rng(shape["seed"])
    g = random_graph(rng, n_max=shape["n_max"], d=shape["d"], field=shape["field"])
    tau = {v: random_unitary(rng, shape["d"], shape["field"]) for v in g.vertex_ids}
    g2 = switch(g, tau)
    for loc, loc2 in zip(balls(g), balls(g2)):
        tol = k_resolution(loc)
        for n in N_VALUES:
            k, k2 = curvature(loc, n)[0], curvature(loc2, n)[0]
            assert abs(k2 - k) <= tol * max(1.0, abs(k)), (loc.center, n, k, k2, tol)


@PROPERTY_SETTINGS
@given(graph_shapes, st.integers(0, 2**16))
def test_spectrum_is_basis_independent(shape, basis_seed):
    rng = np.random.default_rng(shape["seed"])
    g = random_graph(rng, n_max=shape["n_max"], d=shape["d"], field=shape["field"])
    for loc in balls(g):
        b = general_basis(loc, basis_seed)
        for n in N_VALUES:
            canonical = curvature_matrix(loc, n).mat
            explicit = curvature_matrix(loc, n, b).mat
            tol = 1e-12 * max(1.0, float(np.max(np.abs(canonical))))
            np.testing.assert_allclose(np.linalg.eigvalsh(explicit),
                                       np.linalg.eigvalsh(canonical), rtol=0, atol=tol)


@PROPERTY_SETTINGS
@given(graph_shapes)
def test_balanced_k_is_the_scalar_graph_k(shape):
    """A balanced graph has the K of its scalar graph: d = 1, real, identity
    connections, the same weights and measures (the paper's "locally
    balanced structure covers previous works")."""
    rng = np.random.default_rng(shape["seed"])
    g = random_balanced_graph(rng, n_max=shape["n_max"], d=shape["d"], field=shape["field"])
    scalar = ConnectionGraph(1, "real", [(v, g.measure(v)) for v in g.vertex_ids],
                             [(u, v, w, None) for u, v, w, _ in g.edge_list()])
    for loc, loc1 in zip(balls(g), balls(scalar)):
        for n in N_VALUES:
            k, k1 = curvature(loc, n)[0], curvature(loc1, n)[0]
            assert abs(k - k1) <= 1e-10 * max(1.0, abs(k1)), (loc.center, n, k, k1)


@PROPERTY_SETTINGS
@given(graph_shapes, st.sampled_from([-12, 0, 12]), st.booleans())
def test_profile_is_monotone_and_concave_at_any_unit(shape, exponent, unit_balanced):
    """K(N) is monotone and concave at any unit of the rates: the checks of
    ``curvature_profile``, at ``SLACK * k_scale``, pass on a grid spanning
    N0 at rates scaled by 1e-12, 1 and 1e12, and ``constant_from`` is the
    first grid point at or above N0 (None when N0 = inf).  Half the draws are
    balanced graphs with unit weights and measures, re-gauged by a Haar
    switch, where N0 can be finite (8 of the 97 balls drawn)."""
    rng = np.random.default_rng(shape["seed"])
    d, field = shape["d"], shape["field"]
    g = random_graph(rng, n_max=shape["n_max"], d=d, field=field,
                     identity_connections=unit_balanced,
                     weight_range=(1.0, 1.0) if unit_balanced else (0.6, 1.8))
    if unit_balanced:
        g = switch(g, {v: random_unitary(rng, d, field) for v in g.vertex_ids})
    for loc in balls(scaled_rates(g, 10.0 ** exponent)):
        n0 = curvature_bundle(loc).n0
        if n0 < INF:
            grid = [n0 / 8, n0 / 2, 2 * n0, 8 * n0, INF]
        else:
            grid = [0.25, 1.0, 4.0, 16.0, INF]
        profile = curvature_profile(loc, grid)
        assert profile.n0 == n0
        assert profile.constant_from == (2 * n0 if n0 < INF else None), (loc.center, n0)


@PROPERTY_SETTINGS
@given(st.fixed_dictionaries({
    "d1": st.integers(1, 2),
    "d2": st.integers(1, 2),
    "field": st.sampled_from(["real", "complex"]),
    "n_max": st.integers(3, 6),
    "seed": st.integers(0, 2**32 - 1),
    "twin": st.booleans(),
}))
def test_direct_sum_takes_the_smaller_k(shape):
    """On ``sigma (+) tau`` every form at x splits into a sigma block and a
    tau block, so ``K(x, N) = min(K_sigma, K_tau)`` to ``SLACK * k_scale``
    of the sum, and the multiplicities add where the two K are equal: on
    the twin draws, where tau is sigma, and wherever else the two K tie to
    that slack.  Where they lie apart, the sum has the smaller one's
    multiplicity."""
    rng = np.random.default_rng(shape["seed"])
    field = shape["field"]
    g = random_graph(rng, n_max=shape["n_max"], d=shape["d1"], field=field)
    if shape["twin"]:
        h = g
    else:
        h = ConnectionGraph(shape["d2"], field, [(v, g.measure(v)) for v in g.vertex_ids],
                            [(u, v, w, random_unitary(rng, shape["d2"], field))
                             for u, v, w, _ in g.edge_list()])
    for loc, loc1, loc2 in zip(balls(direct_sum(g, h)), balls(g), balls(h)):
        bundle = curvature_bundle(loc)
        for n in (INF, 4.0, 0.7):
            (k, mult), (k1, m1), (k2, m2) = bundle.k(n), curvature(loc1, n), curvature(loc2, n)
            slack = SLACK * bundle.k_scale(k, k1, k2)
            assert abs(k - min(k1, k2)) <= slack, (loc.center, n, k, k1, k2)
            if abs(k1 - k2) <= slack:
                assert mult == m1 + m2, (loc.center, n, k1, k2)
            elif abs(k1 - k2) > MULTIPLICITY_GAP * abs(k):
                assert mult == (m1 if k1 < k2 else m2), (loc.center, n, k1, k2)


@PROPERTY_SETTINGS
@given(st.fixed_dictionaries({
    "d": st.integers(2, 3),
    "n_max": st.integers(3, 7),
    "seed": st.integers(0, 2**32 - 1),
}))
def test_cover_bounds_k_from_below(shape):
    """A permutation connection P, with ``P[i, pi(i)] = 1`` on the stored
    x -> y, is the d-sheeted cover with (x, i) ~ (y, pi(i)) (``helpers.cover``):
    the forms at x are sums of the cover's forms over the fibre of x.  So
    ``K_P(x, N) >= min_i K_cover((x, i), N)``, with equality where the
    cover's 2-balls of the fibre are pairwise disjoint, each to
    ``SLACK * k_scale``.  Scratch over 300 seeds: 2496 cases, the bound
    within 7.5e-15 of k_scale, 1068 disjoint cases equal within 9.2e-16.
    The orientation matters: with P^T the bound breaks
    (``test_covers.py::test_the_transposed_cover_breaks_the_bound``)."""
    rng = np.random.default_rng(shape["seed"])
    g = random_permutation_graph(rng, shape["n_max"], shape["d"])
    c = cover(g)
    for loc in balls(g):
        bundle = curvature_bundle(loc)
        sheets, disjoint = fibre_balls(c, loc.center, g.dimension)
        for n in (INF, 3.0):
            k, ks = bundle.k(n)[0], [curvature(sheet, n)[0] for sheet in sheets]
            slack = SLACK * bundle.k_scale(k, *ks)
            assert k >= min(ks) - slack, (loc.center, n, k, ks)
            if disjoint:
                assert k <= min(ks) + slack, (loc.center, n, k, ks)
