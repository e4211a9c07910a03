"""Random instance generators and small assertion helpers shared by the tests.

Every generator takes an explicit numpy Generator so sweeps are reproducible
from a single seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import concurv
from concurv import ConnectionGraph, switch


def random_unitary(rng, d: int, field: str = "complex") -> np.ndarray:
    if field == "real":
        if d == 1:
            return np.array([[rng.choice([-1.0, 1.0])]], dtype=complex)
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        return (q * np.sign(np.diag(r))).astype(complex)
    if d == 1:
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_graph(rng, n_max: int = 6, d: int = 1, field: str = "complex",
                 extra_edge_p: float = 0.35, identity_connections: bool = False,
                 weight_range=(0.6, 1.8)) -> ConnectionGraph:
    """Random connected-ish graph; vertex "1" always has at least one edge."""
    n = int(rng.integers(3, n_max + 1))
    ids = [str(k + 1) for k in range(n)]
    pairs = set()
    for k in range(1, n):
        j = int(rng.integers(0, k))
        pairs.add((ids[j], ids[k]))
    for a in range(n):
        for b in range(a + 1, n):
            e = (ids[a], ids[b])
            if e not in pairs and rng.uniform() < extra_edge_p:
                pairs.add(e)
    edges = []
    for u, v in sorted(pairs):
        sigma = None if identity_connections else random_unitary(rng, d, field)
        edges.append((u, v, rng.uniform(*weight_range), sigma))
    vertices = [(v, rng.uniform(*weight_range)) for v in ids]
    return ConnectionGraph(d, field, vertices, edges)


def random_balanced_graph(rng, n_max: int = 6, d: int = 1,
                          field: str = "complex") -> ConnectionGraph:
    """A balanced graph that does not look balanced: all-identity, re-gauged."""
    g = random_graph(rng, n_max=n_max, d=d, field=field, identity_connections=True)
    tau = {v: random_unitary(rng, d, field) for v in g.vertex_ids}
    return switch(g, tau)


def random_switching(rng, g: ConnectionGraph) -> dict[str, np.ndarray]:
    return {v: random_unitary(rng, g.dimension, "complex") for v in g.vertex_ids}


def random_s1_in_regular_graph(rng, d: int = 1, field: str = "complex"):
    """Center "x" with equal inward rates and at least one non-adjacent
    1-sphere pair; returns (graph, "x", yi, yj) with yi, yj non-adjacent."""
    m = int(rng.integers(3, 6))
    ys = [f"y{k}" for k in range(m)]
    mu = {"x": rng.uniform(0.6, 1.8)}
    for y in ys:
        mu[y] = rng.uniform(0.6, 1.8)
    rate_in = rng.uniform(0.5, 1.5)
    edges = []
    for y in ys:
        # w_xy = rate_in * mu_y makes p_yx = rate_in for every neighbor
        edges.append(("x", y, rate_in * mu[y], random_unitary(rng, d, field)))
    # spherical edges, always leaving ys[0], ys[1] non-adjacent
    for a in range(m):
        for b in range(a + 1, m):
            if (a, b) == (0, 1):
                continue
            if rng.uniform() < 0.35:
                edges.append((ys[a], ys[b], rng.uniform(0.6, 1.8),
                              random_unitary(rng, d, field)))
    # a couple of 2-sphere vertices
    for k in range(int(rng.integers(0, 3))):
        z = f"z{k}"
        mu[z] = rng.uniform(0.6, 1.8)
        attach = [y for y in ys if rng.uniform() < 0.5] or [ys[int(rng.integers(0, m))]]
        for y in attach:
            edges.append((y, z, rng.uniform(0.6, 1.8), random_unitary(rng, d, field)))
    g = ConnectionGraph(d, field, list(mu.items()), edges)
    return g, "x", ys[0], ys[1]


def random_merge_instance(rng, d: int = 1, field: str = "complex"):
    """Center "x" with two 2-sphere vertices that share no neighbor;
    returns (graph, "x", "za", "zb")."""
    m = int(rng.integers(2, 5))
    ys = [f"y{k}" for k in range(m)]
    mu = {"x": rng.uniform(0.6, 1.8)}
    edges = []
    for y in ys:
        mu[y] = rng.uniform(0.6, 1.8)
        edges.append(("x", y, rng.uniform(0.6, 1.8), random_unitary(rng, d, field)))
    for a in range(m):
        for b in range(a + 1, m):
            if rng.uniform() < 0.3:
                edges.append((ys[a], ys[b], rng.uniform(0.6, 1.8),
                              random_unitary(rng, d, field)))
    # za and zb attach to disjoint nonempty neighbor sets, so they cannot
    # share a neighbor
    split = int(rng.integers(1, m)) if m > 1 else 1
    group_a, group_b = ys[:split], ys[split:]
    mu["za"] = rng.uniform(0.6, 1.8)
    mu["zb"] = rng.uniform(0.6, 1.8)
    for y in group_a:
        if y == group_a[0] or rng.uniform() < 0.5:
            edges.append((y, "za", rng.uniform(0.6, 1.8), random_unitary(rng, d, field)))
    for y in group_b:
        if y == group_b[0] or rng.uniform() < 0.5:
            edges.append((y, "zb", rng.uniform(0.6, 1.8), random_unitary(rng, d, field)))
    g = ConnectionGraph(d, field, list(mu.items()), edges)
    return g, "x", "za", "zb"


def random_diagonal_graph(rng, n_max: int = 5) -> ConnectionGraph:
    """d = 2 graph whose connections are all diagonal unitaries (any two such
    graphs have commuting signature groups)."""
    g = random_graph(rng, n_max=n_max, d=2, identity_connections=True)
    edges = []
    for u, v, w, _ in g.edge_list():
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        edges.append((u, v, w, np.diag(phases)))
    return ConnectionGraph(2, "complex", [(v, g.measure(v)) for v in g.vertex_ids], edges)


def random_commuting_pair(rng):
    """A pair of graphs with commuting signature groups: either both
    1-dimensional or both with diagonal U(2) connections."""
    if rng.uniform() < 0.5:
        return (random_graph(rng, n_max=5, d=1, field="complex"),
                random_graph(rng, n_max=5, d=1, field="complex"))
    return random_diagonal_graph(rng), random_diagonal_graph(rng)


def random_function(rng, vertices, d: int) -> dict[str, np.ndarray]:
    return {v: rng.normal(size=d) + 1j * rng.normal(size=d) for v in vertices}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout's
    concurv, as a shell would."""
    src = str(Path(concurv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def ball_from_graph_loops(g: ConnectionGraph, x: str) -> SimpleNamespace:
    """The incomplete 2-ball of x read from the graph's accessors alone: the
    sorted spheres, and the rate ``p`` and connection ``sigma`` of every
    oriented in-ball edge (none between two 2-sphere vertices) as
    dictionaries keyed by (u, v); ``rate(u, v)`` is 0.0 for an absent edge.
    The loop oracles of the array code read the ball from here."""
    s1 = g.neighbors(x)
    s2 = tuple(sorted({u for y in s1 for u in g.neighbors(y)} - set(s1) - {x}))
    pairs = [(x, y) for y in s1]
    pairs += [(y, v) for y in s1 for v in g.neighbors(y) if v != x]
    p, sigma = {}, {}
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            p[(a, b)] = g.p(a, b)
            sigma[(a, b)] = g.sigma(a, b)
    return SimpleNamespace(
        center=x, d=g.dimension, s1=s1, s2=s2, m=len(s1), n=len(s2),
        vertices=(x,) + s1 + s2, p=p, sigma=sigma,
        dx_over_mux=sum(p[(x, y)] for y in s1),
        rate=lambda u, v: p.get((u, v), 0.0))


def assert_close(actual, expected, tol, label: str = ""):
    resid = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    assert resid <= tol, f"{label or 'residual'} {resid:.3e} > {tol:.1e}"


def _doc_text(vertices: str, edges: str, dimension: str = "1") -> str:
    return f'{{"dimension": {dimension}, "vertices": [{vertices}], "edges": [{edges}]}}'


_AB = '{"id": "a"}, {"id": "b"}'

# Graph documents, as JSON text, that load_graph must reject with a
# ValidationError, paired with a fragment of the expected message.
NON_FINITE_DOCUMENTS = {
    "nan_sigma": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[[NaN, 0]]]}'), "not unitary"),
    "inf_weight": (_doc_text(_AB, '{"u": "a", "v": "b", "weight": 1e400}'), "finite"),
    "inf_measure": (_doc_text('{"id": "a", "measure": 1e400}, {"id": "b"}',
                              '{"u": "a", "v": "b"}'), "finite"),
}
MALFORMED_DOCUMENTS = {
    "vertex_without_id": (_doc_text('{"measure": 1.0}', ""), "missing 'id'"),
    "vertex_not_object": (_doc_text('"a"', ""), "JSON object"),
    "vertices_not_list": ('{"dimension": 1, "vertices": 3}', "must be a list"),
    "edge_without_u": (_doc_text(_AB, '{"v": "b"}'), "missing 'u'"),
    "edge_without_v": (_doc_text(_AB, '{"u": "a"}'), "missing 'v'"),
    "weight_not_numeric": (_doc_text(_AB, '{"u": "a", "v": "b", "weight": "heavy"}'),
                           "'weight' must be a number"),
    "measure_not_numeric": (_doc_text('{"id": "a", "measure": [1]}, {"id": "b"}', ""),
                            "'measure' must be a number"),
    "dimension_not_numeric": (_doc_text(_AB, "", dimension='"two"'), "'dimension' must be"),
    "ragged_sigma": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[[1, 0], [0, 0]], [[0, 0]]]}',
                               dimension="2"), "malformed sigma"),
    "sigma_ragged_cells": (_doc_text(_AB, '{"u": "a", "v": "b", '
                                          '"sigma": [[[1, 0], [0, 0]], [[0, 0], [1]]]}',
                                     dimension="2"), "malformed sigma"),
    "sigma_cell_too_long": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[[1, 0, 5]]]}'),
                            "malformed sigma"),
    "sigma_cell_too_short": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[[1]]]}'),
                             "malformed sigma"),
    "sigma_string_cells": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[["1", "0"]]]}'),
                           "malformed sigma"),
    "sigma_null_cell": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[null]]}'),
                        "malformed sigma"),
    "sigma_null": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": null}'), "malformed sigma"),
    "sigma_wrong_size": (_doc_text(_AB, '{"u": "a", "v": "b", "sigma": [[[1, 0]]]}',
                                   dimension="2"), "sigma has shape"),
}
