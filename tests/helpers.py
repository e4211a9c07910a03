"""Random instance generators and small assertion helpers shared by the tests.

Every generator takes an explicit numpy Generator so sweeps are reproducible
from a single seed.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import concurv
from concurv import INF, ConnectionGraph, ValidationError, product_vertex, switch
from concurv.curvature import canonical_basis
from concurv.graphs import SLACK, EdgeIndex, _connections, local_structure
from concurv.hermitian import PINV_RTOL_SCALE, _lambda_min
from concurv.operators import _gamma2_array, delta_matrix


def pinv(m) -> np.ndarray:
    """numpy's SVD pseudoinverse with the library's cutoff: singular values
    at or below ``PINV_RTOL_SCALE * n * sigma_max`` are zeroed, n being the
    larger dimension of the input.  The reference for the library's eigh
    pseudoinverse (``hermitian._eigh_rank``)."""
    a = np.asarray(m, dtype=complex)
    # positional: the relative cutoff is ``rcond`` on numpy 1.x, which has
    # no ``rtol`` keyword, and numpy 2 reads it the same way
    return np.linalg.pinv(a, PINV_RTOL_SCALE * max(a.shape))


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


def near_balanced_graph(rng, eps: float) -> ConnectionGraph:
    """A d = 1 ``random_balanced_graph`` with each connection times
    ``exp(i eps h)``, h standard normal, drawn by the same rng in
    ``edge_list`` order: unbalanced by about eps, where K jumps (ROADMAP
    item 4's family)."""
    g = random_balanced_graph(rng, d=1)
    return ConnectionGraph(1, "complex", [(v, g.measure(v)) for v in g.vertex_ids],
                           [(u, v, w, s @ np.exp(1j * eps * rng.normal(size=(1, 1))))
                            for u, v, w, s in g.edge_list()])


def phase_triangle(theta: float) -> ConnectionGraph:
    """The d = 1 triangle a, b, c with unit weights and measures whose one
    connection sigma_ac = exp(i theta) is the only imbalance: near balance
    for small theta, where K(inf) at a is about theta^2 / 10."""
    return ConnectionGraph(1, "complex", [(v, 1.0) for v in "abc"],
                           [("a", "b", 1.0, None), ("b", "c", 1.0, None),
                            ("a", "c", 1.0, np.array([[np.exp(1j * theta)]]))])


def magnetic_lattice(side: int, phi: float, torus: bool = False) -> ConnectionGraph:
    """The side x side grid of vertices ``m{i}_{j}`` (a torus when ``torus``)
    with unit weights and measures, whose every plaquette has holonomy
    exp(i phi): the vertical edge (i, j) -> (i, j + 1) carries exp(i phi i)
    and the horizontal ones 1, except that on the torus the wrap edge
    (side - 1, j) -> (0, j) carries exp(-i phi side j).  The torus needs
    ``side^2 phi`` in 2 pi Z, so that its corner plaquette closes."""
    def vid(i, j):
        return f"m{i}_{j}"

    def phase(t):
        return np.array([[np.exp(1j * t)]])

    edges = []
    for i in range(side):
        for j in range(side):
            if j + 1 < side or torus:
                edges.append((vid(i, j), vid(i, (j + 1) % side), 1.0, phase(phi * i)))
            if i + 1 < side:
                edges.append((vid(i, j), vid(i + 1, j), 1.0, None))
            elif torus:
                edges.append((vid(i, j), vid(0, j), 1.0, phase(-phi * side * j)))
    vertices = [(vid(i, j), 1.0) for i in range(side) for j in range(side)]
    return ConnectionGraph(1, "complex", vertices, edges)


def scaled_rates(g: ConnectionGraph, s: float) -> ConnectionGraph:
    """g with every edge weight multiplied by s: every rate, and K(N), scale by s."""
    return ConnectionGraph(g.dimension, g.field, [(v, g.measure(v)) for v in g.vertex_ids],
                           [(u, v, w * s, sigma) for u, v, w, sigma in g.edge_list()])


def mixed_rates(g: ConnectionGraph, low: float, high: float) -> ConnectionGraph:
    """g with its edge weights multiplied by high and low in turn, in
    ``edge_list`` order."""
    return ConnectionGraph(g.dimension, g.field, [(v, g.measure(v)) for v in g.vertex_ids],
                           [(u, v, w * (low if k % 2 else high), sigma)
                            for k, (u, v, w, sigma) in enumerate(g.edge_list())])


def direct_sum(g: ConnectionGraph, h: ConnectionGraph) -> ConnectionGraph:
    """The connection ``sigma (+) tau`` on the graph that g and h share (the
    same vertices, measures, edges in order and weights): every edge carries
    the block diagonal ``diag(sigma_uv, tau_uv)``, so every form at a vertex
    splits into a g block and an h block."""
    d1, d2 = g.dimension, h.dimension
    vertices = [(v, g.measure(v)) for v in g.vertex_ids]
    assert vertices == [(v, h.measure(v)) for v in h.vertex_ids]
    edges = []
    for (u, v, w, s), (*uvw, t) in zip(g.edge_list(), h.edge_list(), strict=True):
        assert [u, v, w] == uvw
        block = np.zeros((d1 + d2, d1 + d2), dtype=complex)
        block[:d1, :d1], block[d1:, d1:] = s, t
        edges.append((u, v, w, block))
    field = "real" if g.field == "real" and h.field == "real" else "complex"
    return ConnectionGraph(d1 + d2, field, vertices, edges)


def random_permutation_graph(rng, n_max: int, d: int) -> ConnectionGraph:
    """A random graph (weights and measures from [0.5, 2]) with a random d x d
    permutation matrix on every edge."""
    g = random_graph(rng, n_max=n_max, d=1, field="real", identity_connections=True,
                     weight_range=(0.5, 2.0))
    return ConnectionGraph(d, "real", [(v, g.measure(v)) for v in g.vertex_ids],
                           [(u, v, w, np.eye(d)[rng.permutation(d)])
                            for u, v, w, _ in g.edge_list()])


def cover_vertex(x: str, i: int) -> str:
    return f"{x}.{i}"


def cover(g: ConnectionGraph) -> ConnectionGraph:
    """The d-sheeted covering graph of a permutation connection: with
    ``sigma_xy = P`` for the stored orientation x -> y and ``P[i, pi(i)] = 1``,
    ``(x, i)`` joins ``(y, pi(i))`` with the weight of xy, and every sheet of
    x has the measure of x.  The cover is a d = 1 graph with identity
    connections, and its forms at x sum over the fibre of x to those of g."""
    d = g.dimension
    vertices = [(cover_vertex(x, i), g.measure(x)) for x in g.vertex_ids for i in range(d)]
    edges = []
    for x, y, w, sigma in g.edge_list():
        pi = np.argmax(np.abs(sigma), axis=1)
        assert np.array_equal(sigma, np.eye(d)[pi]), "not a permutation connection"
        edges += [(cover_vertex(x, i), cover_vertex(y, pi[i]), w, None) for i in range(d)]
    return ConnectionGraph(1, "real", vertices, edges)


def fibre_balls(c: ConnectionGraph, x: str, d: int):
    """The balls of the d-sheeted cover c at the fibre of x, and whether
    their vertex sets are pairwise disjoint."""
    locs = [local_structure(c, cover_vertex(x, i)) for i in range(d)]
    sets = [{loc.center, *loc.s1, *loc.s2} for loc in locs]
    return locs, all(not sets[i] & sets[j] for i in range(d) for j in range(i))


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


def diagonal_torus(rng, side, edge=None, sigma=None):
    """The side x side torus ("ti_j") with random diagonal U(2) connections,
    any two of which commute; the stored edge ``edge`` carries ``sigma``."""
    def t(i, j):
        return f"t{i % side}_{j % side}"
    edges = []
    for i in range(side):
        for j in range(side):
            for uv in ((t(i, j), t(i + 1, j)), (t(i, j), t(i, j + 1))):
                s = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
                edges.append((*uv, 1.0, sigma if uv == edge else s))
    return ConnectionGraph(2, "complex", [(t(i, j), 1.0) for i in range(side)
                                          for j in range(side)], edges)


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


def count_calls(monkeypatch, fn) -> list:
    """Count the calls of a concurv function: ``fn`` is wrapped in every
    loaded concurv module that holds it, and each call appends to the
    returned list the center of its first argument, a ball (None for a
    function that does not take a ball first)."""
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(getattr(first, "center", None))
        return fn(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "concurv" and vars(module).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def force_k(monkeypatch, module, forced: dict):
    """Make ``module.curvature_bundle`` return records whose K(N) reads
    ``forced[N]`` at each N it names, and the computed K at every other N:
    a check on K forced to fail by the value it reads."""
    real = module.curvature_bundle

    def bundle(loc):
        e = real(loc)
        own = e.k
        object.__setattr__(e, "k", lambda n: (forced[n], 1) if n in forced else own(n))
        return e

    monkeypatch.setattr(module, "curvature_bundle", bundle)


def count_gamma2_assemblies(monkeypatch) -> list[str]:
    """Count the full 4*Gamma_2 assemblies, the calls of ``_gamma2_array``."""
    return count_calls(monkeypatch, _gamma2_array)


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


# -- reference evaluations of the forms and of K ------------------------------

def _vec(f, v: str, d: int) -> np.ndarray:
    try:
        val = f[v]
    except KeyError:
        raise ValidationError(f"function is undefined at vertex {v!r}") from None
    arr = np.atleast_1d(np.asarray(val))
    if arr.dtype != object:   # object arrays carry extended-precision scalars through
        arr = arr.astype(complex)
    if arr.shape != (d,):
        raise ValidationError(f"value at {v!r} has shape {arr.shape}, expected ({d},)")
    return arr


def _laplacian_sigma(g: ConnectionGraph, f, x: str) -> np.ndarray:
    d = g.dimension
    fx = _vec(f, x, d)
    acc = 0 * fx
    for y in g.neighbors(x):
        acc = acc + g.p(x, y) * (g.sigma(x, y) @ _vec(f, y, d) - fx)
    return acc


def connection_laplacian(g: ConnectionGraph) -> np.ndarray:
    """The dense nd x nd matrix of Delta^sigma on g, with the vertices in
    ``g.index`` order: ``(Delta f)(x) = sum_y p_xy (sigma_xy f(y) - f(x))``."""
    ix, d = g.index, g.dimension
    n = len(ix.ids)
    src = np.repeat(np.arange(n), np.diff(ix.indptr))
    out = np.zeros((n, d, n, d), dtype=complex)
    out[src, :, ix.nbr, :] = ix.rate[:, None, None] * ix.sigma
    out[np.arange(n), :, np.arange(n), :] -= np.bincount(src, ix.rate, n)[:, None, None] * np.eye(d)
    return out.reshape(n * d, n * d)


def _gamma_at(g: ConnectionGraph, f, h, x: str):
    d = g.dimension
    fx, hx = _vec(f, x, d), _vec(h, x, d)
    acc = 0.0 + 0.0j
    for y in g.neighbors(x):
        s = g.sigma(x, y)
        acc += g.p(x, y) * ((s @ _vec(f, y, d) - fx) @ np.conj(s @ _vec(h, y, d) - hx))
    return acc / 2.0


def gamma_forms(g: ConnectionGraph, f, h, x: str):
    """Gamma(f,h)(x), Gamma_2(f,h)(x) and Delta f(x), straight from the
    recursive definitions.

    This is the matrix-free oracle for the assembled operators: the values
    must match ``f^T M conj(h)`` for each form matrix.  f and h map vertex
    ids to K^d values and must be defined on the whole 2-ball of x.  Values
    given as object arrays of mpmath numbers are evaluated in mpmath, with
    the graph's double rates and connections taken as exact.
    """
    x = str(x)
    if x not in g:
        raise ValidationError(f"vertex {x!r} is not in the graph")
    gamma_fh = _gamma_at(g, f, h, x)
    delta_f = _laplacian_sigma(g, f, x)

    # Delta applied to the scalar function Gamma(f,h), then the two
    # correction terms Gamma(f, Delta h) and Gamma(Delta f, h).
    lap_gamma = 0.0 + 0.0j
    for y in g.neighbors(x):
        lap_gamma += g.p(x, y) * (_gamma_at(g, f, h, y) - gamma_fh)

    df_map = {v: _laplacian_sigma(g, f, v) for v in (x,) + g.neighbors(x)}
    dh_map = {v: _laplacian_sigma(g, h, v) for v in (x,) + g.neighbors(x)}
    gamma_f_dh = _gamma_at(g, f, dh_map, x)
    gamma_df_h = _gamma_at(g, df_map, h, x)

    gamma2_fh = (lap_gamma - gamma_f_dh - gamma_df_h) / 2.0
    return gamma_fh, gamma2_fh, delta_f


def q_reference(g: ConnectionGraph, x: str):
    """4*Q(x) as an mpmath matrix at the working precision, from the graph's
    double inputs taken as exact: 4*Gamma_2 comes entry by entry from
    :func:`gamma_forms` on unit functions, and the 2-sphere block is
    eliminated with an exact inverse.  Independent of every float64
    assembly."""
    import mpmath

    loc = local_structure(g, x)
    d, verts = loc.d, loc.vertices
    size, b1 = len(verts) * d, (loc.m + 1) * d
    units = []
    for k in range(size):
        f = {v: np.array([mpmath.mpf(0)] * d, dtype=object) for v in verts}
        f[verts[k // d]][k % d] = mpmath.mpf(1)
        units.append(f)
    g2 = mpmath.matrix(size, size)
    for i, fi in enumerate(units):
        for j, fj in enumerate(units):
            g2[i, j] = 4 * gamma_forms(g, fi, fj, x)[1]
    q = g2[:b1, :b1]
    if size > b1:
        c = g2[:b1, b1:]
        q = q - c * g2[b1:, b1:] ** -1 * c.H
    return q


REFERENCE_CUT = 1e-40   # at 50 digits: an eigenvalue this far below the scale is exactly zero


def _max_abs(m):
    return max(abs(m[i, j]) for i in range(m.rows) for j in range(m.cols))


@functools.cache
def _reference_record(g: ConnectionGraph, x: str, dps: int):
    """``(A_inf, v0)`` at x to ``dps`` digits, from the graph's double
    inputs taken as exact; built once per graph, vertex and ``dps``, so the
    callers only read it.

    4*Q comes from :func:`q_reference` and the canonical basis B0 makes
    ``S = B0 (4Q/2) B0^H``.  The kernel block a of S is eliminated on its
    eigendirections above ``REFERENCE_CUT * max|S|`` only, so an exactly
    zero a (a balanced ball) has rank 0.  v0 has the blocks
    ``sqrt(p_xyi) sigma_xyi^T``, and ``A_N = A_inf - (2/N) v0 v0^H``.
    """
    import mpmath

    with mpmath.workdps(dps):
        loc = local_structure(g, x)
        d, b1 = loc.d, (loc.m + 1) * loc.d
        q = q_reference(g, x)
        b = mpmath.eye(b1)
        v0 = mpmath.matrix(b1 - d, d)
        for i, y in enumerate(loc.s1):
            blk, sigma, root = (i + 1) * d, g.sigma(x, y), mpmath.sqrt(g.p(x, y))
            for k in range(d):
                for col in range(d):
                    b[k, blk + col] = mpmath.mpc(complex(sigma[k, col])).conjugate()
                    v0[blk - d + col, k] = root * mpmath.mpc(complex(sigma[k, col]))
                b[blk + k, blk + k] = 1 / root
        s = b * (q / 2) * b.H
        lam, u = mpmath.eighe(s[:d, :d])
        a_plus = mpmath.matrix(d, d)
        for j in range(d):
            if abs(lam[j]) > REFERENCE_CUT * _max_abs(s):
                a_plus += u[:, j] * u[:, j].H / lam[j]
        return s[d:, d:] - s[d:, :d] * a_plus * s[:d, d:], v0


def _reference_spectrum(a_inf, v0, n) -> list:
    """The ascending eigenvalues, by ``mpmath.eighe`` at the working
    precision, of ``A_N = A_inf - (2/N) v0 v0^H``."""
    import mpmath

    a_n = a_inf if n == INF else a_inf - (2 / mpmath.mpf(n)) * v0 * v0.H
    return sorted(mpmath.eighe(a_n, eigvals_only=True))


def curvature_reference(g: ConnectionGraph, x: str, n=INF, dps: int = 50) -> float:
    """K(N) at x to ``dps`` digits: the smallest eigenvalue of A_N from
    :func:`_reference_record`."""
    import mpmath

    with mpmath.workdps(dps):
        return float(_reference_spectrum(*_reference_record(g, x, dps), n)[0])


def multiplicity_reference(g: ConnectionGraph, x: str, ns, dps: int = 50) -> list[int]:
    """The multiplicity of K(N) at x for each N of ``ns``, by exact ties:
    the count of the eigenvalues of A_N at ``dps`` digits within
    ``REFERENCE_CUT`` of max|lambda| of the smallest."""
    import mpmath

    with mpmath.workdps(dps):
        record, counts = _reference_record(g, x, dps), []
        for n in ns:
            lam = _reference_spectrum(*record, n)
            cut = REFERENCE_CUT * max(abs(lam[0]), abs(lam[-1]))
            counts.append(sum(1 for v in lam if v - lam[0] <= cut))
        return counts


def n0_reference(g: ConnectionGraph, x: str, dps: int = 50) -> float:
    """The constancy threshold N0 at x to ``dps`` digits, by the formula of
    ``CurvatureBundle.n0`` on :func:`_reference_record`: with
    ``A_inf = U diag(lam) U^H`` and ``z = U^H v0``, inf when z is not zero
    on the eigenvalues equal to lam_1, else ``2 lambda_max(sum over the
    others of z_i^H z_i / (lam_i - lam_1))``.  Equal means within
    ``REFERENCE_CUT`` of max|lam|, and zero within it of max|z|."""
    import mpmath

    with mpmath.workdps(dps):
        a_inf, v0 = _reference_record(g, x, dps)
        lam, u = mpmath.eighe(a_inf)
        z = u.H * v0
        lam1, z_max = min(lam), _max_abs(z)
        m = mpmath.matrix(v0.cols, v0.cols)
        for i in range(len(lam)):
            zi = z[i, :]
            if lam[i] - lam1 > REFERENCE_CUT * _max_abs(lam):
                m += zi.H * zi / (lam[i] - lam1)
            elif _max_abs(zi) > REFERENCE_CUT * z_max:
                return INF
        return float(2 * max(mpmath.eighe(m, eigvals_only=True)))


def q_full_schur(local) -> np.ndarray:
    """4*Q(x) as the Schur complement of the 2-sphere block taken in the full
    (m+n+1)d matrix 4*Gamma_2: a reference for the md-size ``_q_array``."""
    g2 = _gamma2_array(local)
    b1 = (local.m + 1) * local.d
    c = g2[:b1, b1:]
    w = np.real(np.diag(g2)[b1:])
    q = g2[:b1, :b1] - (c / w) @ c.conj().T
    return (q + q.conj().T) / 2.0


def _dense_s(local) -> np.ndarray:
    """``B0 (Q/2) B0^H`` with the dense canonical basis and :func:`q_full_schur`."""
    b = canonical_basis(local)
    return b @ (q_full_schur(local) / 2.0) @ b.conj().T


def dense_kernel_condition(local) -> float:
    """How far eliminating the kernel block a can amplify float64 noise on
    the dense reference path: ``max(1, max|S|)`` over the smallest singular
    value of a that the SVD pseudoinverse inverts (1 if it inverts none)."""
    s = _dense_s(local)
    sv = np.linalg.svd(s[:local.d, :local.d], compute_uv=False)
    inverted = sv[sv > PINV_RTOL_SCALE * local.d * sv[0]]
    return max(1.0, float(np.abs(s).max())) / inverted.min() if inverted.size else 1.0


def curvature_dense(local, n=INF) -> tuple[float, int]:
    """K(N) and its multiplicity through the dense canonical basis B0 and the
    SVD pseudoinverse of the kernel block, from :func:`q_full_schur`: a
    reference for the implicit B0 and the eigh elimination of ``curvature``."""
    d = local.d
    b = canonical_basis(local)
    s = _dense_s(local)
    corr = s[d:, :d] @ pinv(s[:d, :d]) @ s[:d, d:]
    v0 = (b @ delta_matrix(local))[d:]
    a_n = s[d:, d:] - (corr + corr.conj().T) / 2.0 - (2.0 / float(n)) * (v0 @ v0.conj().T)
    return _lambda_min(np.linalg.eigvalsh(a_n))


# -- tuple rebuilds: the reference for graphs derived from a parent ---------
# Each derived graph used to be built by turning its parent into edge tuples
# and running the public constructor again; these are those rebuilds.  The
# derivations build from the parent's arrays and must match them bit for bit.

def switch_rebuild(g: ConnectionGraph, tau) -> ConnectionGraph:
    """switch(g, tau) through the constructor."""
    ids = g.vertex_ids

    def where(k):
        return f"tau({ids[k]!r})"

    taus = _connections([tau[v] for v in ids], g.dimension, where)[0]
    ix = g.index
    rows = g._stored_rows
    u, v = ix.nbr[ix.rev[rows]], ix.nbr[rows]
    switched = taus[u].conj().transpose(0, 2, 1) @ ix.sigma[rows] @ taus[v]
    field = g.field
    if field == "real" and np.abs(switched.imag).max(initial=0.0) > SLACK:
        field = "complex"
    edges = zip(ix.names[u], ix.names[v], ix.weight[rows].tolist(), switched)
    return ConnectionGraph(g.dimension, field, [(v, g.measure(v)) for v in ids], edges)


def add_edge_rebuild(g: ConnectionGraph, x: str, yi: str, yj: str, w_new: float = 1.0,
                     sigma_new=None) -> ConnectionGraph:
    """The graph of add_spherical_edge(g, x, yi, yj, w_new, sigma_new), through
    the constructor."""
    if sigma_new is None:
        sigma_new = g.sigma(yi, x) @ g.sigma(x, yj)
    edges = g.edge_list() + [(yi, yj, float(w_new), sigma_new)]
    field = g.field
    if field == "real" and float(np.max(np.abs(np.asarray(sigma_new).imag))) > SLACK:
        field = "complex"
    return ConnectionGraph(g.dimension, field, [(v, g.measure(v)) for v in g.vertex_ids], edges)


def merge_rebuild(g: ConnectionGraph, zk: str, zl: str) -> ConnectionGraph:
    """The graph of merge_s2(g, x, zk, zl), through the constructor."""
    merged = f"{zk}+{zl}"
    vertices = [(v, g.measure(v)) for v in g.vertex_ids if v not in (zk, zl)]
    vertices.append((merged, g.measure(zk) + g.measure(zl)))
    edges = []
    for u, v, w, s in g.edge_list():
        if {u, v} == {zk, zl}:
            continue
        if u in (zk, zl):
            edges.append((merged, v, w, s))
        elif v in (zk, zl):
            edges.append((u, merged, w, s))
        else:
            edges.append((u, v, w, s))
    return ConnectionGraph(g.dimension, g.field, vertices, edges)


def tensor_lift_rebuild(g: ConnectionGraph, d_left: int, d_right: int,
                        side: str) -> ConnectionGraph:
    """A factor lifted by a Kronecker identity, through the constructor."""
    edges = []
    for u, v, w, s in g.edge_list():
        lifted = np.kron(s, np.eye(d_right)) if side == "left" else np.kron(np.eye(d_left), s)
        edges.append((u, v, w, lifted))
    return ConnectionGraph(d_left * d_right, g.field,
                           [(v, g.measure(v)) for v in g.vertex_ids], edges)


def product_rebuild(g: ConnectionGraph, g2: ConnectionGraph, spec) -> ConnectionGraph:
    """cartesian_product(g, g2, spec), through the constructor."""
    if spec.lift == "tensor":
        d1, d2 = g.dimension, g2.dimension
        g, g2 = tensor_lift_rebuild(g, d1, d2, "left"), tensor_lift_rebuild(g2, d1, d2, "right")
    alpha, beta = spec.alpha, spec.beta
    vertices = [(product_vertex(x, x2), g.measure(x) * g2.measure(x2))
                for x in g.vertex_ids for x2 in g2.vertex_ids]
    edges = []
    for u, v, w, s in g.edge_list():
        for x2 in g2.vertex_ids:
            edges.append((product_vertex(u, x2), product_vertex(v, x2),
                          alpha * w * g2.measure(x2), s))
    for u2, v2, w, s in g2.edge_list():
        for x in g.vertex_ids:
            edges.append((product_vertex(x, u2), product_vertex(x, v2),
                          beta * w * g.measure(x), s))
    field = "real" if g.field == "real" and g2.field == "real" else "complex"
    return ConnectionGraph(g.dimension, field, vertices, edges)


def assert_same_graph(a: ConnectionGraph, b: ConnectionGraph):
    """a and b are the same graph bit for bit: every edge-index array (values,
    dtype, shape, read-only flag), the stored rows, the edge list in order,
    the document and the field."""
    assert (a.dimension, a.field) == (b.dimension, b.field)
    for name in EdgeIndex._fields:
        x, y = getattr(a.index, name), getattr(b.index, name)
        if not isinstance(x, np.ndarray):
            assert x == y, name
        elif x.dtype == object:
            assert x.tolist() == y.tolist(), name
        else:
            assert (x.dtype, x.shape, x.flags.writeable) == (y.dtype, y.shape, y.flags.writeable), name
            assert x.tobytes() == y.tobytes(), name
    assert a._stored_rows.tobytes() == b._stored_rows.tobytes()
    ea, eb = a.edge_list(), b.edge_list()
    assert [e[:3] for e in ea] == [e[:3] for e in eb]
    assert all(sa.tobytes() == sb.tobytes() for (*_, sa), (*_, sb) in zip(ea, eb))
    assert a.to_document() == b.to_document()


def relabel(g: ConnectionGraph, rng) -> tuple[ConnectionGraph, dict[str, str]]:
    """g with its vertices renamed to random distinct ids, so that id order
    differs from g's; returns the new graph and the renaming."""
    letters = list("abcdefgh")
    names = set()
    while len(names) < len(g.vertex_ids):
        names.add("".join(rng.choice(letters, size=int(rng.integers(1, 4)))))
    new = dict(zip(g.vertex_ids, rng.permutation(sorted(names)).tolist()))
    edges = [(new[u], new[v], w, s) for u, v, w, s in g.edge_list()]
    return ConnectionGraph(g.dimension, g.field,
                           [(new[v], g.measure(v)) for v in g.vertex_ids], edges), new


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
    "huge_weight": (_doc_text(_AB, '{"u": "a", "v": "b", "weight": 1e200}'), "rate w/mu"),
    "tiny_weight": (_doc_text(_AB, '{"u": "a", "v": "b", "weight": 1e-200}'), "rate w/mu"),
    "tiny_measure": (_doc_text('{"id": "a", "measure": 1e-300}, {"id": "b"}',
                               '{"u": "a", "v": "b"}'), "rate w/mu"),
}
# Graph documents whose connections would not fit MAX_CONNECTION_ENTRIES,
# with the expected message: to be rejected before anything is allocated, so
# only ever loaded with the connection stacking patched out.
OVERSIZED_DOCUMENTS = [
    ({"dimension": 100000, "vertices": [{"id": "a"}, {"id": "b"}],
      "edges": [{"u": "a", "v": "b"}]}, "'dimension' must be a positive integer up to 2048"),
    ({"dimension": 2048, "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
      "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}]}, "2 edges of dimension 2048 exceed"),
]
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
    "dimension_fractional": (_doc_text(_AB, "", dimension="2.7"), "'dimension' must be"),
    "dimension_string": (_doc_text(_AB, "", dimension='"2"'), "'dimension' must be"),
    "dimension_bool": (_doc_text(_AB, "", dimension="true"), "'dimension' must be"),
    "dimension_huge": (_doc_text(_AB, "", dimension="1e300"), "'dimension' must be"),
    "dimension_huge_integer": (_doc_text(_AB, "", dimension="1" + "0" * 30),
                               "'dimension' must be"),
    "weight_string": (_doc_text(_AB, '{"u": "a", "v": "b", "weight": "2"}'),
                      "'weight' must be a number"),
    "weight_bool": (_doc_text(_AB, '{"u": "a", "v": "b", "weight": true}'),
                    "'weight' must be a number"),
    "measure_string": (_doc_text('{"id": "a", "measure": "2"}, {"id": "b"}', ""),
                       "'measure' must be a number"),
    "measure_bool": (_doc_text('{"id": "a", "measure": true}, {"id": "b"}', ""),
                     "'measure' must be a number"),
    "sign_bool": (_doc_text(_AB, '{"u": "a", "v": "b", "sign": true}'), "'sign' must be 1 or -1"),
    "sign_float": (_doc_text(_AB, '{"u": "a", "v": "b", "sign": 1.0}'), "'sign' must be 1 or -1"),
    "sign_and_sigma": (_doc_text(_AB, '{"u": "a", "v": "b", "sign": -1, "sigma": [[[1, 0]]]}'),
                       "'sign' and 'sigma' are both given; give one"),
}
