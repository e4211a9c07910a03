"""Curvature bounds the spectrum of the connection Laplacian, on whole graphs.

If ``K(x, N) >= K > 0`` at every vertex x, every positive eigenvalue of
``-Delta^sigma`` is at least ``N K / (N - 1)``, and at least K at N = inf
(Liu, Muench and Peyerimhoff): summing the curvature inequality against
mu over an eigenfunction with eigenvalue lambda gives
``lambda^2 >= lambda^2 / N + K lambda``.  This ties every per-vertex K to
one independent object, the dense Laplacian of the whole graph.
"""

import numpy as np
import pytest

from concurv import INF, ConnectionGraph, curvature, local_structure

from helpers import (_laplacian_sigma, connection_laplacian, random_balanced_graph, random_graph,
                     random_unitary)

GRID = (1.5, 2.0, 4.0, INF)
RESOLUTION = 1e-12   # relative to the largest eigenvalue


def spectrum(g: ConnectionGraph) -> np.ndarray:
    """The eigenvalues of ``-Delta^sigma``, self-adjoint for the mu-weighted
    inner product: those of ``M^(1/2) (-Delta) M^(-1/2)``, M the measures."""
    root = np.repeat(np.sqrt(g.index.measure), g.dimension)
    s = -root[:, None] * connection_laplacian(g) / root[None, :]
    assert np.max(np.abs(s - s.conj().T)) <= RESOLUTION * np.max(np.abs(s))
    return np.linalg.eigvalsh((s + s.conj().T) / 2)


def min_curvature(g: ConnectionGraph, n) -> float:
    return min(curvature(local_structure(g, x), n)[0] for x in g.vertex_ids)


def bound_holds(lam: np.ndarray, k: float, n) -> bool:
    """Every positive eigenvalue in ``lam`` is at least ``N k / (N - 1)``
    (k at N = inf), to RESOLUTION of the spectrum."""
    top = float(np.max(np.abs(lam)))
    bound = k if n == INF else n * k / (n - 1.0)
    return bool(np.all(lam[lam > RESOLUTION * top] >= bound - RESOLUTION * top))


def family(kind: str, size: int, d: int, rng, identity: bool = False) -> ConnectionGraph:
    """A torus, hypercube or complete graph with unit weights and measures,
    and Haar-random U(d) connections (identity ones if ``identity``)."""
    if kind == "torus":
        vertices = [f"t{i}_{j}" for i in range(size) for j in range(size)]
        pairs = [(f"t{i}_{j}", f"t{(i + di) % size}_{(j + dj) % size}")
                 for i in range(size) for j in range(size) for di, dj in ((1, 0), (0, 1))]
    elif kind == "hypercube":
        vertices = [format(b, f"0{size}b") for b in range(2 ** size)]
        pairs = [(format(b, f"0{size}b"), format(b | 1 << t, f"0{size}b"))
                 for b in range(2 ** size) for t in range(size) if not b & 1 << t]
    else:
        vertices = [f"k{a}" for a in range(size)]
        pairs = [(f"k{a}", f"k{b}") for a in range(size) for b in range(a + 1, size)]
    return ConnectionGraph(d, "complex", [(v, 1.0) for v in vertices],
                           [(u, v, 1.0, None if identity else random_unitary(rng, d))
                            for u, v in pairs])


def cases():
    """Random graphs and random balanced ones (d = 1..3), and the benchmark's
    families with U(2) connections, three Haar draws and the identity."""
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, d=1 + t % 3) for t in range(60)]
    graphs += [random_balanced_graph(rng, d=1 + t % 3) for t in range(60)]
    for kind, sizes in (("torus", (3, 4)), ("hypercube", (2, 3, 4)), ("complete", (3, 4, 5, 6))):
        for size in sizes:
            graphs += [family(kind, size, 2, rng) for _ in range(3)]
            graphs.append(family(kind, size, 2, rng, identity=True))
    return graphs


def test_connection_laplacian_matches_the_loop_form():
    rng = np.random.default_rng(12)
    for t in range(6):
        g = random_graph(rng, d=1 + t % 3)
        d = g.dimension
        f = {x: rng.normal(size=d) + 1j * rng.normal(size=d) for x in g.vertex_ids}
        got = connection_laplacian(g) @ np.concatenate([f[x] for x in g.index.ids])
        want = np.concatenate([_laplacian_sigma(g, f, x) for x in g.index.ids])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_positive_curvature_bounds_the_spectrum():
    """No violation, on the 104 of the 624 (graph, N) cases with min K > 0.
    Four hypercube-like graphs with identity connections attain the bound
    (to 1.5e-15); the least relative margin of the others is 2.6e-4.  With
    Haar connections, only the complete graphs have a case."""
    tested = 0
    for g in cases():
        lam = spectrum(g)
        for n in GRID:
            k = min_curvature(g, n)
            if k > 0:
                assert bound_holds(lam, k, n), (g.vertex_ids, n, k, lam[:3])
                tested += 1
    assert tested == 104


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_hypercube_attains_the_bound(dim):
    """On Q3 to Q5 with identity connections, K(inf) = 2 = lambda_1, so a K
    raised by 1e-6 fails the bound."""
    g = family("hypercube", dim, 1, None, identity=True)
    lam = spectrum(g)
    k = min_curvature(g, INF)
    assert abs(k - 2.0) <= 1e-12
    assert abs(lam[lam > RESOLUTION * lam.max()].min() - 2.0) <= 1e-12
    assert bound_holds(lam, k, INF)
    assert not bound_holds(lam, k + 1e-6, INF)
