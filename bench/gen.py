"""Seeded generators of connection-graph documents.

Every generator returns a JSON-ready graph document (see the schema in the
README); the benchmark hands it to the program only through ``load_graph``
or a file read by the CLI.  The same seed always gives the same document.
"""

from __future__ import annotations

import itertools

import numpy as np


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random d x d unitary: QR of a complex Gaussian with the phase fix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def diagonal_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random diagonal unitary; any two of them commute."""
    return np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d)))


def _sigma_json(s: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in s]


def document(d: int, vertices, edges, rng: np.random.Generator, connection) -> dict:
    """Graph document with unit measures and weights and one seeded
    connection per edge, drawn in the order the edges are listed."""
    return {
        "dimension": d,
        "field": "complex",
        "vertices": [{"id": v} for v in vertices],
        "edges": [{"u": u, "v": v, "sigma": _sigma_json(connection(rng, d))}
                  for u, v in edges],
    }


def torus_vertex(i: int, j: int, side: int) -> str:
    return f"t{i % side}_{j % side}"


def torus(side: int, d: int, seed: int, connection=haar_unitary) -> dict:
    """The side x side discrete torus (4-regular for side >= 3)."""
    rng = np.random.default_rng(seed)
    vertices = [torus_vertex(i, j, side) for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            edges.append((torus_vertex(i, j, side), torus_vertex(i + 1, j, side)))
            edges.append((torus_vertex(i, j, side), torus_vertex(i, j + 1, side)))
    return document(d, vertices, edges, rng, connection)


def hypercube_vertex(bits: int, k: int) -> str:
    return "h" + format(bits, f"0{k}b")


def hypercube(k: int, d: int, seed: int, connection=haar_unitary) -> dict:
    """The k-dimensional hypercube Q_k (2^k vertices, k-regular)."""
    rng = np.random.default_rng(seed)
    vertices = [hypercube_vertex(b, k) for b in range(2 ** k)]
    edges = [(hypercube_vertex(b, k), hypercube_vertex(b | (1 << t), k))
             for b in range(2 ** k) for t in range(k) if not b & (1 << t)]
    return document(d, vertices, edges, rng, connection)


def complete(n: int, d: int, seed: int, connection=haar_unitary) -> dict:
    """The complete graph K_n: the 2-sphere of every vertex is empty."""
    rng = np.random.default_rng(seed)
    vertices = [f"k{a}" for a in range(n)]
    edges = [(f"k{a}", f"k{b}") for a, b in itertools.combinations(range(n), 2)]
    return document(d, vertices, edges, rng, connection)


def cycle(n: int, d: int, seed: int, connection=haar_unitary) -> dict:
    """The cycle C_n."""
    rng = np.random.default_rng(seed)
    vertices = [f"c{a}" for a in range(n)]
    edges = [(f"c{a}", f"c{(a + 1) % n}") for a in range(n)]
    return document(d, vertices, edges, rng, connection)
