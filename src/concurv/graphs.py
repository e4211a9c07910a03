"""Connection graphs: weighted graphs whose oriented edges carry unitary
matrices, plus local-structure extraction, switching and balance checks.

A connection assigns a d x d unitary sigma_uv to each oriented edge with
sigma_vu = sigma_uv^{-1} = conj(sigma_uv)^T; only one orientation is stored,
the reverse is always derived.  Graphs are immutable after construction and
all operations here are pure functions returning new objects.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ValidationError

UNITARY_TOL = 1e-9      # reject connections further than this from unitary
REPROJECT_TOL = 1e-12   # deviations in (REPROJECT_TOL, UNITARY_TOL] get polar-projected
BALANCE_TOL = 1e-9      # non-tree connections must match I_d this closely


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _stack(mats: list, d: int, where) -> np.ndarray:
    """The matrices as one (k, d, d) complex array, None meaning I_d.

    ``where(k)`` names entry k in the error raised for a matrix that does
    not convert or is not d x d.
    """
    given = [k for k, s in enumerate(mats) if s is not None]
    try:
        stacked = np.array([mats[k] for k in given] or np.empty((0, d, d)), dtype=complex)
    except (TypeError, ValueError, OverflowError):
        stacked = None
    if stacked is None or stacked.shape != (len(given), d, d):
        # Only after the stacked conversion failed: find the entry to blame.
        for k in given:
            try:
                shape = np.asarray(mats[k], dtype=complex).shape
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{where(k)}: sigma is not a numeric matrix") from None
            if shape != (d, d):
                raise ValidationError(
                    f"{where(k)}: sigma has shape {shape}, expected ({d}, {d})")
        raise ValidationError("connection matrices do not stack")
    if len(given) == len(mats):
        return stacked
    out = np.empty((len(mats), d, d), dtype=complex)
    out[:] = np.eye(d)
    out[given] = stacked
    return out


def _check_unitary(s: np.ndarray, where, real: bool = False) -> np.ndarray:
    """Validate a (k, d, d) stack of connection matrices in one pass.

    Rows within UNITARY_TOL of unitary are accepted, and those further than
    REPROJECT_TOL from it are replaced by their polar projection; with
    ``real`` set, rows with imaginary entries are rejected too.  The first
    failing row, in stack order, is named by ``where(k)`` in the error.
    """
    d = s.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows fail below
        dev = np.abs(s @ s.conj().transpose(0, 2, 1) - np.eye(d)).max(axis=(1, 2))
    bad = ~(dev <= UNITARY_TOL)  # also rejects NaN and infinite entries
    fix = np.flatnonzero((dev > REPROJECT_TOL) & ~bad)
    if fix.size:
        s = s.copy()
        s[fix] = _polar_unitary(s[fix])
    fail = bad
    if real:
        fail = bad | (np.abs(s.imag).max(axis=(1, 2)) > UNITARY_TOL)
    if fail.any():
        k = int(np.argmax(fail))
        if bad[k]:
            raise ValidationError(
                f"{where(k)}: sigma is not unitary, "
                f"|sigma sigma^H - I| = {dev[k]:.3e} > {UNITARY_TOL:.1e}")
        raise ValidationError(f"{where(k)}: field='real' but sigma has imaginary entries")
    return s


class EdgeIndex(NamedTuple):
    """Integer index of a graph's oriented edges, in CSR (compressed sparse
    row) form: the graph's only adjacency.

    Vertex k is ``ids[k]``; ids are sorted, so position order is id order.
    The oriented edges leaving vertex k are rows ``indptr[k]:indptr[k + 1]``,
    sorted by neighbor position; row e goes to ``nbr[e]`` with weight
    ``weight[e]``, rate ``rate[e] = w / mu`` of its source and connection
    ``sigma[e]`` (d x d, read-only), and ``rev[e]`` is the row of the reverse
    orientation.
    """

    ids: tuple[str, ...]
    names: np.ndarray      # ids as an object array, for gathering by position
    pos: dict[str, int]
    indptr: np.ndarray
    nbr: np.ndarray
    weight: np.ndarray
    rate: np.ndarray
    rev: np.ndarray
    sigma: np.ndarray


def _edge_index(mu: dict[str, float], stored: list[tuple[str, str, float]], s: np.ndarray):
    """The edge index over the stored edges and their (E, d, d) connections
    ``s``, and the rows of the stored orientations in input order."""
    ids = tuple(sorted(mu))
    pos = {v: k for k, v in enumerate(ids)}
    n_e = len(stored)
    u = np.fromiter((pos[a] for a, _, _ in stored), dtype=np.intp, count=n_e)
    v = np.fromiter((pos[b] for _, b, _ in stored), dtype=np.intp, count=n_e)
    w = np.fromiter((c for _, _, c in stored), dtype=float, count=n_e)
    mu_arr = np.fromiter((mu[k] for k in ids), dtype=float, count=len(ids))
    # Oriented edge k < n_e is stored edge k, k + n_e its reverse.
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.argsort(src * len(ids) + dst)    # by source, then by neighbor
    src, dst = src[order], dst[order]
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    indptr = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=len(ids)), out=indptr[1:])
    weight = np.concatenate([w, w])[order]
    rate = weight / mu_arr[src]
    rev = back[(order + n_e) % max(2 * n_e, 1)]
    sigma = np.concatenate([s, s.conj().transpose(0, 2, 1)])[order]
    for arr in (indptr, dst, weight, rate, rev, sigma):
        arr.setflags(write=False)
    names = np.array(ids, dtype=object)
    index = EdgeIndex(ids, names, pos, indptr, dst, weight, rate, rev, sigma)
    return index, back[:n_e]


def _dimension(d: int) -> int:
    if d < 1:
        raise ValidationError(f"dimension must be a positive integer, got {d}")
    return d


class ConnectionGraph:
    """Finite weighted graph with vertex measures and unitary edge connections.

    Parameters
    ----------
    dimension : int
        Dimension d of the connection matrices.
    field : {"real", "complex"}
        "real" restricts connections to real orthogonal matrices; computations
        still run in complex arithmetic either way.
    vertices : iterable of (id, measure)
        Vertex ids are strings; measures are strictly positive and finite.
    edges : iterable of (u, v, weight, sigma)
        One entry per undirected edge, giving the connection for the stored
        orientation u -> v.  ``sigma=None`` means the identity.

    ``index`` is the graph's :class:`EdgeIndex`, built once here; graphs are
    immutable, so it never goes stale.  It is the only adjacency: every
    query below reads it.

    The edges are checked one by one for structure (endpoints, self-loops,
    duplicates, weights), then their connections as one stacked array, so a
    structural fault anywhere is reported before a bad connection.
    """

    __slots__ = ("dimension", "field", "index", "_mu", "_edges", "_stored_rows")

    def __init__(self, dimension: int, field: str,
                 vertices: Iterable[tuple[str, float]],
                 edges: Iterable[tuple[str, str, float, np.ndarray | None]]):
        d = _dimension(int(dimension))
        if field not in ("real", "complex"):
            raise ValidationError(f"field must be 'real' or 'complex', got {field!r}")
        mu: dict[str, float] = {}
        for vid, m in vertices:
            vid = str(vid)
            if vid in mu:
                raise ValidationError(f"duplicate vertex id {vid!r}")
            m = float(m)
            if not (m > 0 and math.isfinite(m)):
                raise ValidationError(
                    f"vertex {vid!r}: measure must be positive and finite, got {m}")
            mu[vid] = m

        pairs: set[tuple[str, str]] = set()
        stored: list[tuple[str, str, float]] = []
        sigmas: list[np.ndarray | None] = []
        for entry in edges:
            u, v, w, sigma = entry
            u, v = str(u), str(v)
            if u not in mu or v not in mu:
                raise ValidationError(f"edge ({u!r}, {v!r}): unknown endpoint")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u!r} is not allowed")
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise ValidationError(f"duplicate edge ({u!r}, {v!r})")
            w = float(w)
            if not (w > 0 and math.isfinite(w)):
                raise ValidationError(
                    f"edge ({u!r}, {v!r}): weight must be positive and finite, got {w}")
            pairs.add(pair)
            stored.append((u, v, w))
            sigmas.append(sigma)

        def where(k):
            return f"edge ({stored[k][0]!r}, {stored[k][1]!r})"

        s = _check_unitary(_stack(sigmas, d, where), where, real=field == "real")
        self.dimension = d
        self.field = field
        self._mu = mu
        self._edges = tuple(stored)
        self.index, self._stored_rows = _edge_index(mu, stored, s)

    # -- accessors ---------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self.index.ids

    def __contains__(self, v: str) -> bool:
        return v in self._mu

    def measure(self, v: str) -> float:
        return self._mu[v]

    def _locate(self, u: str, v: str) -> int:
        """The CSR row of the oriented edge u -> v, found by bisection in u's
        sorted row; KeyError for a non-edge or an unknown vertex."""
        ix = self.index
        k, j = ix.pos[u], ix.pos[v]
        lo, hi = ix.indptr[k], ix.indptr[k + 1]
        e = lo + int(np.searchsorted(ix.nbr[lo:hi], j))
        if e == hi or ix.nbr[e] != j:
            raise KeyError((u, v))
        return e

    def neighbors(self, v: str) -> tuple[str, ...]:
        """The neighbors of v, sorted by id."""
        ix = self.index
        k = ix.pos[v]
        return tuple(ix.names[ix.nbr[ix.indptr[k]:ix.indptr[k + 1]]])

    def has_edge(self, u: str, v: str) -> bool:
        try:
            self._locate(u, v)
        except KeyError:
            return False
        return True

    def weight(self, u: str, v: str) -> float:
        return float(self.index.weight[self._locate(u, v)])

    def sigma(self, u: str, v: str) -> np.ndarray:
        return self.index.sigma[self._locate(u, v)]

    def p(self, u: str, v: str) -> float:
        """Transition rate w_uv / mu_u for the oriented edge u -> v."""
        return float(self.index.rate[self._locate(u, v)])

    def edge_list(self) -> list[tuple[str, str, float, np.ndarray]]:
        """Stored-orientation edges as (u, v, weight, sigma)."""
        return [(u, v, w, s) for (u, v, w), s in zip(self._edges, self._stored_sigma())]

    def _stored_sigma(self) -> np.ndarray:
        """The (E, d, d) connections of the stored orientations, in edge order
        (read-only)."""
        s = self.index.sigma[self._stored_rows]
        s.setflags(write=False)
        return s

    def to_document(self) -> dict:
        """JSON-serializable document (see the graph schema in the README)."""
        edges = []
        for u, v, w, s in self.edge_list():
            entry: dict = {"u": u, "v": v, "weight": w}
            if not np.allclose(s, np.eye(self.dimension), atol=0.0):
                entry["sigma"] = [[[e.real, e.imag] for e in row] for row in np.asarray(s)]
            edges.append(entry)
        return {
            "dimension": self.dimension,
            "field": self.field,
            "vertices": [{"id": v, "measure": self._mu[v]} for v in self.vertex_ids],
            "edges": edges,
        }


def _raw_sigma(entry: Mapping, d: int, where: str):
    """The connection of an edge with a 'sigma' or 'sign', as rows of
    [re, im] cells, still unconverted."""
    if "sign" in entry:
        if d != 1:
            raise ValidationError(f"{where}: 'sign' shorthand is only valid for dimension 1")
        sign = entry["sign"]
        if sign not in (1, -1):
            raise ValidationError(f"{where}: 'sign' must be 1 or -1, got {sign!r}")
        return [[[sign, 0]]]
    return entry["sigma"]


def _sigma_cells(raw) -> np.ndarray | None:
    """``raw`` as a numeric array, or None if it is ragged or not numbers."""
    try:
        a = np.array(raw)
    except (TypeError, ValueError, OverflowError):  # ragged nesting
        return None
    # A string or object array is no sigma, though float() would parse "1".
    return a if a.dtype.kind in "biuf" else None


def sigma_stack(raws: list, d: int, where) -> np.ndarray:
    """Connections given as JSON rows of [re, im] cells, as one (k, d, d)
    complex array: converted by a single call and viewed as complex without
    arithmetic, so entries are exactly the numbers written.  ``where(k)``
    names connection k in the error for one that is malformed."""
    a = _sigma_cells(raws) if raws else np.empty((0, d, d, 2))
    if a is None or a.shape != (len(raws), d, d, 2):
        # Only after the stacked conversion failed: find the edge to blame.
        for k, raw in enumerate(raws):
            cells = _sigma_cells(raw)
            if cells is None or cells.ndim != 3 or cells.shape[2] != 2:
                raise ValidationError(
                    f"{where(k)}: malformed sigma, expected d x d rows of [re, im]")
            if cells.shape[:2] != (d, d):
                raise ValidationError(
                    f"{where(k)}: sigma has shape {cells.shape[:2]}, expected ({d}, {d})")
        raise ValidationError("malformed sigma, expected d x d rows of [re, im]")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def load_graph(document) -> ConnectionGraph:
    """Parse and validate a graph document (JSON text or an already-parsed dict).

    Schema::

        { "dimension": 2, "field": "complex",
          "vertices": [ {"id": "1", "measure": 1.0}, ... ],
          "edges":    [ {"u": "2", "v": "3", "weight": 1.0,
                         "sigma": [[[0,0],[0,1]],[[0,-1],[0,0]]] }, ... ] }

    sigma is row-major with entries [re, im], exactly two numbers each; an
    omitted sigma means the identity, and for dimension-1 graphs
    ``"sign": 1 | -1`` is accepted.  Measure and weight default to 1.0 when
    omitted.  All sigmas are converted to one stacked array in a single call.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ValidationError("graph document must be a JSON object")
    try:
        d = int(document["dimension"])
    except KeyError:
        raise ValidationError("graph document is missing 'dimension'") from None
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"graph document: 'dimension' must be an integer, got {document['dimension']!r}"
        ) from None
    _dimension(d)
    field = document.get("field", "complex")
    vertices = []
    for k, v in enumerate(_entries(document, "vertices")):
        try:
            vertices.append((str(v["id"]), float(v.get("measure", 1.0))))
        except _BAD_ENTRY:
            raise _malformed(f"vertex #{k}", v, ("id",), "measure") from None
    edges, given, raws = [], [], []
    for k, entry in enumerate(_entries(document, "edges")):
        try:
            u, v, w = str(entry["u"]), str(entry["v"]), float(entry.get("weight", 1.0))
        except _BAD_ENTRY:
            raise _malformed(f"edge #{k}", entry, ("u", "v"), "weight") from None
        edges.append([u, v, w, None])
        if "sigma" in entry or "sign" in entry:
            given.append(k)
            raws.append(_raw_sigma(entry, d, f"edge ({u!r}, {v!r})"))

    def where(j):
        u, v = edges[given[j]][:2]
        return f"edge ({u!r}, {v!r})"

    for k, s in zip(given, sigma_stack(raws, d, where)):
        edges[k][3] = s
    return ConnectionGraph(d, field, vertices, edges)


# What converting a malformed entry raises: a missing key, a non-object entry,
# or a value float() rejects.
_BAD_ENTRY = (KeyError, TypeError, ValueError, OverflowError)


def _entries(document: Mapping, key: str) -> list:
    items = document.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(f"graph document: {key!r} must be a list")
    return items


def _malformed(where: str, entry, required: tuple[str, ...], number: str) -> ValidationError:
    """Name the field that made a document entry fail to convert."""
    if not isinstance(entry, Mapping):
        return ValidationError(f"{where} must be a JSON object, got {entry!r}")
    for key in required:
        if key not in entry:
            return ValidationError(f"{where} is missing {key!r}")
    return ValidationError(f"{where}: {number!r} must be a number, got {entry.get(number)!r}")


class LocalStructure:
    """The incomplete 2-ball around a center vertex.

    This is the entire input to any curvature computation at the center:
    the ordered 1-sphere and 2-sphere, the transition rates of every oriented
    edge inside the ball (edges between two 2-sphere vertices are dropped),
    and the restricted connection.  s1 and s2 are sorted by vertex id, and
    every matrix downstream uses that order.

    The ball is held as arrays.  ``p_x`` and ``sigma_x`` are the rates
    p_xy_i and connections sigma_xy_i, in 1-sphere order.  Every oriented
    edge y_i -> v leaving the 1-sphere inside the ball is one entry of the
    ``edge_*`` arrays: ``edge_row`` is i, ``edge_col`` the ball position of v
    (0 for the center, 1 + j for y_j, 1 + m + k for z_k), ``edge_p`` and
    ``edge_p_back`` the rates p_y_iv and p_vy_i, and ``edge_sigma`` the
    connection sigma_y_iv.  The entries are sorted by (col, row), so the
    first m end at the center, one per y_i in order, and each y_i's edges
    come center first, then 1-sphere, then 2-sphere.  The arrays are the
    ball's only form: there is no per-edge dictionary view.
    """

    __slots__ = ("center", "s1", "s2", "d", "m", "n", "dx_over_mux", "p_x", "sigma_x",
                 "edge_row", "edge_col", "edge_p", "edge_p_back", "edge_sigma")

    def __init__(self, center: str, s1: tuple[str, ...], s2: tuple[str, ...], d: int,
                 p_x: np.ndarray, sigma_x: np.ndarray, edge_row: np.ndarray,
                 edge_col: np.ndarray, edge_p: np.ndarray, edge_p_back: np.ndarray,
                 edge_sigma: np.ndarray):
        self.center = center
        self.s1 = s1
        self.s2 = s2
        self.d = int(d)
        self.m = len(s1)
        self.n = len(s2)
        self.p_x = p_x
        self.sigma_x = sigma_x
        self.edge_row = edge_row
        self.edge_col = edge_col
        self.edge_p = edge_p
        self.edge_p_back = edge_p_back
        self.edge_sigma = edge_sigma
        # summed left to right, as the rates are listed
        self.dx_over_mux = sum(p_x.tolist())

    @property
    def vertices(self) -> tuple[str, ...]:
        """Center, then 1-sphere, then 2-sphere: the basis order of all matrices."""
        return (self.center,) + self.s1 + self.s2


def local_structure(g: ConnectionGraph, x: str) -> LocalStructure:
    """Extract the incomplete 2-ball around x from the graph's edge index.

    Raises for an unknown or isolated center (curvature is undefined when the
    1-sphere is empty).  Edges joining two 2-sphere vertices are not included.
    """
    x = str(x)
    if x not in g:
        raise ValidationError(f"vertex {x!r} is not in the graph")
    ix = g.index
    c = ix.pos[x]
    lo, hi = ix.indptr[c], ix.indptr[c + 1]
    if lo == hi:
        raise ValidationError(f"vertex {x!r} is isolated; curvature is undefined for m = 0")
    s1 = ix.nbr[lo:hi]
    m = s1.size
    # The CSR rows of the 1-sphere, concatenated: every edge leaving it.
    starts = ix.indptr[s1]
    counts = ix.indptr[s1 + 1] - starts
    row = np.repeat(np.arange(m), counts)
    e = np.arange(row.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    far = ix.nbr[e]
    j = np.searchsorted(s1, far)
    in_s1 = s1[np.minimum(j, m - 1)] == far
    at_center = far == c
    s2 = np.sort(far[~(in_s1 | at_center)])
    first = np.ones(s2.size, dtype=bool)
    first[1:] = s2[1:] != s2[:-1]
    s2 = s2[first]
    col = np.where(in_s1, 1 + j, 1 + m + np.searchsorted(s2, far))
    col[at_center] = 0
    order = np.argsort(col * m + row)
    e, row, col = e[order], row[order], col[order]
    return LocalStructure(
        x, tuple(ix.names[s1]), tuple(ix.names[s2]), g.dimension,
        p_x=ix.rate[lo:hi], sigma_x=ix.sigma[lo:hi],
        edge_row=row, edge_col=col, edge_p=ix.rate[e], edge_p_back=ix.rate[ix.rev[e]],
        edge_sigma=ix.sigma[e],
    )


def switch(g: ConnectionGraph, tau: Mapping[str, np.ndarray]) -> ConnectionGraph:
    """Re-gauge the connection: sigma_uv -> tau(u)^{-1} sigma_uv tau(v).

    tau must assign a unitary to every vertex; weights and measures are
    unchanged.  Switching preserves curvature and balance.
    """
    ids = g.vertex_ids
    for v in ids:
        if tau.get(v) is None:
            raise ValidationError(f"switching function is missing vertex {v!r}")

    def where(k):
        return f"tau({ids[k]!r})"

    taus = _check_unitary(_stack([tau[v] for v in ids], g.dimension, where), where)
    ix = g.index
    rows = g._stored_rows
    u, v = ix.nbr[ix.rev[rows]], ix.nbr[rows]
    switched = taus[u].conj().transpose(0, 2, 1) @ ix.sigma[rows] @ taus[v]
    field = g.field
    # A complex tau may leave the real field even for a real graph.
    if field == "real" and np.abs(taus.imag).max(initial=0.0) > UNITARY_TOL:
        field = "complex"
    edges = [(a, b, w, s) for (a, b, w), s in zip(g._edges, switched)]
    return ConnectionGraph(g.dimension, field, [(v, g.measure(v)) for v in ids], edges)


def is_locally_balanced(local: LocalStructure, tol: float = BALANCE_TOL) -> bool:
    """True iff some switching makes every connection in the ball the identity.

    Trivializes a spanning tree rooted at the center, then tests every
    connection against I_d.  The tree is the breadth-first one: the center
    has gauge I, each y_i the gauge sigma_xy_i^H, and each z_k the gauge
    sigma_z_ky_i sigma_xy_i^H through its in-ball edge with the smallest i.
    """
    d, m = local.d, local.m
    row, col, s = local.edge_row, local.edge_col, local.edge_sigma
    gauge = np.empty((1 + m + local.n, d, d), dtype=complex)
    gauge[0] = np.eye(d)
    gauge[1:1 + m] = local.sigma_x.conj().transpose(0, 2, 1)
    # Entries are sorted by (col, row): a column's first entry has its smallest row.
    first = np.flatnonzero((col >= 1 + m) & np.r_[True, col[1:] != col[:-1]])
    gauge[col[first]] = s[first].conj().transpose(0, 2, 1) @ gauge[1 + row[first]]
    # gauge(y_i)^H sigma_y_iv gauge(v), with gauge(y_i)^H = sigma_xy_i
    switched = local.sigma_x[row] @ s @ gauge[col]
    return bool(np.abs(switched - np.eye(d)).max() <= tol)


def signature_groups_commute(g: ConnectionGraph, g2: ConnectionGraph,
                             tol: float = UNITARY_TOL) -> bool:
    """True iff every pair of edge connections from the two graphs commutes.

    Checking the generators suffices: products and inverses of pairwise
    commuting unitaries still commute.
    """
    if g.dimension != g2.dimension:
        raise ValidationError(
            f"dimension mismatch: {g.dimension} vs {g2.dimension}"
        )
    t = g2._stored_sigma()
    if not t.size:
        return True
    # One broadcast commutator of each of g's connections with all of g2's.
    return not any(np.abs(s @ t - t @ s).max() > tol for s in g._stored_sigma())
