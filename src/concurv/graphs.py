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
import numbers
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ValidationError

UNITARY_TOL = 1e-9      # reject connections further than this from unitary
REPROJECT_TOL = 1e-12   # deviations in (REPROJECT_TOL, UNITARY_TOL] get polar-projected
BALANCE_TOL = 1e-9      # non-tree connections must match I_d this closely
COMMUTE_TOL = 1e-9      # max |S T - T S| entry for two connections to commute
# Every rate w/mu must lie in [RATE_MIN, RATE_MAX]: the 2-ball matrices hold
# products of up to four rates, which then stay normal doubles.
RATE_MIN = 1e-60
RATE_MAX = 1e60
# A graph's stacked connections hold at most this many entries (E * d^2), so
# d is at most its square root, 2048.
MAX_CONNECTION_ENTRIES = 2**22


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _connections(mats: list, d: int, where, real: bool = False,
                 cells: bool = False) -> tuple[np.ndarray, bool]:
    """The connection rule: k matrices as one checked (k, d, d) complex
    stack, and whether every one of them is real.

    All k are converted by one ``np.array`` call into numbers (dtype kind
    i, u, f or c): strings, booleans and objects are refused, as is a
    matrix that is not d x d.  With ``cells`` each entry is a JSON
    ``[re, im]`` pair of real numbers, viewed as complex without
    arithmetic, so it is exactly the number written.  The stack is then
    checked by :func:`_check_unitary` (with ``real``, a connection with an
    imaginary entry is refused).  ``where(k)`` names matrix k in the error.
    """
    shape, kinds = ((len(mats), d, d, 2), "iuf") if cells else ((len(mats), d, d), "iufc")
    try:
        a = np.array(mats) if mats else np.empty(shape)
    except (TypeError, ValueError, OverflowError):  # ragged nesting
        a = None
    if a is None or a.shape != shape or a.dtype.kind not in kinds:
        # Only after the stacked conversion failed: find the matrix to blame.
        for k, mat in enumerate(mats):
            try:
                m = np.array(mat)
            except (TypeError, ValueError, OverflowError):
                m = np.array(None)  # ragged: an object, so malformed below
            if m.dtype.kind not in kinds or cells and m.shape[2:] != (2,):
                raise ValidationError(
                    f"{where(k)}: malformed sigma, expected a {d} x {d} matrix of numbers "
                    "([re, im] pairs in a document)")
            got = m.shape[:2] if cells else m.shape
            if got != (d, d):
                raise ValidationError(f"{where(k)}: sigma has shape {got}, expected ({d}, {d})")
        raise ValidationError("malformed sigma: the connections do not stack")
    if cells:
        s = np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    else:
        s = a.astype(complex, copy=False)
    return _check_unitary(s, where, real)


def _check_unitary(s: np.ndarray, where, real: bool = False) -> tuple[np.ndarray, bool]:
    """Validate a (k, d, d) stack of connection matrices in one pass, and
    judge whether all are real: every imaginary part within UNITARY_TOL.

    Rows within UNITARY_TOL of unitary are accepted, and those further than
    REPROJECT_TOL from it are replaced by their polar projection; with
    ``real`` set, rows that are not real are rejected too.  The first
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
    imag = np.abs(s.imag).max(axis=(1, 2)) > UNITARY_TOL
    fail = bad | (imag & real)
    if fail.any():
        k = int(np.argmax(fail))
        if bad[k]:
            raise ValidationError(
                f"{where(k)}: sigma is not unitary, "
                f"|sigma sigma^H - I| = {dev[k]:.3e} > {UNITARY_TOL:.1e}")
        raise ValidationError(f"{where(k)}: field='real' but sigma has imaginary entries")
    return s, not imag.any()


class EdgeIndex(NamedTuple):
    """Integer index of a graph's oriented edges, in CSR (compressed sparse
    row) form: the graph's only adjacency.

    Vertex k is ``ids[k]`` with measure ``measure[k]``; ids are sorted, so
    position order is id order.  The oriented edges leaving vertex k are rows
    ``indptr[k]:indptr[k + 1]``, sorted by neighbor position; row e goes to
    ``nbr[e]`` with weight ``weight[e]``, rate ``rate[e] = w / mu`` of its
    source and connection ``sigma[e]`` (d x d, read-only), and ``rev[e]`` is
    the row of the reverse orientation.
    """

    ids: tuple[str, ...]
    names: np.ndarray      # ids as an object array, for gathering by position
    pos: dict[str, int]
    measure: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    weight: np.ndarray
    rate: np.ndarray
    rev: np.ndarray
    sigma: np.ndarray


def _edge_name(ids, u, v):
    """``where`` for stored edge k, given the endpoint positions u, v in ids."""
    return lambda k: f"edge ({ids[u[k]]!r}, {ids[v[k]]!r})"


def _edge_index(ids, mu, u, v, w, s):
    """The edge index of a graph in :meth:`ConnectionGraph._arrays`'s form
    (``ids`` in any order), and the rows of its stored orientations.  Every
    graph is indexed here, so here every measure, then every weight, is
    checked to be positive and finite, and then w/mu_u and w/mu_v to lie in
    [RATE_MIN, RATE_MAX]."""
    edge = _edge_name(ids, u, v)
    for values, name in ((mu, lambda k: f"vertex {ids[k]!r}: measure"),
                         (w, lambda k: f"{edge(k)}: weight")):
        bad = ~((values > 0) & (values < math.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"{name(k)} must be positive and finite, got {float(values[k])}")
    n_e = u.size
    with np.errstate(over="ignore"):  # an infinite rate fails below
        rates = np.concatenate([w / mu[u], w / mu[v]])
    bad = ~((rates >= RATE_MIN) & (rates <= RATE_MAX))
    if bad.any():
        k = int(np.argmax(bad.reshape(2, n_e).any(axis=0)))
        raise ValidationError(
            f"{edge(k)}: rate w/mu = {rates[k if bad[k] else k + n_e]:.3e} "
            f"is outside [{RATE_MIN:.0e}, {RATE_MAX:.0e}]")
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    rank = np.argsort(order)   # a position's rank by id, its position from here on
    ids, mu = tuple(ids[k] for k in order), mu[order]
    # Oriented edge k < n_e is stored edge k, k + n_e its reverse.
    src = rank[np.concatenate([u, v])]
    dst = rank[np.concatenate([v, u])]
    order = np.argsort(src * len(ids) + dst)    # by source, then by neighbor
    src, dst = src[order], dst[order]
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    indptr = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=len(ids)), out=indptr[1:])
    weight = np.concatenate([w, w])[order]
    rate = rates[order]
    rev = back[(order + n_e) % max(2 * n_e, 1)]
    sigma = np.concatenate([s, s.conj().transpose(0, 2, 1)])[order]
    for arr in (mu, indptr, dst, weight, rate, rev, sigma):
        arr.setflags(write=False)
    names = np.array(ids, dtype=object)
    pos = {vid: k for k, vid in enumerate(ids)}
    index = EdgeIndex(ids, names, pos, mu, indptr, dst, weight, rate, rev, sigma)
    return index, back[:n_e]


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _dimension(d) -> int:
    """d as a connection dimension: an integer (not a bool), positive and
    small enough for one d x d connection to fit MAX_CONNECTION_ENTRIES."""
    if not _is_integer(d):
        raise ValidationError(f"'dimension' must be an integer, got {d!r}")
    limit = math.isqrt(MAX_CONNECTION_ENTRIES)
    if not 1 <= d <= limit:
        raise ValidationError(f"'dimension' must be a positive integer up to {limit}, got {d}")
    return int(d)


def _as_number(value, where) -> float:
    """Outside input as a float by :func:`_number`'s rule; ``where()`` names it."""
    try:
        return _number(value)
    except (TypeError, OverflowError):
        raise ValidationError(f"{where()} must be a number, got {value!r}") from None


def _check_size(n_edges: int, d: int) -> None:
    """Refuse, before anything is allocated, a graph whose stacked
    connections would exceed MAX_CONNECTION_ENTRIES."""
    if n_edges * d * d > MAX_CONNECTION_ENTRIES:
        raise ValidationError(
            f"{n_edges} edges of dimension {d} exceed the limit of "
            f"{MAX_CONNECTION_ENTRIES} stacked connection entries (E * d^2)")


def _checked(d: int, field, ids: list, mu: list, ends: list, w: list, given: list,
             sigmas: list, cells: bool = False):
    """Converted graph input, checked, in :meth:`ConnectionGraph._arrays`'s
    form.  ``ends`` are the edges' (u, v) id pairs; ``sigmas`` are the
    connections of the edges in ``given``, the others being I_d, converted
    by :func:`_connections` (``cells`` as there).  The
    constructor and :func:`load_graph` both end here, so their faults come
    in one order: field, duplicate id, edge structure (unknown endpoint,
    self-loop, duplicate pair), size, connection shape, unitarity, and last,
    in :func:`_edge_index`, measures, weights and rates."""
    if field not in ("real", "complex"):
        raise ValidationError(f"field must be 'real' or 'complex', got {field!r}")
    pos: dict[str, int] = {}
    for vid in ids:
        if vid in pos:
            raise ValidationError(f"duplicate vertex id {vid!r}")
        pos[vid] = len(pos)
    pairs: set[tuple[str, str]] = set()
    at: list[int] = []
    for u, v in ends:
        if u not in pos or v not in pos:
            raise ValidationError(f"edge ({u!r}, {v!r}): unknown endpoint")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u!r} is not allowed")
        pair = (u, v) if u < v else (v, u)
        if pair in pairs:
            raise ValidationError(f"duplicate edge ({u!r}, {v!r})")
        pairs.add(pair)
        at += pos[u], pos[v]
    _check_size(len(ends), d)
    u, v = np.array(at, dtype=np.intp).reshape(-1, 2).T
    where = _edge_name(ids, u, v)
    s = np.empty((len(ends), d, d), dtype=complex)
    s[:] = np.eye(d)
    s[given] = _connections(sigmas, d, lambda j: where(given[j]), field == "real", cells)[0]
    return tuple(ids), np.array(mu, dtype=float), u, v, np.array(w, dtype=float), s


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
        Vertex ids are strings; measures are positive, finite numbers.
    edges : iterable of (u, v, weight, sigma)
        One entry per undirected edge, giving the connection for the stored
        orientation u -> v.  ``sigma=None`` means the identity; any other
        sigma is taken by the connection rule of :func:`_connections`.

    ``index`` is the graph's :class:`EdgeIndex`, built once here; graphs are
    immutable, so it never goes stale.  It is the only adjacency: every
    query below reads it.

    Measures and weights must be numbers by :func:`load_graph`'s rule, and
    :func:`_checked` then checks the input as it does a document's.  Graphs
    derived from a validated one are built from its arrays by
    :meth:`_from_arrays` and check only the values they compute.
    """

    __slots__ = ("dimension", "field", "index", "_stored_rows")

    def __init__(self, dimension: int, field: str,
                 vertices: Iterable[tuple[str, float]],
                 edges: Iterable[tuple[str, str, float, np.ndarray | None]]):
        d = _dimension(dimension)
        ids, mu = [], []
        for vid, m in vertices:
            vid = str(vid)
            ids.append(vid)
            mu.append(_as_number(m, lambda: f"vertex {vid!r}: measure"))
        ends, weights, given, sigmas = [], [], [], []
        for u, v, w, sigma in edges:
            u, v = str(u), str(v)
            weights.append(_as_number(w, lambda: f"edge ({u!r}, {v!r}): weight"))
            if sigma is not None:
                given.append(len(ends))
                sigmas.append(sigma)
            ends.append((u, v))
        arrays = _checked(d, field, ids, mu, ends, weights, given, sigmas)
        self.dimension, self.field = d, field
        self.index, self._stored_rows = _edge_index(*arrays)

    @classmethod
    def _from_arrays(cls, dimension, field, ids, mu, u, v, w, s) -> ConnectionGraph:
        """A graph from parts already checked, in :meth:`_arrays`'s form with
        ``ids`` in any order; only the measures, weights and rates are
        checked, by _edge_index."""
        g = cls.__new__(cls)
        g.dimension, g.field = dimension, field
        g.index, g._stored_rows = _edge_index(ids, mu, u, v, w, s)
        return g

    def _arrays(self):
        """``(ids, mu, u, v, w, s)``: vertex k is ``ids[k]`` with measure
        ``mu[k]``; stored edge k, in input order, joins positions ``u[k]`` ->
        ``v[k]`` with weight ``w[k]`` and connection ``s[k]`` (read-only)."""
        ix, rows = self.index, self._stored_rows
        s = ix.sigma[rows]
        s.setflags(write=False)
        return ix.ids, ix.measure, ix.nbr[ix.rev[rows]], ix.nbr[rows], ix.weight[rows], s

    # -- accessors ---------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self.index.ids

    def __contains__(self, v: str) -> bool:
        return v in self.index.pos

    def measure(self, v: str) -> float:
        return float(self.index.measure[self.index.pos[v]])

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
        """Stored-orientation edges as (u, v, weight, sigma), in input order."""
        _, _, u, v, w, s = self._arrays()
        names = self.index.names
        return list(zip(names[u].tolist(), names[v].tolist(), w.tolist(), s))

    def to_document(self) -> dict:
        """JSON-serializable document (see the graph schema in the README)."""
        edges = []
        for u, v, w, s in self.edge_list():
            entry: dict = {"u": u, "v": v, "weight": w}
            # an omitted sigma reloads as exactly I, so only I itself is omitted
            if not np.array_equal(s, np.eye(self.dimension)):
                entry["sigma"] = [[[e.real, e.imag] for e in row] for row in np.asarray(s)]
            edges.append(entry)
        return {
            "dimension": self.dimension,
            "field": self.field,
            "vertices": [{"id": v, "measure": m}
                         for v, m in zip(self.vertex_ids, self.index.measure.tolist())],
            "edges": edges,
        }


def _raw_sigma(entry: Mapping, d: int, where: str):
    """The connection of an edge with a 'sigma' or a 'sign' (not both), as
    rows of [re, im] cells, still unconverted."""
    if "sign" not in entry:
        return entry["sigma"]
    if "sigma" in entry:
        raise ValidationError(f"{where}: 'sign' and 'sigma' are both given; give one")
    if d != 1:
        raise ValidationError(f"{where}: 'sign' shorthand is only valid for dimension 1")
    sign = entry["sign"]
    if not _is_integer(sign) or sign not in (1, -1):
        raise ValidationError(f"{where}: 'sign' must be 1 or -1, got {sign!r}")
    return [[[sign, 0]]]


def load_graph(document) -> ConnectionGraph:
    """Parse and validate a graph document (JSON text, UTF-8 bytes or an
    already-parsed dict).

    Schema::

        { "dimension": 2, "field": "complex",
          "vertices": [ {"id": "1", "measure": 1.0}, ... ],
          "edges":    [ {"u": "2", "v": "3", "weight": 1.0,
                         "sigma": [[[0,0],[0,1]],[[0,-1],[0,0]]] }, ... ] }

    sigma is row-major with entries [re, im], exactly two numbers each; an
    omitted sigma means the identity, and for dimension-1 graphs
    ``"sign": 1 | -1`` is accepted instead (not as well).  Measure and
    weight default to 1.0 when omitted.  Each value is converted once, all
    sigmas by a single call, and :func:`_checked` then checks the graph as
    it does the constructor's.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"document is not UTF-8 text: {exc}") from None
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ValidationError("graph document must be a JSON object")
    if "dimension" not in document:
        raise ValidationError("graph document is missing 'dimension'")
    d = _dimension(document["dimension"])
    ids, mu = [], []
    for k, v in enumerate(_entries(document, "vertices")):
        try:
            vid, m = str(v["id"]), _number(v.get("measure", 1.0))
        except _BAD_ENTRY:
            raise _malformed(f"vertex #{k}", v, ("id",), "measure") from None
        ids.append(vid)
        mu.append(m)
    ends, weights, given, raws = [], [], [], []
    for k, entry in enumerate(_entries(document, "edges")):
        try:
            u, v, w = str(entry["u"]), str(entry["v"]), _number(entry.get("weight", 1.0))
        except _BAD_ENTRY:
            raise _malformed(f"edge #{k}", entry, ("u", "v"), "weight") from None
        ends.append((u, v))
        weights.append(w)
        if "sigma" in entry or "sign" in entry:
            given.append(k)
            raws.append(_raw_sigma(entry, d, f"edge ({u!r}, {v!r})"))
    field = document.get("field", "complex")
    return ConnectionGraph._from_arrays(d, field, *_checked(
        d, field, ids, mu, ends, weights, given, raws, cells=True))


# What converting a malformed entry raises: a missing key, a non-object entry,
# or a value _number rejects.
_BAD_ENTRY = (KeyError, TypeError, ValueError, OverflowError)


def _number(value) -> float:
    """A JSON number as a float; float() would also take a string or a bool."""
    if type(value) is not float and (  # a float skips the slower ABC check
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


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
    (0 for the center, 1 + j for y_j, 1 + m + k for z_k), ``edge_p`` the
    rate p_y_iv and ``edge_sigma`` the connection sigma_y_iv.  The entries
    are sorted by (col, row), so the first m end at the center, one per y_i
    in order, and each y_i's edges come center first, then 1-sphere, then
    2-sphere.  The arrays are the ball's only form: there is no per-edge
    dictionary view.
    """

    __slots__ = ("center", "s1", "s2", "d", "m", "n", "dx_over_mux", "p_x", "sigma_x",
                 "edge_row", "edge_col", "edge_p", "edge_sigma")

    def __init__(self, center: str, s1: tuple[str, ...], s2: tuple[str, ...], d: int,
                 p_x: np.ndarray, sigma_x: np.ndarray, edge_row: np.ndarray,
                 edge_col: np.ndarray, edge_p: np.ndarray, edge_sigma: np.ndarray):
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
        edge_row=row, edge_col=col, edge_p=ix.rate[e], edge_sigma=ix.sigma[e],
    )


def _ball_graph(g: ConnectionGraph, x: str) -> ConnectionGraph:
    """g cut down to the 2-ball of x: its edges with an end at x or in x's
    1-sphere, on the vertices they reach.  Every rate and connection of the
    ball is copied, so x has the same :class:`LocalStructure` in both
    graphs; an unknown or isolated x is refused as by :func:`local_structure`."""
    loc = local_structure(g, x)
    ids, mu, u, v, w, s = g._arrays()
    inner = np.zeros(len(ids), dtype=bool)
    inner[[g.index.pos[y] for y in (loc.center,) + loc.s1]] = True
    keep = inner[u] | inner[v]
    ball, ends = np.unique(np.concatenate([u[keep], v[keep]]), return_inverse=True)
    return ConnectionGraph._from_arrays(g.dimension, g.field, tuple(g.index.names[ball]),
                                        mu[ball], *ends.reshape(2, -1), w[keep], s[keep])


def switch(g: ConnectionGraph, tau: Mapping[str, np.ndarray]) -> ConnectionGraph:
    """Re-gauge the connection: sigma_uv -> tau(u)^{-1} sigma_uv tau(v).

    tau must assign a unitary to every vertex; weights and measures are
    unchanged.  Switching preserves curvature and balance.  The result is
    real when g is and every switched connection is real (to UNITARY_TOL).
    """
    ids = g.vertex_ids
    for v in ids:
        if tau.get(v) is None:
            raise ValidationError(f"switching function is missing vertex {v!r}")

    def where(k):
        return f"tau({ids[k]!r})"

    taus, _ = _connections([tau[v] for v in ids], g.dimension, where)
    ids, mu, u, v, w, s = g._arrays()
    switched, real = _check_unitary(taus[u].conj().transpose(0, 2, 1) @ s @ taus[v],
                                    _edge_name(ids, u, v))
    field = "real" if g.field == "real" and real else "complex"
    return ConnectionGraph._from_arrays(g.dimension, field, ids, mu, u, v, w, switched)


def is_locally_balanced(local: LocalStructure) -> bool:
    """True iff some switching makes every connection in the ball the identity.

    Trivializes a spanning tree rooted at the center, then tests every
    connection against I_d to BALANCE_TOL.  The tree is the breadth-first
    one: the center has gauge I, each y_i the gauge sigma_xy_i^H, and each
    z_k the gauge sigma_z_ky_i sigma_xy_i^H through its in-ball edge with
    the smallest i.
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
    return bool(np.abs(switched - np.eye(d)).max() <= BALANCE_TOL)


def signature_groups_commute(g: ConnectionGraph, g2: ConnectionGraph) -> bool:
    """True iff every pair of edge connections from the two graphs commutes
    (to COMMUTE_TOL).

    Checking the generators suffices: products and inverses of pairwise
    commuting unitaries still commute.
    """
    if g.dimension != g2.dimension:
        raise ValidationError(
            f"dimension mismatch: {g.dimension} vs {g2.dimension}"
        )
    t = g2._arrays()[-1]
    if not t.size:
        return True
    # One broadcast commutator of each of g's connections with all of g2's.
    return not any(np.abs(s @ t - t @ s).max() > COMMUTE_TOL for s in g._arrays()[-1])
