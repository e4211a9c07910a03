"""Curvature-monotone edits of the local structure around a vertex:
adding a spherical edge between two 1-sphere neighbors, and merging two
2-sphere vertices without common neighbors.

Adding a spherical edge with the balanced default connection
``sigma_yi_x sigma_x_yj`` never decreases the curvature when the center is
S1-in regular (equal inward rates p_yx); any other connection can move the
curvature either way.  Merging never decreases it, balanced or not.  Both
edits certify this through one procedure: neither touches an edge at x, so
B0 and v0 stay as they are, and A_N is ``B0 (4*Q/2) B0^H`` with its PSD
kernel block eliminated, less ``(2/N) v0 v0^H``.  That Schur complement is
monotone in Loewner order, so a PSD 4*Q difference, to SLACK of the two
matrices, means K falls at no N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, ValidationError
from .curvature import INF, curvature_bundle
from .graphs import (ConnectionGraph, LocalStructure, _as_number, _connections, _edge_name,
                     _one_ball)
from .hermitian import _psd_within

S1_IN_TOL = 1e-12   # relative spread of inward rates counted as equal


@dataclass(frozen=True)
class EditReport:
    """Curvature before/after one edit at the same vertex and N = inf.

    ``delta_psd`` reports whether the 4*Q difference of the 1-ball, after
    minus before, is PSD: the certificate that K falls at no N.
    """

    before: float
    after: float
    delta_psd: bool


def s1_in_regular(g: ConnectionGraph, x: str) -> bool:
    """True iff the inward rate p_yx is the same for every neighbor y of x,
    to S1_IN_TOL relative.  Raises as local_structure does for an unknown or
    isolated x."""
    return _s1_in_regular(_one_ball(g, x))


def _s1_in_regular(loc: LocalStructure) -> bool:
    """s1_in_regular on the 2-ball of x."""
    rates = loc.edge_p[:loc.m]  # the first m ball edges are y_i -> x
    return bool(rates.max() - rates.min() <= S1_IN_TOL * rates.max())


def add_spherical_edge(g: ConnectionGraph, x: str, yi: str, yj: str,
                       w_new: float = 1.0,
                       sigma_new: np.ndarray | None = None):
    """Add an edge between two non-adjacent neighbors of x.

    With ``sigma_new`` omitted, the connection defaults to the balanced
    choice ``sigma_yi_x sigma_x_yj`` closing a trivial triangle.  The report
    carries the curvature at N = inf before and after, and whether the 4*Q
    difference is PSD.  The 2-sphere blocks do not change, so that is the
    nonzero block of the 4*Gamma_2 difference.  Under the balanced default
    plus S1-in regularity it is PSD, so K cannot decrease at any N; a
    difference that is not PSD raises :class:`CrossCheckError`.  The new
    graph is real when g is and the new connection is real (to SLACK).
    """
    x, yi, yj = str(x), str(yi), str(yj)
    before_loc = _one_ball(g, x)   # rejects an unknown or isolated x
    if yi not in before_loc.s1 or yj not in before_loc.s1 or yi == yj:
        raise ValidationError(f"{yi!r} and {yj!r} must be two distinct neighbors of {x!r}")
    if g.has_edge(yi, yj):
        raise ValidationError(f"{yi!r} and {yj!r} are already adjacent")
    w_new = _as_number(w_new, lambda: f"new edge ({yi!r}, {yj!r}): weight")

    balanced_default = sigma_new is None
    if balanced_default:
        sigma_new = g.sigma(yi, x) @ g.sigma(x, yj)

    # The parent's arrays plus the new edge, whose connection alone is checked.
    ids, mu, u, v, w, s = g._arrays()
    u, v, w = np.append(u, g.index.pos[yi]), np.append(v, g.index.pos[yj]), np.append(w, w_new)
    where = _edge_name(ids, u[-1:], v[-1:])
    s_new, real = _connections([sigma_new], g.dimension, where)
    field = "real" if g.field == "real" and real else "complex"
    g_new = ConnectionGraph._from_arrays(g.dimension, field, ids, mu, u, v, w,
                                         np.concatenate([s, s_new]))

    checked = balanced_default and _s1_in_regular(before_loc)
    return g_new, _edit_report("balanced spherical edge", before_loc, _one_ball(g_new, x),
                               checked)


def merge_s2(g: ConnectionGraph, x: str, zk: str, zl: str):
    """Merge two 2-sphere vertices of x that share no neighbor.

    The merged vertex is named "zk+zl" and inherits the summed measure, the
    union of incident edges (weights add where both existed, which cannot
    happen here by the no-common-neighbor requirement) and the connection of
    whichever original edge each neighbor had.  Any edge between the two
    merged vertices is dropped; it lies outside the incomplete 2-ball.
    In ``4*Q = G11 - C diag(1/w) C^H`` the block G11 does not change, and
    4*Q gains ``C_k C_k^H / w_k + C_l C_l^H / w_l - (C_k + C_l)(C_k + C_l)^H
    / (w_k + w_l)``, which is PSD; so curvature at x cannot decrease, for
    any N.  A 4*Q difference that is not PSD raises :class:`CrossCheckError`.
    """
    x, zk, zl = str(x), str(zk), str(zl)
    loc = _one_ball(g, x)
    s2 = set(loc.s2)
    if zk not in s2 or zl not in s2 or zk == zl:
        raise ValidationError(f"{zk!r} and {zl!r} must be two distinct 2-sphere vertices of {x!r}")
    common = set(g.neighbors(zk)) & set(g.neighbors(zl))
    if common:
        raise ValidationError(
            f"{zk!r} and {zl!r} share neighbors {sorted(common)}; merging is undefined"
        )
    merged = f"{zk}+{zl}"
    if merged in g:
        raise ValidationError(f"merged vertex id {merged!r} already exists")

    # zk and zl become one vertex, listed last; the edge between them, now a
    # loop, is dropped.
    ids, mu, u, v, w, s = g._arrays()
    pair = [g.index.pos[zk], g.index.pos[zl]]
    rest = np.ones(len(ids), dtype=bool)
    rest[pair] = False
    to_new = np.cumsum(rest) - 1
    to_new[pair] = len(ids) - 2
    u, v = to_new[u], to_new[v]
    mu_new = np.append(mu[rest], g.measure(zk) + g.measure(zl))
    e = u != v
    g_new = ConnectionGraph._from_arrays(g.dimension, g.field, (*g.index.names[rest], merged),
                                         mu_new, u[e], v[e], w[e], s[e])
    return g_new, _edit_report("merging", loc, _one_ball(g_new, x), True)


def _edit_report(edit: str, before_loc: LocalStructure, after_loc: LocalStructure,
                 checked: bool) -> EditReport:
    """The report of one edit, from the ball before it and the ball after,
    whose 1-balls list the same vertices in the same order.  ``delta_psd``
    judges the 4*Q difference at SLACK of the two matrices; when
    ``checked``, a difference that is not PSD raises
    :class:`CrossCheckError`."""
    e_before, e_after = curvature_bundle(before_loc), curvature_bundle(after_loc)
    delta_psd = _psd_within(e_after.q2 - e_before.q2, e_after.q2, e_before.q2)
    if checked and not delta_psd:
        raise CrossCheckError(f"{edit} produced a non-PSD 4*Q difference")
    return EditReport(before=e_before.k(INF)[0], after=e_after.k(INF)[0], delta_psd=delta_psd)
