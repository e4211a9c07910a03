"""Every raise that guards a computed result, reached.

No correct input trips these checks, so each test forces one: it patches
the value the check reads (a residual, a slack, K at some N, a PSD verdict,
a label) or, where an input can reach the raise, passes that input.  Each
asserts the exception type and its message, so a raise that is reworded,
retyped or made unreachable fails here.
"""

import importlib

import numpy as np
import pytest

from concurv import (INF, ConnectionGraph, CrossCheckError, ProductSpec, ValidationError,
                     add_spherical_edge, curvature_bundle, curvature_oracle, curvature_profile,
                     general_basis, local_structure, merge_s2, product_decomposition)
from concurv import local_ops, product
from concurv.fixtures import fixture_graph
from concurv.graphs import SLACK, _connections

from helpers import force_k, random_merge_instance, random_s1_in_regular_graph

curvature = importlib.import_module("concurv.curvature")   # the package binds the function

INJECTED = 1e-6   # a forced K is this far off, relative to the ball's k_scale


def g1_ball():
    """g1_u2 at vertex 1: K(1), K(2), K(3), K(inf) = -5/2, -1/2, 1/6, 3/2."""
    return local_structure(fixture_graph("g1_u2"), "1")


def off(loc, n: float, share: float) -> float:
    """K(n) of ``loc`` moved by ``share * INJECTED`` of its k_scale."""
    e = curvature_bundle(loc)
    k = e.k(n)[0]
    return k + share * INJECTED * e.k_scale(k)


def test_a_general_basis_residual_raises(monkeypatch):
    monkeypatch.setattr(curvature, "basis_residual", lambda loc, b: 2.0 * SLACK)
    with pytest.raises(CrossCheckError, match="general_basis produced relative residual 2.000e-09"):
        general_basis(g1_ball(), 0)


@pytest.mark.parametrize("slack, side", [(-np.inf, "below"), (np.inf, "above")])
def test_an_oracle_that_cannot_bracket_raises(slack, side, monkeypatch):
    """A PSD slack of -inf makes no K feasible, so the bracket never closes
    from below; one of +inf makes every K feasible, so it never closes from
    above.  Each end doubles through at most 64 feasibility tests, one
    eigensolve of the 2-ball matrix each; at +inf the lower end closes on
    its first.  The one other eigensolve, of 2 Gamma(x) for lambda_+, is
    counted apart."""
    loc = g1_ball()
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(curvature, "ORACLE_PSD_SLACK", slack)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    with pytest.raises(CrossCheckError, match=f"could not bracket K from {side}"):
        curvature_oracle(loc, INF)
    tests = {"below": 64, "above": 1 + 64}[side]
    assert sizes == [(loc.m + 1) * loc.d] + [(loc.m + loc.n + 1) * loc.d] * tests


def test_a_profile_that_falls_raises(monkeypatch):
    loc = g1_ball()
    force_k(monkeypatch, curvature, {2.0: off(loc, 1.0, -1.0)})
    with pytest.raises(CrossCheckError, match=r"not monotone: K\(1.0\)=-2.5 > K\(2.0\)"):
        curvature_profile(loc, [1.0, 2.0])


def test_a_profile_below_its_chord_raises(monkeypatch):
    """K(2) read just under the chord from K(1) to K(3), and still above
    K(1): monotone, but not concave."""
    loc = g1_ball()
    e = curvature_bundle(loc)
    chord = (e.k(1.0)[0] + e.k(3.0)[0]) / 2.0
    force_k(monkeypatch, curvature, {2.0: chord - INJECTED * e.k_scale(chord)})
    with pytest.raises(CrossCheckError, match="not concave at N=2.0"):
        curvature_profile(loc, [1.0, 2.0, 3.0])


def test_a_profile_that_moves_after_n0_raises(monkeypatch):
    """triangle_signed at A is constant from N0 = 8/3; K(3) read below
    K(inf) keeps the profile monotone but breaks the constancy."""
    loc = local_structure(fixture_graph("triangle_signed"), "A")
    force_k(monkeypatch, curvature, {3.0: off(loc, INF, -1.0)})
    with pytest.raises(CrossCheckError, match=r"constant from N0=2.66666666667 but K\(3.0\)"):
        curvature_profile(loc, [3.0, INF])


def test_a_balanced_addition_with_a_non_psd_difference_raises(monkeypatch):
    g, x, yi, yj = random_s1_in_regular_graph(np.random.default_rng(7))
    monkeypatch.setattr(local_ops, "_psd_within", lambda *mats: False)
    with pytest.raises(CrossCheckError, match="balanced spherical edge produced a non-PSD"):
        add_spherical_edge(g, x, yi, yj)


def test_a_merge_with_a_non_psd_difference_raises(monkeypatch):
    g, x, za, zb = random_merge_instance(np.random.default_rng(7))
    monkeypatch.setattr(local_ops, "_psd_within", lambda *mats: False)
    with pytest.raises(CrossCheckError, match=r"merging produced a non-PSD 4\*Q difference"):
        merge_s2(g, x, za, zb)


def test_a_merge_onto_an_existing_id_is_refused():
    g, x, za, zb = random_merge_instance(np.random.default_rng(7))
    taken = ConnectionGraph(g.dimension, g.field,
                            [(v, g.measure(v)) for v in g.vertex_ids] + [(f"{za}+{zb}", 1.0)],
                            g.edge_list())
    with pytest.raises(ValidationError, match=f"merged vertex id '{za}\\+{zb}' already exists"):
        merge_s2(taken, x, za, zb)


def test_an_unknown_lift_is_refused():
    with pytest.raises(ValidationError, match="unknown lift 'diagonal'"):
        ProductSpec(lift="diagonal")


def decompose():
    return product_decomposition(fixture_graph("triangle_signed"), fixture_graph("g2_signed"),
                                 ProductSpec(), "A", "1", INF, INF)


def test_a_product_ball_with_another_one_sphere_raises(monkeypatch):
    """The product ball read with one 1-sphere label renamed."""
    real = product._one_ball

    def renamed(g, x):
        loc = real(g, x)
        if product.SEPARATOR in x:
            loc.s1 = loc.s1[:-1] + ("elsewhere",)
        return loc

    monkeypatch.setattr(product, "_one_ball", renamed)
    with pytest.raises(CrossCheckError, match="product 1-sphere does not match"):
        decompose()


@pytest.mark.parametrize("name, verdicts", [("R", [False]), ("J", [True, False])])
def test_a_product_term_that_is_not_psd_raises(name, verdicts, monkeypatch):
    """R is judged first, then J."""
    answers = iter(verdicts)
    monkeypatch.setattr(product, "_psd_within", lambda *mats: next(answers))
    with pytest.raises(CrossCheckError, match=fr"^{name}\(x, x'\) is not PSD: lambda_min = "):
        decompose()


def test_connections_that_pass_alone_but_not_stacked_are_refused():
    """No input that numpy converts the same way twice reaches this raise:
    matrices that each pass convert, stacked, to a (k, d, d) array of kind
    i, u, f or c (an int64 beside a uint64 matrix promotes to float64).  A
    matrix that reads as text the first time numpy converts it, and as a
    number after, does."""
    class Drifting(list):
        calls = 0

        def __array__(self, dtype=None, copy=None):
            self.calls += 1
            return np.array([["x"]] if self.calls == 1 else [[1.0]])

    with pytest.raises(ValidationError, match="the connections do not stack"):
        _connections([Drifting([[1.0]])], 1, lambda k: f"matrix {k}")
