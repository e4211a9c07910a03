"""Seeded fuzz of the Python API's array and scale inputs: valid arguments
of the entry points that take a caller's arrays, mutated one to three
times, either give a finite result of the unmutated shape or raise
ValidationError.  No call raises another exception or warns."""

import math
import warnings

import numpy as np

from concurv import (INF, HermitianMatrix, ProductSpec, ValidationError, curvature_matrix,
                     general_basis, local_structure, min_eig_hermitian, phi_map,
                     ric_and_metric, schur_complement, tensor_matrix_check)
from concurv.fixtures import fixture_graph, fixture_names
from concurv.tensor import coordinate_map, phi_matrix, psi_extend, tangent_from_function

CALLS = 400
BAD_ENTRIES = [math.nan, math.inf, True, "1", None]


def _lists(value, rng, stop: float = 0.4):
    """A random non-empty list inside the nested lists ``value`` (``value``
    itself included), or None if ``value`` is no such list.  Each step down
    is taken with probability ``1 - stop``."""
    if not (isinstance(value, list) and value):
        return None
    cell = value
    while rng.uniform() >= stop:
        k = int(rng.integers(len(cell)))
        if not (isinstance(cell[k], list) and cell[k]):
            break
        cell = cell[k]
    return cell


def set_entry(value, rng):
    bad = BAD_ENTRIES[int(rng.integers(len(BAD_ENTRIES)))]
    cell = _lists(value, rng, stop=0.0)   # down to a list of entries
    if cell is None:
        return bad
    cell[int(rng.integers(len(cell)))] = bad
    return value


def drop_row(value, rng):
    cell = _lists(value, rng)
    if cell is None:
        return []
    del cell[int(rng.integers(len(cell)))]
    return value


def add_axis(value, rng):
    return [value]


def make_ragged(value, rng):
    cell = _lists(value, rng)
    if cell is None:
        return [value, [value]]
    k = int(rng.integers(len(cell)))
    if isinstance(cell[k], list) and cell[k]:
        cell[k].pop()
    else:
        cell[k] = [cell[k], cell[k]]
    return value


MUTATIONS = [set_entry, drop_row, add_axis, make_ragged]


def _scales(alpha, beta):
    spec = ProductSpec(alpha, beta)
    return spec.alpha, spec.beta


def entry_points(rng):
    """(name, call, valid arguments, the mutations each argument takes) at a
    random fixture ball and N; every argument is nested lists or a number."""
    names = fixture_names()
    while True:
        g = fixture_graph(names[int(rng.integers(len(names)))])
        x = g.vertex_ids[int(rng.integers(len(g.vertex_ids)))]
        if g.neighbors(x):
            break
    loc, n = local_structure(g, x), [1.0, 4.0, INF][int(rng.integers(3))]
    md, b1 = loc.m * loc.d, (loc.m + 1) * loc.d
    seed = int(rng.integers(1000))
    vertices = (loc.center, *loc.s1)
    a_n = curvature_matrix(loc, n).mat.tolist()
    b = general_basis(loc, seed).tolist()
    v = (rng.normal(size=(2, md)) + 1j * rng.normal(size=(2, md))).tolist()
    w = rng.normal(size=(b1, 3) if rng.uniform() < 0.5 else b1).tolist()
    f = rng.normal(size=(len(vertices), loc.d)).tolist()
    every = (MUTATIONS,)
    return [
        ("HermitianMatrix", HermitianMatrix, [a_n], every),
        ("min_eig_hermitian", min_eig_hermitian, [a_n], every),
        # a shorter keep is a valid, smaller index set
        ("schur_complement", schur_complement, [a_n, list(range(md // 2, md))],
         (MUTATIONS, [set_entry, add_axis, make_ragged])),
        ("curvature_matrix", lambda b: curvature_matrix(loc, n, b), [b], every),
        ("tensor_matrix_check", lambda b: tensor_matrix_check(loc, n, b, seed=seed), [b], every),
        ("coordinate_map", lambda b: coordinate_map(loc, b), [b], every),
        ("ric_and_metric", lambda v1, v2: ric_and_metric(loc, n, v1, v2), v, every * 2),
        ("psi_extend", lambda w: psi_extend(loc, w), [w], every),
        ("phi_matrix", lambda phi: phi_matrix(loc, phi), [phi_map(loc).tolist()], every),
        ("tangent_from_function",
         lambda rows: tangent_from_function(loc, dict(zip(vertices, rows))), [f], every),
        ("ProductSpec", _scales, [float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))],
         every * 2),
    ]


def _arrays(result) -> list:
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(p.mat if isinstance(p, HermitianMatrix) else p) for p in parts]


def mutated_calls():
    """CALLS seeded calls: one argument of a random entry point mutated one
    to three times, or left valid (as nested lists) in about one call of six."""
    rng = np.random.default_rng(2027)
    for _ in range(CALLS):
        points = entry_points(rng)
        name, call, args, mutations = points[int(rng.integers(len(points)))]
        want = [a.shape for a in _arrays(call(*args))]
        if rng.uniform() > 1 / 6:
            k = int(rng.integers(len(args)))
            for _ in range(1 + int(rng.integers(3))):
                args[k] = mutations[k][int(rng.integers(len(mutations[k])))](args[k], rng)
        yield name, call, args, want


def test_mutated_arguments_give_a_finite_result_or_fail_validation():
    outcomes = {True: 0, False: 0}
    for name, call, args, want in mutated_calls():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = _arrays(call(*args))
            except ValidationError:
                outcomes[False] += 1
                continue
        outcomes[True] += 1
        assert [a.shape for a in got] == want, (name, args)
        assert all(np.isfinite(a).all() for a in got), (name, args)
    assert min(outcomes.values()) >= 10, outcomes   # both outcomes are exercised
