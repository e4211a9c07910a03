"""The one input rule for arrays and scales a caller passes to the Python API:
numbers only, the exact shape, every entry finite, else ValidationError
naming the argument (``graphs._as_array`` and ``graphs._as_number``)."""

import math
import re

import numpy as np
import pytest

from concurv import (INF, HermitianMatrix, ProductSpec, ValidationError, curvature_matrix,
                     general_basis, local_structure, min_eig_hermitian, phi_map,
                     ric_and_metric, schur_complement, tensor_matrix_check)
from concurv.fixtures import fixture_graph
from concurv.tensor import coordinate_map, phi_matrix, psi_extend, tangent_from_function


def ball():
    """Vertex 1 of g1_u2: d = 2, m = 2, so tangent vectors have 4 entries."""
    return local_structure(fixture_graph("g1_u2"), "1")


def entry_points():
    """name -> (call on one array argument, a valid value of it, the name
    the error gives)."""
    loc = ball()
    md, b1 = loc.m * loc.d, (loc.m + 1) * loc.d
    rng = np.random.default_rng(27)
    v = rng.normal(size=md) + 1j * rng.normal(size=md)
    h = np.array([[2.0, 1j, 0.5], [-1j, 3.0, 0.0], [0.5, 0.0, 1.0]])
    f = {y: rng.normal(size=loc.d) for y in (loc.center, *loc.s1)}
    return {
        "HermitianMatrix": (HermitianMatrix, h, "matrix"),
        "min_eig_hermitian": (min_eig_hermitian, h, "matrix"),
        "schur_complement": (lambda a: schur_complement(a, [1, 2]), h, "matrix"),
        "curvature_matrix": (lambda a: curvature_matrix(loc, 4.0, a), general_basis(loc, 1),
                             "basis b"),
        "tensor_matrix_check": (lambda a: tensor_matrix_check(loc, 4.0, a),
                                general_basis(loc, 2), "basis b"),
        "coordinate_map": (lambda a: coordinate_map(loc, a), general_basis(loc, 3), "basis b"),
        "ric_and_metric v1": (lambda a: ric_and_metric(loc, 4.0, a, v), v, "tangent vector v1"),
        "ric_and_metric v2": (lambda a: ric_and_metric(loc, INF, v, a), v, "tangent vector v2"),
        "psi_extend": (lambda a: psi_extend(loc, a), rng.normal(size=(b1, 2)), "psi_extend: w"),
        "phi_matrix": (lambda a: phi_matrix(loc, a), phi_map(loc), "phi"),
        "tangent_from_function": (lambda a: tangent_from_function(loc, {**f, "1": a}), f["1"],
                                  "f['1']"),
    }


def _first_entry(a: np.ndarray, value) -> list:
    """``a`` as nested lists with its first entry replaced by ``value``."""
    out = a.tolist()
    cell = out
    while isinstance(cell[0], list):
        cell = cell[0]
    cell[0] = value
    return out


def _ragged(a: np.ndarray) -> list:
    out = a.tolist()
    out[0] = out[0][:-1] if a.ndim > 1 else [out[0], out[0]]
    return out


MALFORMED = {
    "nan": lambda a: _first_entry(a, math.nan),
    "inf": lambda a: _first_entry(a, math.inf),
    "bool array": lambda a: np.ones(a.shape, dtype=bool),
    "bool beside numbers": lambda a: _first_entry(a, True),
    "numeric strings": lambda a: a.real.astype(str).tolist(),
    "None": lambda a: _first_entry(a, None),
    "ragged": _ragged,
    "wrong ndim": lambda a: a[None],
    "wrong length": lambda a: a[:-1],
}


class TestOneArrayRule:
    """Every array a caller passes in is converted and checked by one
    function, so each entry point refuses a malformed one alike, by name."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("entry", sorted(entry_points()))
    def test_malformed_array_is_refused_by_name(self, entry, kind):
        call, valid, name = entry_points()[entry]
        call(valid)
        with pytest.raises(ValidationError, match=re.escape(name)):
            call(MALFORMED[kind](np.asarray(valid)))

    @pytest.mark.parametrize("bad", [1.5, True, "1", math.nan])
    def test_schur_keep_holds_integers(self, bad):
        h = entry_points()["schur_complement"][1]
        for keep in ([0, bad], bad):
            with pytest.raises(ValidationError, match="keep"):
                schur_complement(h, keep)

    @pytest.mark.parametrize("bad", ["x", 1.5, -1, np.int64(-1), None, True, np.float64(2.0)])
    def test_seed_is_a_non_negative_integer(self, bad):
        loc = ball()
        for draw in (lambda s: general_basis(loc, s),
                     lambda s: tensor_matrix_check(loc, 4.0, seed=s)):
            with pytest.raises(ValidationError, match="seed"):
                draw(bad)

    def test_seed_takes_numpy_integers(self):
        loc = ball()
        assert np.array_equal(general_basis(loc, np.int64(7)), general_basis(loc, 7))
        assert tensor_matrix_check(loc, 4.0, seed=np.uint8(7)) == \
            tensor_matrix_check(loc, 4.0, seed=7)

    def test_schur_keep_in_range_and_distinct(self):
        h = entry_points()["schur_complement"][1]
        for keep in ([0, 3], [-1, 2], [1, 1], np.array([0, 5])):
            with pytest.raises(ValidationError, match="keep"):
                schur_complement(h, keep)
        assert schur_complement(h, range(1, 3)).mat.shape == (2, 2)
        assert schur_complement(h, np.array([2, 1])).mat.shape == (2, 2)

    @pytest.mark.parametrize("bad", [True, "2", None, math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("scale", ["alpha", "beta"])
    def test_product_scales(self, scale, bad):
        with pytest.raises(ValidationError, match=f"product scale {scale}"):
            ProductSpec(**{scale: bad})

    def test_product_scales_are_floats(self):
        spec = ProductSpec(alpha=2, beta=np.float64(0.5))
        assert (type(spec.alpha), type(spec.beta)) == (float, float)
        assert (spec.alpha, spec.beta) == (2.0, 0.5)

    def test_a_missing_vertex_is_refused_by_name(self):
        loc = ball()
        with pytest.raises(ValidationError, match="f is missing vertex '2'"):
            tangent_from_function(loc, {"1": [0.0, 1.0], "3": [1.0, 0.0]})

    def test_a_number_is_a_value_when_d_is_1(self):
        loc = local_structure(fixture_graph("diamond_signed"), "1")
        f = {y: 1.0 + k for k, y in enumerate((loc.center, *loc.s1))}
        assert np.array_equal(tangent_from_function(loc, f),
                              tangent_from_function(loc, {y: [v] for y, v in f.items()}))
        with pytest.raises(ValidationError, match="f\\['1'\\] must have shape \\(2,\\)"):
            tangent_from_function(ball(), {**{y: [0.0, 0.0] for y in "123"}, "1": 1.0})

    def test_numbers_convert_as_before(self):
        """Lists, ints and real arrays convert as ``np.asarray(value,
        dtype=complex)`` would: the results are equal bit for bit."""
        def arrays(result):
            parts = result if isinstance(result, tuple) else (result,)
            return [p.mat if isinstance(p, HermitianMatrix) else np.asarray(p) for p in parts]

        for name, (call, valid, _) in entry_points().items():
            for got, want in zip(arrays(call(valid.tolist())), arrays(call(valid)), strict=True):
                assert np.array_equal(got, want), name
        assert HermitianMatrix([[1, 0], [0, 2]]).mat.dtype == complex
