import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from concurv import (
    INF,
    ConnectionGraph,
    CrossCheckError,
    ProductSpec,
    ValidationError,
    canonical_basis,
    curvature,
    curvature_bundle,
    curvature_function,
    curvature_matrix,
    curvature_oracle,
    curvature_profile,
    gamma2_matrix,
    general_basis,
    is_locally_balanced,
    load_graph,
    local_structure,
    merge_s2,
    product_decomposition,
    switch,
)
from concurv.cli import COMPARISON_TOL, main
from concurv.curvature import basis_residual
from concurv.fixtures import fixture_graph, fixture_names
from concurv.graphs import SLACK
from concurv.hermitian import PINV_RTOL_SCALE, HermitianMatrix, _eigh_rank, min_eig_hermitian
from concurv.operators import q_matrix

from helpers import (
    assert_close,
    count_gamma2_assemblies,
    curvature_dense,
    curvature_reference,
    dense_kernel_condition,
    gamma_forms,
    magnetic_lattice,
    mixed_rates,
    multiplicity_reference,
    n0_reference,
    near_balanced_graph,
    phase_cycle,
    phase_triangle,
    pinv,
    random_balanced_graph,
    random_function,
    random_graph,
    random_switching,
    random_unitary,
    run_python,
    scaled_rates,
    two_paths,
)

# a d = 1 near-balanced ball whose oracle refinement needs more than 8 steps
NEAR_BALANCED_404 = Path(__file__).with_name("near_balanced_404.json")


def single_edge_local():
    g = load_graph({"dimension": 1, "vertices": [{"id": "x"}, {"id": "y"}],
                    "edges": [{"u": "x", "v": "y"}]})
    return local_structure(g, "x")


class TestBases:
    def test_canonical_single_edge(self):
        assert_close(canonical_basis(single_edge_local()), np.array([[1, 1], [0, 1]]), 0.0)

    def test_canonical_satisfies_normalization(self):
        rng = np.random.default_rng(41)
        for trial in range(8):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            assert basis_residual(loc, canonical_basis(loc)) <= 1e-9

    def test_general_basis_valid_and_transition_unitary(self):
        """The transition between two valid bases is unitary on the core,
        and the elimination record's U is the core block of ``B B0^{-1}``."""
        rng = np.random.default_rng(42)
        for trial in range(6):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            b1 = general_basis(loc, seed=trial)
            b2 = general_basis(loc, seed=trial + 100)
            assert basis_residual(loc, b1) <= 1e-9
            md = loc.m * d
            c = (b1 @ np.linalg.inv(b2))[d:, d:]
            assert_close(c @ c.conj().T, np.eye(md), 1e-9)
            for b in (b1, b2):
                want = (b @ np.linalg.inv(canonical_basis(loc)))[d:, d:]
                assert_close(curvature_bundle(loc).basis_unitary(b), want, 1e-12)

    def test_plain_eigenbasis_variant_is_valid(self):
        rng = np.random.default_rng(43)
        loc = local_structure(random_graph(rng, d=2), "1")
        from concurv import gamma_matrix
        w, u = np.linalg.eigh(gamma_matrix(loc).mat)
        rows = (u[:, loc.d:] / np.sqrt(w[loc.d:])).conj().T
        b = np.vstack([canonical_basis(loc)[:loc.d], rows])
        assert basis_residual(loc, b) <= 1e-9

    def test_explicit_bases_at_large_rates(self):
        """At rates scaled by 1e8 each entry of the basis residual is checked
        at its own rounding scale: general_basis builds, 4*Gamma_2 and the
        explicit-basis curvature matrices build, and the canonical basis
        passed explicitly and a general basis give K within
        1e-12 * max(1, |K|).  With absolute tolerances all 40 general
        bases and 23 of the 40 4*Gamma_2 raised; with E and the kernel-row
        component drawn at unit scale a general basis was off by 1.6e-4."""
        rng = np.random.default_rng(7)
        for trial in range(40):
            loc = local_structure(scaled_rates(random_graph(rng, d=1 + trial % 3), 1e8), "1")
            gamma2_matrix(loc)
            b = general_basis(loc, seed=trial)
            assert basis_residual(loc, b) <= 1e-9
            for n in (INF, 4.0):
                k = curvature(loc, n)[0]
                for basis in (canonical_basis(loc), b):
                    got = float(np.linalg.eigvalsh(curvature_matrix(loc, n, basis).mat)[0])
                    assert abs(got - k) <= 1e-12 * max(1.0, abs(k)), (trial, n, got, k)

    @pytest.mark.parametrize("rates, factor", [("scaled", 1.01), ("mixed", 1.0 + 1e-6)])
    def test_denormalized_basis_rejected_at_any_scale(self, rates, factor):
        """The canonical basis with its normalized rows stretched by factor
        must be rejected at rates scaled by 1e8 and at rates mixing 1e-2 and
        1e2.  A residual taken relative to max|B|^2 max|2 Gamma| accepted
        both: a 2% normalization error there is 2e-10 of that scale."""
        rng = np.random.default_rng(8)
        for trial in range(12):
            g = random_graph(rng, d=1 + trial % 3)
            g = scaled_rates(g, 1e8) if rates == "scaled" else mixed_rates(g, 1e-2, 1e2)
            loc = local_structure(g, "1")
            b = canonical_basis(loc)
            b[loc.d:] *= factor
            with pytest.raises(ValidationError, match="normalize"):
                curvature_matrix(loc, INF, b)

    def test_invalid_basis_rejected(self):
        loc = single_edge_local()
        with pytest.raises(ValidationError, match="normalize"):
            curvature_matrix(loc, INF, b=np.eye(2))

    @pytest.mark.parametrize("share", [0.5, 2.0])
    def test_slack_boundary(self, share):
        """The canonical basis with its normalized rows stretched to a
        residual of share * SLACK: accepted at half the slack, refused at
        twice it."""
        loc = local_structure(fixture_graph("g1_u2"), "1")
        b = canonical_basis(loc)
        b[loc.d:] *= math.sqrt(1.0 + share * SLACK)
        assert basis_residual(loc, b) == pytest.approx(share * SLACK, rel=1e-6)
        bundle = curvature_bundle(loc)
        if share < 1.0:
            bundle.basis_unitary(b)
        else:
            with pytest.raises(ValidationError, match="normalize"):
                bundle.basis_unitary(b)


class TestCurvatureValues:
    def test_single_edge(self):
        loc = single_edge_local()
        k, mult = curvature(loc, INF)
        assert k == pytest.approx(2.0, abs=1e-12)
        for n in (1.0, 2.0, 10.0):
            k_n, _ = curvature(loc, n)
            assert k_n == pytest.approx(2.0 - 2.0 / n, abs=1e-12)

    def test_n_validation(self):
        """Every N outside (0, inf], or whose 2/N overflows, and every N
        that is not a number (a string, a bool, None, an int beyond float
        range) is refused, naming N, by each entry point that reads A_N."""
        loc = single_edge_local()
        for bad in (0.0, -1.0, float("nan"), 1e-320, "abc", "inf", "2", True, False,
                    np.True_, None, 10**400):
            for evaluate in (lambda n: curvature(loc, n), curvature_function(loc),
                             lambda n: curvature_matrix(loc, n), curvature_bundle(loc).a_n):
                with pytest.raises(ValidationError, match="dimension parameter N"):
                    evaluate(bad)

    def test_a_n_equals_a_inf_minus_dimension_term(self):
        rng = np.random.default_rng(44)
        loc = local_structure(random_graph(rng, d=2), "1")
        bundle = curvature_bundle(loc)
        n = 3.0
        expected = bundle.a_inf - (2.0 / n) * bundle.v0 @ bundle.v0.conj().T
        assert_close(curvature_matrix(loc, n).mat, expected, 1e-12)

    def test_values_only_path_matches_min_eig_of_curvature_matrix(self):
        rng = np.random.default_rng(57)
        graphs = [fixture_graph(name) for name in fixture_names()]
        for t in range(24):
            d = 1 + t % 3
            graphs.append(random_balanced_graph(rng, d=d) if t % 4 == 0 else random_graph(rng, d=d))
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                evaluate = curvature_function(loc)
                bundle = curvature_bundle(loc)
                for n in (INF, 4.0, 1.0, 0.5):
                    k, mult = curvature(loc, n)
                    a_n = curvature_matrix(loc, n)
                    lam, _, want_mult = min_eig_hermitian(a_n)
                    assert abs(k - lam) <= 1e-12, (x, n, k, lam)
                    assert mult == want_mult, (x, n)
                    assert evaluate(n) == bundle.k(n) == (k, mult)
                    assert np.array_equal(bundle.a_n(n), a_n.mat), (x, n)
                    assert np.array_equal(bundle.a_n(n), bundle.a_n(n).conj().T), (x, n)

    def test_dimension_term_is_the_one_term_of_a_n(self):
        """A_N is A_inf minus ``dimension_term(N)``, bit for bit; the term of
        some rows of v0 (the product check reads its factor blocks so) is
        the block of the whole, exactly Hermitian, and 0 at N = inf."""
        bundle = curvature_bundle(local_structure(fixture_graph("g1_u2"), "1"))
        rows = np.array([3, 0, 1])
        for n in (4.0, 1.0, 1e-8):
            whole, part = bundle.dimension_term(n), bundle.dimension_term(n, rows)
            assert np.array_equal(bundle.a_n(n), bundle.a_inf - whole)
            assert np.array_equal(part, part.conj().T)
            assert_close(part, whole[np.ix_(rows, rows)], SLACK * float(np.max(np.abs(whole))))
        assert not np.any(bundle.dimension_term(INF, rows))

    def test_curvature_function_matches_pointwise(self):
        rng = np.random.default_rng(45)
        loc = local_structure(random_graph(rng, d=1), "1")
        f = curvature_function(loc)
        for n in (0.5, 2.0, INF):
            assert f(n)[0] == pytest.approx(curvature(loc, n)[0], abs=1e-12)


class TestOracleEquivalence:
    def test_classical_reduction_on_positive_signs(self):
        # all +1 connections: same value whether computed as d=1 sign graph
        # or via the oracle, which then is the classical curvature
        rng = np.random.default_rng(46)
        for _ in range(5):
            g = random_graph(rng, d=1, identity_connections=True)
            loc = local_structure(g, "1")
            k, _ = curvature(loc, INF)
            assert curvature_oracle(loc, INF) == pytest.approx(k, abs=1e-8)

    def test_random_instances(self):
        rng = np.random.default_rng(47)
        for trial in range(30):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            n = (1.0, 2.0, 5.0, INF)[trial % 4]
            k, _ = curvature(loc, n)
            assert abs(curvature_oracle(loc, n) - k) <= 1e-8


    def test_any_scale_of_the_rates(self):
        """The oracle's PSD slack and its bracket are relative, so it ends and
        agrees with K at any scale of the rates: the unit-measure triangle
        with every weight w (K(inf) = 5w/2), the unit-weight triangle with
        measures 1e-4, and random graphs with every weight scaled by s, where
        K(N) scales by s too."""
        def triangle(w, mu):
            return load_graph({"dimension": 1,
                               "vertices": [{"id": v, "measure": mu} for v in "abc"],
                               "edges": [{"u": u, "v": v, "weight": w}
                                         for u, v in ("ab", "bc", "ac")]})

        for w, mu in ((1e-3, 1.0), (1e4, 1.0), (1e6, 1.0), (1e8, 1.0), (1.0, 1e-4)):
            loc = local_structure(triangle(w, mu), "a")
            k, _ = curvature(loc, INF)
            assert k == pytest.approx(2.5 * w / mu, rel=1e-12)
            assert abs(curvature_oracle(loc, INF) - k) <= 1e-8 * abs(k)
        rng = np.random.default_rng(49)
        for trial in range(12):
            g = random_graph(rng, d=1 + trial % 2)
            s = 10.0 ** rng.uniform(-3, 8)
            g = ConnectionGraph(g.dimension, g.field, [(v, g.measure(v)) for v in g.vertex_ids],
                                [(u, v, w * s, sigma) for u, v, w, sigma in g.edge_list()])
            loc = local_structure(g, "1")
            n = (2.0, INF)[trial % 2]
            k, _ = curvature(loc, n)
            assert abs(curvature_oracle(loc, n) - k) <= 1e-8 * max(s, abs(k))

    @pytest.mark.parametrize("n", [1e-25, 1e-100])
    def test_small_n_at_every_fixture_vertex(self, n):
        """At small N the dimension term, about -(2/N) times the rates,
        dominates K.  The oracle's lower start covers it, so the oracle
        brackets K and agrees with curvature to 1e-9 of k_scale; with a
        start that left the term out, 64 doublings did not reach K at any
        fixture vertex."""
        for name in fixture_names():
            g = fixture_graph(name)
            for x in g.vertex_ids:
                e = curvature_bundle(local_structure(g, x))
                k, k_oracle = e.k(n)[0], curvature_oracle(e.local, n)
                assert abs(k_oracle - k) <= 1e-9 * e.k_scale(k, k_oracle), (name, x)

    @pytest.mark.parametrize("n", [1e-6, 1e-8])
    def test_small_n_at_every_fixture_and_random_vertex(self, n):
        """At N = 1e-6 and 1e-8 the dimension term and the rates meet.  The
        oracle agrees with curvature within the CLI's COMPARISON_TOL of
        k_scale at every fixture vertex and every vertex of 60 random graphs
        (325 balls); it stays within 3.5e-9.  When its refinement dropped
        the Gamma-null directions of its cluster instead of eliminating
        them, it missed by up to 8.3e-8 at 53 balls at 1e-6 and 28 at 1e-8."""
        rng = np.random.default_rng(2032)
        graphs = [fixture_graph(name) for name in fixture_names()]
        graphs += [random_graph(rng, d=1 + t % 3) for t in range(60)]
        for g in graphs:
            for x in g.vertex_ids:
                e = curvature_bundle(local_structure(g, x))
                k, k_oracle = e.k(n)[0], curvature_oracle(e.local, n)
                assert abs(k_oracle - k) <= COMPARISON_TOL * e.k_scale(k, k_oracle), (x, k)

    def test_small_n_decades(self):
        """g1_u2 vertex 1 at every decade of N from 1e-20 to 1e-30."""
        e = curvature_bundle(local_structure(fixture_graph("g1_u2"), "1"))
        for exponent in range(20, 31):
            n = 10.0 ** -exponent
            k, k_oracle = e.k(n)[0], curvature_oracle(e.local, n)
            assert abs(k_oracle - k) <= 1e-9 * e.k_scale(k, k_oracle), n

    def test_small_n_at_large_rates(self):
        """A 3-vertex path with weights 1e40 at N = 1e-200, where K is about -4e240."""
        e = curvature_bundle(local_structure(load_graph(_path_document(1e40)), "b"))
        k, k_oracle = e.k(1e-200)[0], curvature_oracle(e.local, 1e-200)
        assert abs(k_oracle - k) <= 1e-9 * e.k_scale(k, k_oracle)

    def test_near_balanced_document_is_the_seeded_draw(self):
        """``near_balanced_404.json`` is, byte for byte, the 35th draw of
        ``near_balanced_graph(np.random.default_rng(404), 1e-2)``."""
        rng = np.random.default_rng(404)
        for _ in range(35):
            g = near_balanced_graph(rng, 1e-2)
        assert NEAR_BALANCED_404.read_text(encoding="utf-8") == (
            json.dumps(g.to_document(), indent=2) + "\n")

    def test_refinement_reaches_a_slow_crossing(self):
        """Vertex 1 of ``near_balanced_404.json`` (K = 0.26314, kernel block
        4.8e-8): the bisection ends 0.042 above K and the refinement's steps
        first grow, so cut at 8 steps it read 0.267140, 4.0e-3 off, and the
        CLI exited 2.  Run to its rounding floor it stops 6.6e-9 from
        curvature, within the CLI's bound of 2.1e-8."""
        e = curvature_bundle(local_structure(load_graph(NEAR_BALANCED_404.read_bytes()), "1"))
        k, k_oracle = e.k(INF)[0], curvature_oracle(e.local, INF)
        assert abs(k_oracle - k) <= COMPARISON_TOL * e.k_scale(k, k_oracle)
        assert main(["curvature", str(NEAR_BALANCED_404), "--vertex", "1", "--oracle"]) == 0


def _path_document(w: float) -> dict:
    """The path a - b - c with both weights w and unit measures, d = 1."""
    return {"dimension": 1, "vertices": [{"id": v} for v in "abc"],
            "edges": [{"u": "a", "v": "b", "weight": w}, {"u": "b", "v": "c", "weight": w}]}


def _big_triangle():
    return local_structure(scaled_rates(fixture_graph("triangle_signed"), 1e10), "A")


def _product_at_large_rates():
    g = scaled_rates(fixture_graph("g2_signed"), 1e10)
    x = g.vertex_ids[0]
    return product_decomposition(g, g, ProductSpec(), x, x, 1e-300, 1e-300)


def _cli(command, *options):
    def run(tmp_path):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(_path_document(1e40)))
        return run_python("-m", "concurv.cli", command, str(path), "--vertex", "b", *options)
    return run


@pytest.mark.parametrize("call", [
    lambda tmp_path: curvature(_big_triangle(), 1e-300),
    lambda tmp_path: curvature_profile(_big_triangle(), [1e-300, INF]),
    lambda tmp_path: curvature_oracle(_big_triangle(), 1e-300),
    lambda tmp_path: _product_at_large_rates(),
    _cli("curvature", "--N", "1e-300"),
    _cli("profile", "--grid", "1e-300,inf"),
], ids=["curvature", "curvature_profile", "curvature_oracle", "product_decomposition",
        "cli-curvature", "cli-profile"])
def test_an_overflowing_dimension_term_is_refused(call, tmp_path):
    """An N that passes the N rule can still make the dimension term
    (2/N) v0 v0^H, or the oracle's (1/N) Delta Delta^H, overflow on a ball
    with large rates: triangle_signed and g2_signed with weights x1e10 and
    the path with weights 1e40, at N = 1e-300.  Each entry point refuses
    that N with a ValidationError naming it, and the CLI exits 1 with a
    message and no traceback.  Before, the profile returned K = nan with
    multiplicity 0, the product raised numpy's LinAlgError and the CLI ended
    in a traceback."""
    try:
        proc = call(tmp_path)
    except ValidationError as exc:
        assert "dimension parameter N = 1e-300" in str(exc)
        return
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("validation error: dimension parameter N = 1e-300")
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_a_small_n_below_overflow_is_kept():
    """The refusal is only where the term overflows: the same triangle at
    N = 1e-290, where (2/N) v0 v0^H stays in range, gives the finite K that
    the dimension term dominates."""
    k, mult = curvature(_big_triangle(), 1e-290)
    assert math.isfinite(k) and k < -1e290 and mult >= 1


class TestSwitchingInvariance:
    def test_curvature_invariant(self):
        rng = np.random.default_rng(48)
        for trial in range(10):
            d = 1 if trial % 2 == 0 else 2
            g = random_graph(rng, d=d)
            loc = local_structure(g, "1")
            k, _ = curvature(loc, INF)
            g2 = switch(g, random_switching(rng, g))
            k2, _ = curvature(local_structure(g2, "1"), INF)
            assert k2 == pytest.approx(k, abs=1e-9)

    def test_matrix_conjugation_rule(self):
        rng = np.random.default_rng(49)
        for trial in range(6):
            d = 1 if trial % 2 == 0 else 2
            g = random_graph(rng, d=d)
            tau = random_switching(rng, g)
            g2 = switch(g, tau)
            loc = local_structure(g, "1")
            loc2 = local_structure(g2, "1")
            b = canonical_basis(loc)

            def blockdiag(ids):
                out = np.zeros((d * len(ids), d * len(ids)), dtype=complex)
                for k, v in enumerate(ids):
                    out[k * d:(k + 1) * d, k * d:(k + 1) * d] = tau[v]
                return out

            tb1 = blockdiag(("1",) + loc.s1)
            ts1 = blockdiag(loc.s1)
            b_tau = tb1.T @ b @ np.conj(tb1)
            for n in (2.0, INF):
                lhs = curvature_matrix(loc2, n, b_tau).mat
                rhs = ts1.T @ curvature_matrix(loc, n, b).mat @ np.conj(ts1)
                assert_close(lhs, rhs, 1e-9)


class TestUnitaryEquivalence:
    def test_eigenvalues_and_conjugation(self):
        """Two general bases give unitarily equivalent curvature matrices, to
        1e-12 * max(1, max|A|): on random balls, at every fixture vertex
        (the balanced g4_signed vertices 4 and 5 among them, where a is 0)
        and on the nearly balanced phase triangles."""
        rng = np.random.default_rng(50)
        locs = [local_structure(random_graph(rng, d=1 + trial % 2), "1") for trial in range(8)]
        for name in fixture_names():
            g = fixture_graph(name)
            locs += [local_structure(g, x) for x in g.vertex_ids if g.neighbors(x)]
        locs += [local_structure(phase_triangle(theta), "a") for theta in (1e-1, 1e-3, 1e-5)]
        for trial, loc in enumerate(locs):
            d = loc.d
            b1 = general_basis(loc, seed=2 * trial)
            b2 = general_basis(loc, seed=2 * trial + 1)
            for n in (1.5, INF):
                a1 = curvature_matrix(loc, n, b1).mat
                a2 = curvature_matrix(loc, n, b2).mat
                tol = 1e-12 * max(1.0, float(np.max(np.abs(a1))), float(np.max(np.abs(a2))))
                assert_close(np.linalg.eigvalsh(a1), np.linalg.eigvalsh(a2), tol)
                c = (b1 @ np.linalg.inv(b2))[d:, d:]
                assert_close(a1, c @ a2 @ c.conj().T, tol)


class TestKernelBlockProperties:
    def test_a_psd_and_range_condition(self):
        rng = np.random.default_rng(51)
        for trial in range(10):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            bundle = curvature_bundle(loc)
            assert float(np.linalg.eigvalsh(bundle.a)[0]) >= -1e-9
            resid = bundle.a @ pinv(bundle.a) @ bundle.omega_t - bundle.omega_t
            assert float(np.max(np.abs(resid))) <= 1e-9 * (1 + float(np.max(np.abs(bundle.omega_t))))

    def test_balanced_kills_a_and_omega(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            g = random_balanced_graph(rng, d=2)
            loc = local_structure(g, "1")
            assert is_locally_balanced(loc)
            bundle = curvature_bundle(loc)
            assert float(np.max(np.abs(bundle.a))) <= 1e-9
            assert float(np.max(np.abs(bundle.omega_t))) <= 1e-9

    def test_v0_gram_eigenvalues(self):
        rng = np.random.default_rng(53)
        for trial in range(6):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            bundle = curvature_bundle(loc)
            w = np.linalg.eigvalsh(bundle.v0 @ bundle.v0.conj().T)
            total = loc.dx_over_mux
            m = loc.m
            assert_close(w[-d:], total * np.ones(d), 1e-9)
            if m > 1:
                assert_close(w[:(m - 1) * d], np.zeros((m - 1) * d), 1e-9)


class TestKernelElimination:
    """curvature_bundle eliminates the kernel block a itself; the Schur
    complement of the dense ``S`` with numpy's SVD pseudoinverse
    (``helpers.pinv``) is its reference."""

    def test_a_inf_matches_schur_complement(self):
        rng = np.random.default_rng(56)
        graphs = [fixture_graph(name) for name in fixture_names()]
        for t in range(36):
            d = 1 + t % 3
            graphs.append(random_balanced_graph(rng, d=d) if t % 4 == 0 else random_graph(rng, d=d))
        balanced = no_s2 = 0
        for g in graphs:
            for x in g.vertex_ids:
                if not g.neighbors(x):
                    continue
                loc = local_structure(g, x)
                bundle = curvature_bundle(loc)
                s = bundle.b @ (q_matrix(loc).mat / 2.0) @ bundle.b.conj().T
                d = loc.d
                corr = s[d:, :d] @ pinv(s[:d, :d]) @ s[:d, d:]
                want = s[d:, d:] - (corr + corr.conj().T) / 2.0
                assert_close(bundle.a_inf, want, 1e-13, f"a_inf at {x}")
                balanced += is_locally_balanced(loc)
                no_s2 += loc.n == 0
        assert balanced >= 10 and no_s2 >= 10

    def test_hermitian_matrix_built_at_public_results_only(self, monkeypatch):
        built = []
        init = HermitianMatrix.__init__

        def counted(self, mat):
            built.append(np.shape(mat))
            init(self, mat)

        monkeypatch.setattr(HermitianMatrix, "__init__", counted)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        curvature(loc, INF)
        curvature(loc, 2.0)
        assert len(built) == 0   # K comes from eigenvalues of a plain A_N
        evaluate = curvature_function(loc)
        evaluate(INF)
        evaluate(2.0)
        assert len(built) == 0
        bundle = curvature_bundle(loc)
        bundle.a_n(INF)
        bundle.a_n(2.0)
        assert len(built) == 0   # the record's A_N is a plain, exactly Hermitian array


@functools.lru_cache(maxsize=1)
def _agreement_balls():
    """(graph, balls) for the fixtures and 210 random graphs: d = 1..3, real
    and complex fields, every 15th a complete graph (balls with n = 0)."""
    rng = np.random.default_rng(58)
    graphs = [fixture_graph(name) for name in fixture_names()]
    for t in range(210):
        complete = t % 15 == 0
        graphs.append(random_graph(rng, d=1 + t % 3, field=("real", "complex")[t // 3 % 2],
                                   extra_edge_p=1.0 if complete else 0.35))
    return tuple((g, [local_structure(g, x) for x in g.vertex_ids if g.neighbors(x)])
                 for g in graphs)


class TestMdSizePipeline:
    """curvature() builds A_N from the md-size blocks of the ball: Q without
    the (m+n+1)d matrix, the canonical basis applied without forming it, and
    the kernel block eliminated by eigh.  The full-matrix Schur, the dense
    B0 and numpy's SVD pseudoinverse are its reference
    (``tests/helpers.py::curvature_dense``)."""

    def test_no_full_gamma2_assembly(self, monkeypatch):
        calls = count_gamma2_assemblies(monkeypatch)
        loc = local_structure(fixture_graph("g1_u2"), "1")
        for n in (INF, 4.0, 1.0):
            curvature(loc, n)
        evaluate = curvature_function(loc)
        for n in (INF, 4.0, 1.0):
            evaluate(n)
        assert calls == []

    def test_matches_dense_basis_and_svd_pinv(self):
        """Within 1e-12 * max(1, |K|) wherever the dense path's kernel block
        is well conditioned (cond <= 100).  Past that both paths divide
        float64 noise by the eigenvalues of a they invert and agree to 1e-11
        (worst measured 8.3e-12 at cond 7.3e3); how close each stays to the
        exact K there is checked by ``test_ill_conditioned_against_reference``."""
        no_s2 = fields = ill = total = 0
        for g, balls in _agreement_balls():
            for loc in balls:
                cond = dense_kernel_condition(loc)
                ill += cond > 100
                total += 1
                for n in (INF, 4.0):
                    k, _ = curvature(loc, n)
                    want, _ = curvature_dense(loc, n)
                    tol = (1e-12 if cond <= 100 else 1e-11) * max(1.0, abs(want))
                    assert abs(k - want) <= tol, (loc.center, n, k, want, cond)
            no_s2 += all(loc.n == 0 for loc in balls)
            fields += g.field == "real"
        assert no_s2 >= 10 and fields >= 70 and 2 * ill < total

    def test_ill_conditioned_against_reference(self):
        """On the five ill-conditioned balls (cond > 100) where the two paths
        disagree most, each stays within 1e-11 * max(1, |K|) of a 50-digit
        K(inf) (measured: this path 1.3e-12 to 6.5e-12, the dense path 1.8e-13
        to 5.1e-12)."""
        pytest.importorskip("mpmath")
        gaps = []
        for g, balls in _agreement_balls():
            for loc in balls:
                if dense_kernel_condition(loc) > 100:
                    gap = abs(curvature(loc, INF)[0] - curvature_dense(loc, INF)[0])
                    gaps.append((gap, g, loc))
        gaps.sort(key=lambda row: row[0], reverse=True)
        for _, g, loc in gaps[:5]:
            ref = curvature_reference(g, loc.center)
            for k, _ in (curvature(loc, INF), curvature_dense(loc, INF)):
                assert abs(k - ref) <= 1e-11 * max(1.0, abs(ref)), (loc.center, k, ref)

    def test_canonical_a_inf_exactly_hermitian_at_any_scale(self):
        """The canonical A_inf and A_N are exactly Hermitian, so the public
        HermitianMatrix results build at any scale of the rates."""
        rng = np.random.default_rng(49)
        for trial in range(24):
            g = random_graph(rng, d=1 + trial % 3)
            loc = local_structure(scaled_rates(g, 10.0 ** rng.uniform(-3, 10)), "1")
            a_inf = curvature_bundle(loc).a_inf
            assert np.array_equal(a_inf, a_inf.conj().T)
            for n in (INF, 4.0):
                want = curvature(loc, n)[0]
                got = float(np.linalg.eigvalsh(curvature_matrix(loc, n).mat)[0])
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, -1.0, 2.0, 3.0, 4.0])
    def test_cutoff_is_the_svd_pinv_cutoff(self, lam):
        """The eigenvalues of a 2 x 2 kernel block are zeroed at or below
        ``2 * PINV_RTOL_SCALE * max|lam|``, exactly where ``pinv`` zeroes
        singular values (``test_hermitian.py::test_cutoff_without_rtol_keyword``)."""
        a = np.diag([1.0, lam * PINV_RTOL_SCALE])
        eig = _eigh_rank(a)
        got = -eig.schur(np.eye(2), np.zeros((2, 2)))
        assert_close(got, pinv(a), 1e-6)
        assert_close(eig.pinv(), pinv(a), 1e-6)
        kept = abs(lam) > 2.0
        assert eig.keep.tolist() == [kept, True]
        assert got[1, 1] == (1.0 / (lam * PINV_RTOL_SCALE) if kept else 0.0)


class TestNearBalancedReference:
    """K(inf) at a of the phase triangle (``tests/helpers.py::phase_triangle``)
    against a 50-digit reference built from the recursive form definitions
    with the graph's double inputs taken as exact.  The kernel block a and K
    shrink like theta^2; float64 assembly noise, divided by a, bounds the
    accuracy of any double-precision route (README, "Numerical notes")."""

    @pytest.mark.parametrize("theta", [1e-1, 1e-2, 1e-3, 1e-4, 3e-6])
    def test_phase_triangle(self, theta):
        pytest.importorskip("mpmath")
        g = phase_triangle(theta)
        ref = curvature_reference(g, "a")
        assert ref == pytest.approx(theta ** 2 / 10, rel=1e-3)
        k, _ = curvature(local_structure(g, "a"), INF)
        # measured: 3e-13 to 4e-11 down to theta = 1e-3, then 1.9e-7 and 7.8e-5
        assert abs(k - ref) <= (1e-9 if theta >= 1e-3 else 1e-3)


@pytest.mark.parametrize("field, seed, x, values", [
    ("complex", 252, "2", ((INF, -1.0976902523656, -1.6803270357469),
                           (2.0, -1.9561684138203, -2.0315996938170))),
    ("real", 122, "1", ((INF, -0.0083261451127, -0.1969480589936),)),
], ids=["u1", "signed"])
def test_a_connection_can_raise_k(field, seed, x, values):
    """ROADMAP item 17's bound ``K_sigma <= K_1`` fails, K_1 being the K of
    the same weights and measures with identity connections: at vertex x of
    ``random_graph(np.random.default_rng(seed), d=1, field=field)``, a U(1)
    connection (N = inf and 2) and a signing (N = inf) raise K above K_1.
    curvature, the oracle and the 50-digit reference agree to 1e-13, and the
    kernel block (12.07 and 3.59) is far from item 4's near-balanced regime."""
    pytest.importorskip("mpmath")
    g = random_graph(np.random.default_rng(seed), d=1, field=field)
    one = ConnectionGraph(1, "real", [(v, g.measure(v)) for v in g.vertex_ids],
                          [(u, v, w, None) for u, v, w, _ in g.edge_list()])
    e, e1 = curvature_bundle(local_structure(g, x)), curvature_bundle(local_structure(one, x))
    assert float(e.a[0, 0].real) > 3.5
    for n, want, want1 in values:
        k, k1 = e.k(n)[0], e1.k(n)[0]
        assert k == pytest.approx(want, abs=1e-12) and k1 == pytest.approx(want1, abs=1e-12)
        assert curvature_oracle(e.local, n) == pytest.approx(k, abs=1e-13)
        assert curvature_oracle(e1.local, n) == pytest.approx(k1, abs=1e-13)
        assert curvature_reference(g, x, n) == pytest.approx(k, abs=1e-13)


class TestPhaseTriangleClosedForm:
    """K(inf) at each vertex of the phase triangle against its closed form.

    With unit weights and measures and holonomy exp(i theta), a symbolic
    elimination of the recursive Gamma and Gamma_2 at a vertex factors
    det(Gamma_2 - K Gamma) as (e^{i theta} - 1)^2 (4K^2 - 10K + 4s) times a
    constant, s = sin^2(theta/2).  So K = 4s / (5 + sqrt(25 - 16s)), the
    smaller root, for theta not a multiple of 2 pi, and K(0) = 5/2, the
    complete graph K_3's (n + 2) / 2, where the first factor vanishes.  The
    triangle is symmetric, so all three vertices share K."""

    # measured, relative to k_scale: at most 2.9e-15 (curvature) and 3.4e-15
    # (oracle) at theta = 0, 1, 3 and pi; 2.6e-13 and 1.8e-13 at 1e-1;
    # 2.4e-11 and 4.4e-11 at 1e-2; 3.1e-9 for both at 1e-3.  K shrinks like
    # theta^2 / 10 while assembly noise does not (TestNearBalancedReference).
    BOUNDS = {0.0: 1e-13, 1.0: 1e-13, 3.0: 1e-13, math.pi: 1e-13,
              1e-1: 1e-12, 1e-2: 2e-10, 1e-3: 1e-8}

    @staticmethod
    def closed_form(theta: float) -> float:
        if theta == 0.0:
            return 2.5
        s = math.sin(theta / 2.0) ** 2
        return 4.0 * s / (5.0 + math.sqrt(25.0 - 16.0 * s))

    @pytest.mark.parametrize("theta", list(BOUNDS))
    def test_both_routes_at_every_vertex(self, theta):
        want, bound = self.closed_form(theta), self.BOUNDS[theta]
        for x in "abc":
            loc = local_structure(phase_triangle(theta), x)
            e = curvature_bundle(loc)
            for route, k in (("curvature", curvature(loc, INF)[0]),
                             ("oracle", curvature_oracle(loc, INF))):
                assert abs(k - want) <= bound * e.k_scale(k, want), (x, route, k, want)

    def test_known_values(self):
        assert self.closed_form(math.pi) == pytest.approx(0.5, abs=1e-15)
        assert self.closed_form(1e-3) == pytest.approx(1e-6 / 10, rel=1e-6)


class TestPhaseCycleFittedForm:
    """K(N) at each vertex of the phase 4-cycle (ROADMAP item 21), the ball
    after ``two_paths``' merge, against ``K = min(0, 2 - 4/N)`` for theta
    not in 2 pi Z: a formula fitted to the library's output, not derived,
    so a conjecture that these tests pin.  So N0 = 2 whatever theta is.
    Measured: within 4.4e-15 (curvature) and 6.9e-15 (oracle) of k_scale,
    and N0 within 3.6e-15 of 2, at theta = 1, 2, 3 and pi."""

    THETAS = (1.0, 2.0, 3.0, math.pi)

    @staticmethod
    def fitted(n: float) -> float:
        return min(0.0, 2.0 - 4.0 / n)

    @pytest.mark.parametrize("theta", THETAS)
    def test_both_routes_at_every_vertex(self, theta):
        g = phase_cycle(theta)
        for x in g.vertex_ids:
            loc = local_structure(g, x)
            e = curvature_bundle(loc)
            for n in (0.5, 1.0, 2.0, 4.0, INF):
                want = self.fitted(n)
                for route, k in (("curvature", e.k(n)[0]), ("oracle", curvature_oracle(loc, n))):
                    assert abs(k - want) <= SLACK * e.k_scale(k, want), (x, n, route, k)
            assert abs(e.n0 - 2.0) <= SLACK * 2.0, (x, e.n0)

    @pytest.mark.parametrize("theta", THETAS)
    def test_the_merged_two_paths_are_the_cycle(self, theta):
        g, _ = merge_s2(two_paths(theta), "x", "za", "zb")
        e = curvature_bundle(local_structure(g, "x"))
        for n in (0.5, 1.0, 2.0, 4.0, INF):
            k, want = e.k(n)[0], self.fitted(n)
            assert abs(k - want) <= SLACK * e.k_scale(k, want), (n, k)

    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_n_1_near_balance(self, theta):
        """At N = 1 the cycle's K does not jump at balance, and both routes
        keep it near balance (measured: 3.1e-12 of k_scale at most, down to
        theta = 1e-8), unlike at N = inf (ROADMAP item 4)."""
        g = phase_cycle(theta)
        for x in g.vertex_ids:
            loc = local_structure(g, x)
            e = curvature_bundle(loc)
            for route, k in (("curvature", e.k(1.0)[0]), ("oracle", curvature_oracle(loc, 1.0))):
                assert abs(k + 2.0) <= SLACK * e.k_scale(k, -2.0), (x, route, k)


class TestMagneticLattice:
    """U(1) connections with one holonomy exp(i phi) on every plaquette of
    the square lattice, a discrete magnetic field (ROADMAP item 18)."""

    @pytest.mark.parametrize("q", [1, 2, 3, 6])
    def test_flux_torus_is_symmetric(self, q):
        """The 12 x 12 flux torus at phi = 2 pi q / 12 is vertex-transitive
        up to switching, so K(inf) is one value at all 144 vertices.
        Measured spread: at most 8.1e-15 of k_scale (at q = 1)."""
        g = magnetic_lattice(12, 2.0 * math.pi * q / 12, torus=True)
        bundles = [curvature_bundle(local_structure(g, x)) for x in g.vertex_ids]
        ks = [e.k(INF)[0] for e in bundles]
        scale = max(e.k_scale(k) for e, k in zip(bundles, ks))
        assert len(ks) == 144 and max(ks) - min(ks) <= SLACK * scale, (min(ks), max(ks))

    # 17 evenly spaced from -0.5 to pi + 1e-3, the kink 3 pi / 4 and 1e-8
    PHIS = sorted(np.linspace(-0.5, math.pi + 1e-3, 17).tolist() + [3 * math.pi / 4, 1e-8])

    @pytest.mark.parametrize("phi", PHIS)
    def test_patch_center_fitted_form(self, phi):
        """At the center of the 7 x 7 patch both routes give
        ``min(-2 |sin phi|, 2 cos phi)``, a formula fitted to the library's
        output, not derived: a conjecture that this test pins.  K is
        continuous at phi = 0, unlike the phase triangle's jump, and kinks
        at 3 pi / 4.  Measured: within 1.2e-15 of k_scale at every phi."""
        loc = local_structure(magnetic_lattice(7, phi), "m3_3")
        e, want = curvature_bundle(loc), min(-2.0 * abs(math.sin(phi)), 2.0 * math.cos(phi))
        for route, k in (("curvature", e.k(INF)[0]), ("oracle", curvature_oracle(loc, INF))):
            assert abs(k - want) <= SLACK * e.k_scale(k, want), (route, k, want)


class TestFiftyDigitReference:
    """The library against the 50-digit ``curvature_reference`` and
    ``n0_reference`` on fixtures whose data are exact (a ball balanced only
    to rounding would defeat the reference's cut), balanced balls included:
    g2_signed vertices 4-6, g3_signed 6 and positive_strip 6 and 9 have an
    exactly zero kernel block, which the reference eliminates with rank 0."""

    BALLS = ([("g2_signed", v) for v in "123456"] + [("g3_signed", "3"), ("g3_signed", "6")]
             + [("positive_strip", v) for v in "169"])

    @pytest.mark.parametrize("name, x", BALLS)
    def test_curvature_at_finite_and_infinite_n(self, name, x):
        pytest.importorskip("mpmath")
        g = fixture_graph(name)
        loc = local_structure(g, x)
        for n in (INF, 4.0, 1.0):
            ref = curvature_reference(g, x, n)
            # measured: within 6e-16 * max(1, |K|) at every ball and N
            assert abs(curvature(loc, n)[0] - ref) <= 1e-13 * max(1.0, abs(ref)), (n, ref)

    @pytest.mark.parametrize("name, x", BALLS)
    def test_constancy_threshold(self, name, x):
        pytest.importorskip("mpmath")
        g = fixture_graph(name)
        ref = n0_reference(g, x)
        assert ref == FINITE_N0.get((name, x), INF)
        n0 = curvature_bundle(local_structure(g, x)).n0
        assert n0 == ref or abs(n0 - ref) <= 1e-12 * ref


class TestGammaNullFunctions:
    def test_null_gradient_implies_harmonic_and_nonnegative_gamma2(self):
        rng = np.random.default_rng(54)
        for trial in range(8):
            d = 1 if trial % 2 == 0 else 2
            g = random_graph(rng, d=d)
            x = "1"
            loc = local_structure(g, x)
            fx = rng.normal(size=d) + 1j * rng.normal(size=d)
            f = random_function(rng, g.vertex_ids, d)
            f[x] = fx
            for y in loc.s1:
                f[y] = g.sigma(y, x) @ fx  # sigma_xy^{-1} f(x)
            gamma, gamma2, delta_f = gamma_forms(g, f, f, x)
            assert abs(gamma) <= 1e-12
            assert_close(delta_f, np.zeros(d), 1e-12)
            assert np.real(gamma2) >= -1e-12


class TestProfile:
    def test_monotone_concave_with_flags(self):
        rng = np.random.default_rng(55)
        grid = [0.5, 1.0, 2.0, 4.0, 8.0, INF]
        for trial in range(6):
            d = 1 if trial % 2 == 0 else 2
            loc = local_structure(random_graph(rng, d=d), "1")
            profile = curvature_profile(loc, grid)
            ks = [k for _, k, _ in profile.samples]
            assert all(ks[i + 1] >= ks[i] - 1e-7 for i in range(len(ks) - 1))

    def test_u2_fixture_profile_ends_at_known_value(self):
        loc = local_structure(fixture_graph("g1_u2"), "1")
        profile = curvature_profile(loc, [1.0, 2.0, 4.0, 8.0, INF])
        assert profile.samples[-1][1] == pytest.approx(1.5, abs=1e-9)

    def test_small_n_divergence_bound(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            loc = local_structure(random_graph(rng, d=1), "1")
            bundle = curvature_bundle(loc)
            lam_max = float(np.linalg.eigvalsh(bundle.a_inf)[-1])
            n = 0.01
            k, _ = curvature(loc, n)
            assert k <= lam_max - (2.0 / n) * loc.dx_over_mux + 1e-9

    def test_constant_after_large_multiplicity(self):
        # the single edge has N0 = inf (z is not zero on the lambda_1 cluster
        # of its 1x1 curvature matrix), so constant_from must stay unset
        profile = curvature_profile(single_edge_local(), [1.0, 2.0, INF])
        assert profile.constant_from is None
        # a 3-leaf star has N0 = 2: K(N) = K(inf) from N = 2 on
        from concurv import ConnectionGraph
        star = ConnectionGraph(1, "real",
                               [("c", 1.0), ("a", 1.0), ("b", 1.0), ("e", 1.0)],
                               [("c", "a", 1.0, None), ("c", "b", 1.0, None),
                                ("c", "e", 1.0, None)])
        loc = local_structure(star, "c")
        profile = curvature_profile(loc, [1.0, 2.0, 4.0, INF])
        assert profile.constant_from == 2.0
        k_at = {n: k for n, k, _ in profile.samples}
        assert k_at[2.0] == pytest.approx(k_at[INF], abs=1e-12)

    def test_grid_validation(self):
        loc = single_edge_local()
        with pytest.raises(ValidationError, match="empty"):
            curvature_profile(loc, [])
        with pytest.raises(ValidationError, match="ascending"):
            curvature_profile(loc, [2.0, 1.0])

    @pytest.mark.parametrize("grid", [4.0, 4, INF, np.float64(4.0), np.array(4.0), None, "48",
                                      b"48", object()])
    def test_grid_is_an_iterable_of_n(self, grid):
        """A lone number, a string or bytes, or anything not iterable is
        refused as a grid before any N is read."""
        with pytest.raises(ValidationError, match="grid must be an iterable of N values"):
            curvature_profile(single_edge_local(), grid)

    def test_grid_takes_any_iterable(self):
        loc = single_edge_local()
        want = curvature_profile(loc, [1.0, 2.0, INF])
        for grid in ((1.0, 2.0, INF), np.array([1.0, 2.0, INF]), iter([1.0, 2.0, INF])):
            assert curvature_profile(loc, grid) == want


def _star(m: int, d: int = 1) -> ConnectionGraph:
    return ConnectionGraph(d, "complex", [("c", 1.0)] + [(f"l{i}", 1.0) for i in range(m)],
                           [("c", f"l{i}", 1.0, None) for i in range(m)])


def _cycle(n: int, d: int = 1) -> ConnectionGraph:
    return ConnectionGraph(d, "complex", [(str(i), 1.0) for i in range(n)],
                           [(str(i), str((i + 1) % n), 1.0, None) for i in range(n)])


def _threshold_cases():
    """The 3-, 4- and 5-leaf stars, the cycles C5-C7 and every vertex of
    every fixture: 56 balls."""
    cases = [(_star(m), "c") for m in (3, 4, 5)] + [(_cycle(n), "0") for n in (5, 6, 7)]
    for name in fixture_names():
        g = fixture_graph(name)
        cases += [(g, x) for x in g.vertex_ids if g.neighbors(x)]
    return cases


# N0 at the ten fixture balls where it is finite, to 20 digits from the
# 50-digit n0_reference; every other fixture ball has N0 = inf.
FINITE_N0 = {("positive_strip", "1"): 6.2462112512353210996,
             ("g2_signed", "3"): 4.0, ("g3_signed", "3"): 4.0, ("g4_signed", "1"): 2.0,
             **{(name, v): 8.0 / 3.0 for name in ("triangle_signed", "triangle_u2")
                for v in "ABC"}}


class TestConstancyThreshold:
    """``CurvatureBundle.n0``, the least N with K(N) = K(inf), and the
    profile's ``constant_from`` read from it: exact, and free of the unit of
    the rates.  K(N) at N exactly N0 is not asserted: the eigenvalues cross
    there, so its multiplicity is a rounding decision."""

    SCALES = (1e-20, 1.0, 1e10, 1e20)
    GRID = [1.0, 2.0, 3.0, 4.0, 8.0, INF]

    def test_fixture_thresholds(self):
        seen = set()
        for name in fixture_names():
            g = fixture_graph(name)
            for x in (x for x in g.vertex_ids if g.neighbors(x)):
                n0 = curvature_bundle(local_structure(g, x)).n0
                assert n0 == pytest.approx(FINITE_N0.get((name, x), INF), rel=1e-12), (name, x)
                seen.add((name, x))
        assert set(FINITE_N0) <= seen

    @pytest.mark.parametrize("share", [0.5, 2.0])
    def test_slack_boundary(self, share):
        """z = U^H v0 set on the lambda_1 cluster to share * SLACK of max|z|
        at the 3-leaf star (N0 = 2, a cluster of 2): N0 stays at half the
        slack and is inf at twice it."""
        bundle = curvature_bundle(local_structure(_star(3), "c"))
        lam, u = np.linalg.eigh(bundle.a_inf)
        z = u.conj().T @ bundle.v0
        z[:2] = share * SLACK * np.abs(z).max()
        moved = dataclasses.replace(bundle)
        moved.__dict__["v0"] = u @ z   # the cached v0
        assert moved.n0 == (pytest.approx(bundle.n0, rel=1e-12) if share < 1.0 else INF)

    def test_profile_is_free_of_the_rate_unit(self):
        """At rates scaled by 1e-20 to 1e20 every profile of the 56 balls
        passes its checks with the same constant_from and N0 (the absolute
        tolerances before gave 48 different constant_from and 23 false
        cross-check failures)."""
        for g, x in _threshold_cases():
            profiles = [curvature_profile(local_structure(scaled_rates(g, s), x), self.GRID)
                        for s in self.SCALES]
            unit = profiles[1]
            for p in profiles:
                assert p.constant_from == unit.constant_from, (x, p)
                assert p.n0 == unit.n0 or abs(p.n0 - unit.n0) <= 1e-12 * unit.n0, (x, p)

    def test_multiplicities_are_free_of_the_rate_unit(self):
        for name in fixture_names():
            g = fixture_graph(name)
            for x in (x for x in g.vertex_ids if g.neighbors(x)):
                unit = local_structure(g, x)
                for s in (1e-20, 1e20):
                    loc = local_structure(scaled_rates(g, s), x)
                    for n in (1.0, 4.0, INF):
                        assert curvature(loc, n)[1] == curvature(unit, n)[1], (name, x, s, n)

    def test_constant_from_between_grid_points(self):
        """A grid that straddles N0 without holding it still finds it: the
        first sample above N0 (the multiplicity rule found none here)."""
        for name, x in FINITE_N0:
            loc = local_structure(fixture_graph(name), x)
            n0 = curvature_bundle(loc).n0
            grid = [1.01 * n0, 2.0 * n0, INF]
            assert curvature_profile(loc, grid).constant_from == grid[0], (name, x)

    def test_disparate_rates(self):
        """Rates alternating between 1 and 1e6 along the edges spread a
        spectrum over up to 1e12, with eigh still resolving its gaps near
        lam_1: the multiplicity counts the exact ties of the 50-digit
        spectrum, and N0 is the 50-digit one (a gap of 1e-8 of max|lambda|
        merged 9 of these 224).  At 1e8 the rates alone make gaps below
        ``MULTIPLICITY_GAP * |lam_1|``, which the rule groups."""
        ns = (1.0, 4.0, INF)
        for g, x in _threshold_cases():
            h = mixed_rates(g, 1.0, 1e6)
            loc = local_structure(h, x)
            assert [curvature(loc, n)[1] for n in ns] == multiplicity_reference(h, x, ns), x
            assert curvature_bundle(loc).n0 == pytest.approx(n0_reference(h, x), rel=1e-9), x

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_switched_stars_and_cycles(self, d):
        """Stars and cycles have N0 = 2, and switching changes no N0."""
        rng = np.random.default_rng(240 + d)
        graphs = [(_star(m, d), "c") for m in (3, 4, 5)] + [(_cycle(n, d), "0") for n in (5, 6, 7)]
        for g, x in graphs:
            switched = switch(g, {v: random_unitary(rng, d) for v in g.vertex_ids})
            for h in (g, switched):
                assert abs(curvature_bundle(local_structure(h, x)).n0 - 2.0) <= 1e-12

    def test_oracle_brackets_n0(self):
        """Just below N0 both the eigenvalue path and the independent oracle
        put K below K(inf) (measured: by 1.7e-4 to 2.0e-3); just above, both
        equal it (measured: within 8e-16)."""
        for name, x in FINITE_N0:
            loc = local_structure(fixture_graph(name), x)
            n0, k_inf = curvature_bundle(loc).n0, curvature(loc, INF)[0]
            below, above = 0.999 * n0, 1.001 * n0
            for k in (curvature(loc, below)[0], curvature_oracle(loc, below)):
                assert k < k_inf - 1e-6, (name, x, k, k_inf)
            assert abs(curvature(loc, above)[0] - k_inf) <= 1e-12
            assert abs(curvature_oracle(loc, above) - k_inf) <= 1e-10 * max(1.0, abs(k_inf))

    def test_a_multiplicity_above_d_implies_n0(self):
        """A sampled multiplicity above d, the old sufficient rule, is only
        ever seen at N >= N0."""
        rng = np.random.default_rng(241)
        cases = _threshold_cases()
        cases += [(random_graph(rng, d=1 + t % 3), "1") for t in range(60)]
        grid = [*np.geomspace(0.5, 64.0, 22).tolist(), INF]
        seen = 0
        for g, x in cases:
            loc = local_structure(g, x)
            n0 = curvature_bundle(loc).n0
            for n in grid:
                if curvature(loc, n)[1] > loc.d:
                    seen += 1
                    assert n >= n0 * (1.0 - 1e-9), (x, n, n0)
        assert seen
