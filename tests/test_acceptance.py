"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margins (run with ``pytest -s`` to see them).  The fixture
checks are the rows of :mod:`concurv.examples_registry`, shared with
``concurv examples``; each criterion test runs the rows tagged with it.

Criterion 05c checks the non-commuting U(2) product triangle_u2 x
diamond_u2: its signature groups do not commute, and at (A, 2) its curvature
drops below both factor curvatures, so the product curvature bound needs the
commuting hypothesis.
"""

import numpy as np

from concurv import (
    INF,
    ProductSpec,
    add_spherical_edge,
    cartesian_product,
    curvature,
    curvature_bundle,
    curvature_function,
    curvature_matrix,
    curvature_oracle,
    curvature_profile,
    general_basis,
    is_locally_balanced,
    local_structure,
    merge_s2,
    product_decomposition,
    switch,
    tensor_matrix_check,
)
from concurv import examples_registry

from helpers import (
    assert_close,
    pinv,
    random_balanced_graph,
    random_commuting_pair,
    random_graph,
    random_merge_instance,
    random_s1_in_regular_graph,
    random_switching,
)


def report(criterion: str, detail: str):
    print(f"[criterion {criterion}] PASS  {detail}")


def run_rows(criterion: str) -> str:
    """Run the example-registry rows of one criterion, assert that all of them
    pass, and return their details for the PASS line."""
    rows = examples_registry.run(criterion)
    assert rows, f"no registry rows for criterion {criterion}"
    failed = [f"{name}: {detail}" for _, name, ok, detail in rows if not ok]
    assert not failed, "; ".join(failed)
    return "; ".join(f"{name}: {detail}" if detail else name for _, name, _, detail in rows)


def test_criterion_01_reference_pipeline_u2_diamond():
    report("01", run_rows("01"))


def test_criterion_02_positive_strip():
    report("02", run_rows("02"))


def test_criterion_03_signed_fixture_curvatures():
    report("03", run_rows("03"))


def test_criterion_04_local_edit_examples():
    report("04", run_rows("04"))


def test_criterion_04_random_balanced_additions_monotone():
    rng = np.random.default_rng(1041)
    worst = np.inf
    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        g, x, yi, yj = random_s1_in_regular_graph(rng, d=d)
        _, rep = add_spherical_edge(g, x, yi, yj, w_new=float(rng.uniform(0.5, 2.0)))
        assert rep.after >= rep.before - 1e-9
        assert rep.delta_psd is True
        worst = min(worst, rep.after - rep.before)
    report("04", f"100 balanced spherical additions, min K increase {worst:.3e} >= -1e-9")


def test_criterion_04_random_merges_monotone():
    rng = np.random.default_rng(1042)
    worst = np.inf
    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        g, x, za, zb = random_merge_instance(rng, d=d)
        _, rep = merge_s2(g, x, za, zb)
        assert rep.after >= rep.before - 1e-9
        worst = min(worst, rep.after - rep.before)
    report("04", f"100 merges, min K increase {worst:.3e} >= -1e-9")


def test_criterion_05a_signed_product_curvature():
    report("05a", run_rows("05a"))


def test_criterion_05b_product_matrices():
    report("05b", run_rows("05b"))


def test_criterion_05c_noncommuting_reference_values():
    """Reference values of the non-commuting U(2) product at (A, 1) and
    (A, 2), where the commuting-case curvature bound fails."""
    report("05c", run_rows("05c"))


def test_criterion_05d_random_commuting_decompositions():
    rng = np.random.default_rng(1051)
    worst = 0.0
    for trial in range(50):
        g, g2 = random_commuting_pair(rng)
        spec = ProductSpec(alpha=float(rng.uniform(0.5, 1.5)),
                           beta=float(rng.uniform(0.5, 1.5)))
        n = (1.0, 2.0, INF)[trial % 3]
        n2 = (INF, 3.0, 1.5)[trial % 3]
        dec = product_decomposition(g, g2, spec, "1", "1", n, n2)
        assert dec.residual <= 1e-9
        for mat in (dec.r, dec.j):
            lam = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])
            assert lam >= -1e-9
        worst = max(worst, dec.residual)
    report("05d", f"50 commuting pairs, max decomposition residual {worst:.3e}")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(1060)
    worst = 0.0
    for trial in range(200):
        d = 1 if trial % 2 == 0 else 2
        field = "complex" if trial % 3 else "real"
        loc = local_structure(random_graph(rng, d=d, field=field), "1")
        for n in (0.7, 1.0, 3.0, INF):
            k, _ = curvature(loc, n)
            gap = abs(curvature_oracle(loc, n) - k)
            assert gap <= 1e-8
            worst = max(worst, gap)
    report("06", f"800 oracle comparisons, worst gap {worst:.3e} <= 1e-8")


def test_criterion_07_invariance_suites():
    rng = np.random.default_rng(1070)
    worst_switch = 0.0
    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        g = random_graph(rng, n_max=5, d=d)
        loc = local_structure(g, "1")
        k, _ = curvature(loc, INF)
        g_switched = switch(g, random_switching(rng, g))
        k2, _ = curvature(local_structure(g_switched, "1"), INF)
        assert abs(k2 - k) <= 1e-9
        worst_switch = max(worst_switch, abs(k2 - k))

        # Prop A.1 on every instance
        bundle = curvature_bundle(loc)
        assert float(np.linalg.eigvalsh(bundle.a)[0]) >= -1e-9
        resid = bundle.a @ pinv(bundle.a) @ bundle.omega_t - bundle.omega_t
        assert float(np.max(np.abs(resid))) <= 1e-9 * (
            1.0 + float(np.max(np.abs(bundle.omega_t))))

    worst_eig = 0.0
    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        loc = local_structure(random_graph(rng, n_max=5, d=d), "1")
        b1 = general_basis(loc, seed=1000 + trial)
        b2 = general_basis(loc, seed=2000 + trial)
        n = (1.0, 4.0, INF)[trial % 3]
        a1 = curvature_matrix(loc, n, b1).mat
        a2 = curvature_matrix(loc, n, b2).mat
        gap = float(np.max(np.abs(np.linalg.eigvalsh(a1) - np.linalg.eigvalsh(a2))))
        assert gap <= 1e-9
        c = (b1 @ np.linalg.inv(b2))[d:, d:]
        assert_close(a1, c @ a2 @ c.conj().T, 1e-9, "basis conjugation")
        worst_eig = max(worst_eig, gap)

    for trial in range(10):
        g = random_balanced_graph(rng, d=2)
        loc = local_structure(g, "1")
        assert is_locally_balanced(loc)
        bundle = curvature_bundle(loc)
        assert float(np.max(np.abs(bundle.a))) <= 1e-9
        assert float(np.max(np.abs(bundle.omega_t))) <= 1e-9
    fixture_rows = run_rows("07")
    report("07", f"switch invariance worst {worst_switch:.3e}; "
                 f"basis equivalence worst {worst_eig:.3e}; kernel block vanished "
                 f"on 10 balanced instances; {fixture_rows}")


def test_criterion_08_curvature_function_shape():
    from concurv import ConnectionGraph

    rng = np.random.default_rng(1080)
    grid = list(np.geomspace(0.6, 60.0, 19)) + [INF]
    constants_seen = 0

    def star(m):
        vertices = [("c", 1.0)] + [(f"l{i}", 1.0) for i in range(m)]
        edges = [("c", f"l{i}", 1.0, None) for i in range(m)]
        return local_structure(ConnectionGraph(1, "real", vertices, edges), "c")

    # stars have N0 = 2: the function is constant from N = 2 on
    locals_under_test = [star(3), star(4)]
    locals_under_test += [
        local_structure(random_graph(rng, n_max=5, d=1 if t % 2 == 0 else 2), "1")
        for t in range(48)
    ]
    for loc in locals_under_test:
        profile = curvature_profile(loc, grid)  # validates shape, and K = K(inf)
        # from constant_from (the first sample at or above N0) on, raising on violation
        ks = [k for _, k, _ in profile.samples]
        assert all(ks[i + 1] >= ks[i] - 1e-7 for i in range(len(ks) - 1))
        if profile.constant_from is not None:
            constants_seen += 1
            idx = [n for n, _, _ in profile.samples].index(profile.constant_from)
            base = profile.samples[idx][1]
            for _, k, _ in profile.samples[idx:]:
                assert abs(k - base) <= 1e-9
    assert constants_seen >= 2
    report("08", f"50 profiles monotone+concave; constant from N0 observed "
                 f"{constants_seen} times, constant within 1e-9 each time")


def test_criterion_09_tensor_consistency():
    rng = np.random.default_rng(1090)
    worst = 0.0
    cases = 0
    for trial in range(50):
        d = 1 if trial % 2 == 0 else 2
        if trial % 5 == 4:
            g = random_balanced_graph(rng, d=d)
        else:
            g = random_graph(rng, n_max=5, d=d)
        loc = local_structure(g, "1")
        n = (1.0, 3.0, INF)[trial % 3]
        b = None if trial % 2 else general_basis(loc, seed=trial)
        resid = tensor_matrix_check(loc, n, b=b, seed=trial)
        assert resid <= 1e-9
        worst = max(worst, resid)
        cases += 1
    report("09", f"{cases} tensor matrix-representation checks, worst residual {worst:.3e}")


def test_criterion_10_star_product_of_profiles():
    rng = np.random.default_rng(1100)
    g_balanced = random_balanced_graph(rng, d=1)
    g_other = random_graph(rng, d=1)
    prod = cartesian_product(g_balanced, g_other, ProductSpec())
    f1 = curvature_function(local_structure(g_balanced, "1"))
    f2 = curvature_function(local_structure(g_other, "1"))
    fp = curvature_function(local_structure(prod, "1|1"))
    from concurv import star_product
    samples = [1.2, 1.7, 2.5, 3.5, 5.0, 7.0, 10.0, 15.0, 25.0, INF]
    worst = 0.0
    for t in samples:
        star = star_product(lambda s: f1(s)[0], lambda s: f2(s)[0], t)
        gap = abs(fp(t)[0] - star)
        assert gap <= 1e-7
        worst = max(worst, gap)
    report("10", f"star product matches product profile at 10 N values, worst gap {worst:.3e}")
