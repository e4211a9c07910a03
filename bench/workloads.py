"""The four benchmark workloads: sweep, oracle, edit and cli.

Each workload turns the seed into graph documents and loads them (``setup``,
timed as setup_s: document generation, JSON encoding and ``load_graph``), then
into a fixed cycle of ops (``plan``, untimed: it also computes the values each
op is checked against).  run.py runs the cycle over and over in a closed
loop with one caller.

An op's ``run`` is the timed call.  It returns named values; those whose name
starts with ``K`` are curvature values, compared with the recorded reference
at the default seed and hashed into the values digest, and those starting
with ``_`` are handed to the checks only.  ``check`` returns a failure
message or None.  ``attribute`` runs only in a traced run, after the op,
outside its span: it repeats the op's inner stages one by one so their self
times can be read off by subtraction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import concurv
import gen
from concurv import cli
from concurv import (
    INF,
    ConnectionGraph,
    ProductSpec,
    add_spherical_edge,
    cartesian_product,
    curvature,
    curvature_bundle,
    curvature_function,
    curvature_matrix,
    curvature_oracle,
    curvature_profile,
    gamma2_matrix,
    general_basis,
    load_graph,
    local_structure,
    merge_s2,
    min_eig_hermitian,
    product_decomposition,
    product_vertex,
    q_matrix,
    schur_complement,
    star_product,
    tensor_matrix_check,
)

# The package the benchmark imported; cli children run the same code.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(concurv.__file__)))

VALUE_TOL = 1e-9    # K against the reference and against K computed another way
ORACLE_TOL = 1e-8   # oracle, general-basis and tensor agreement (the CLI's --oracle default)
STAR_TOL = 1e-7     # star product against the product curvature function
PROFILE_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, INF)
CLI_GRID = "1,2,4,8,inf"


@dataclass
class Op:
    key: str
    run: Callable
    check: Callable
    assembled_bytes: int
    attribute: Callable | None = None


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable       # (seed, tracer, workdir) -> context
    plan: Callable        # (context, seed) -> list[Op]
    tail_percentile: float           # highest of 50/75/90/95/99 with >= 10 samples above it
    verify: Callable | None = None   # (context, results, seed) -> message or None per check
    children: bool = False           # peak RSS is that of child processes


def ball_bytes(loc) -> int:
    """Bytes of the complex 4*Gamma_2 matrix assembled on this ball."""
    return 16 * ((loc.m + loc.n + 1) * loc.d) ** 2


def load(doc: dict, tr):
    text = json.dumps(doc)
    with tr.span("graphs.load_graph"):
        return load_graph(text)


def mismatch(name: str, got: float, want: float, tol: float) -> str | None:
    if not abs(got - want) <= tol:
        return f"{name} = {got!r}, expected {want!r} (tolerance {tol:g})"
    return None


def first_failure(*messages) -> str | None:
    return next((m for m in messages if m), None)


def attribute_stages(tr, loc) -> None:
    """Stage attribution of one curvature call: each inner stage on its own."""
    with tr.span("operators.gamma2_matrix"):
        gamma2_matrix(loc)
    with tr.span("operators.q_matrix"):
        q = q_matrix(loc)
    with tr.span("curvature.curvature_bundle"):
        bundle = curvature_bundle(loc)
    s = bundle.b @ (q.mat / 2.0) @ bundle.b.conj().T
    with tr.span("hermitian.schur_complement"):
        schur_complement(s, range(loc.d, s.shape[0]))
    a_inf = bundle.a_n(INF)
    with tr.span("hermitian.min_eig"):
        min_eig_hermitian(a_inf)


# -- sweep ------------------------------------------------------------------

SWEEP_WHY = ("every vertex of a 30x30 U(2) torus and of U(2) hypercube Q8: tiny matrices, so "
             "per-vertex Python work (ball, Gamma_2, Q, wrappers) dominates")


def sweep_setup(seed, tr, workdir):
    return {"torus": load(gen.torus(30, 2, [seed, 1]), tr),
            "q8": load(gen.hypercube(8, 2, [seed, 2]), tr)}


def curvature_op(name: str, g, v: str) -> Op:
    def run(tr):
        with tr.span("graphs.local_structure"):
            loc = local_structure(g, v)
        with tr.span("curvature.curvature"):
            k, _ = curvature(loc, INF)
        return {"K_inf": k, "_loc": loc}

    return Op(key=f"{name}/{v}", run=run, check=lambda values: None,
              assembled_bytes=ball_bytes(local_structure(g, v)),
              attribute=lambda tr, values: attribute_stages(tr, values["_loc"]))


def sweep_plan(graphs, seed):
    pairs = [(name, v) for name, g in graphs.items() for v in g.vertex_ids]
    order = np.random.default_rng([seed, 10]).permutation(len(pairs))
    return [curvature_op(pairs[i][0], graphs[pairs[i][0]], pairs[i][1]) for i in order]


def sweep_verify(graphs, results, seed):
    """The oracle never runs inside sweep ops; a seeded sample of the values
    is cross-checked against it here, after the timed loop."""
    keys = sorted(results)
    rng = np.random.default_rng([seed, 11])
    outcomes = []
    for i in rng.choice(len(keys), size=min(8, len(keys)), replace=False):
        name, v = keys[i].split("/")
        oracle = curvature_oracle(local_structure(graphs[name], v), INF)
        outcomes.append(mismatch(f"oracle at {keys[i]}", oracle, results[keys[i]]["K_inf"],
                                 ORACLE_TOL))
    return outcomes


# -- oracle -----------------------------------------------------------------

ORACLE_WHY = ("sampled U(3) Q10 (168x168 Gamma_2) and K12 (no 2-sphere) vertices with oracle, "
              "general basis and tensor checks: dense LAPACK in the oracle dominates")


def oracle_setup(seed, tr, workdir):
    return {"q10": load(gen.hypercube(10, 3, [seed, 3]), tr),
            "k12": load(gen.complete(12, 3, [seed, 4]), tr)}


def oracle_op(name: str, g, v: str, basis_seed: int) -> Op:
    loc = local_structure(g, v)
    canonical = np.linalg.eigvalsh(curvature_matrix(loc, INF).mat)

    def run(tr):
        with tr.span("graphs.local_structure"):
            loc = local_structure(g, v)
        with tr.span("curvature.curvature"):
            k_inf, _ = curvature(loc, INF)
        with tr.span("curvature.curvature"):
            k_4, _ = curvature(loc, 4.0)
        with tr.span("curvature.curvature_oracle"):
            o_inf = curvature_oracle(loc, INF)
        with tr.span("curvature.curvature_oracle"):
            o_4 = curvature_oracle(loc, 4.0)
        with tr.span("curvature.general_basis"):
            b = general_basis(loc, basis_seed)
        with tr.span("curvature.curvature_matrix"):
            a_general = curvature_matrix(loc, INF, b)
        with tr.span("tensor.tensor_matrix_check"):
            residual = tensor_matrix_check(loc, 4.0, b=b, seed=basis_seed)
        return {"K_inf": k_inf, "K_4": k_4, "oracle_gap": max(abs(o_inf - k_inf), abs(o_4 - k_4)),
                "_a_general": a_general.mat, "_tensor_residual": residual, "_loc": loc}

    def check(values):
        spectrum_gap = float(np.max(np.abs(np.linalg.eigvalsh(values["_a_general"]) - canonical)))
        return first_failure(
            mismatch("oracle gap", values["oracle_gap"], 0.0, ORACLE_TOL),
            mismatch("general-basis spectrum gap", spectrum_gap, 0.0, ORACLE_TOL),
            mismatch("tensor residual", values["_tensor_residual"], 0.0, ORACLE_TOL),
            mismatch("K_inf against the canonical spectrum", values["K_inf"], canonical[0],
                     VALUE_TOL),
        )

    return Op(key=f"{name}/{v}", run=run, check=check, assembled_bytes=ball_bytes(loc),
              attribute=lambda tr, values: attribute_stages(tr, values["_loc"]))


def oracle_plan(graphs, seed):
    """Three Q10 ops to one K12 op, so the median lies inside the Q10 cluster.

    The op cost varies from vertex to vertex by a third, so a run visits many
    distinct vertices: a 50 s run goes twice round the 48-op cycle.
    """
    rng = np.random.default_rng([seed, 20])
    q10 = [graphs["q10"].vertex_ids[i] for i in rng.choice(1024, size=36, replace=False)]
    k12 = [graphs["k12"].vertex_ids[i] for i in rng.permutation(12)]
    ops = []
    for r in range(12):
        for v in q10[3 * r:3 * r + 3]:
            ops.append(oracle_op("q10", graphs["q10"], v, int(rng.integers(2**31))))
        ops.append(oracle_op("k12", graphs["k12"], k12[r], int(rng.integers(2**31))))
    return ops


# -- edit -------------------------------------------------------------------

EDIT_WHY = ("a chained stream of spherical-edge and merge edits on a U(2) torus plus products, "
            "profiles and star products: every edit rebuilds and re-validates the graph")

TORUS_SIDE = 30
EDIT_SPACING = 6   # targets this far apart leave every other target's 2-ball and edit valid


def edit_setup(seed, tr, workdir):
    return {"torus": load(gen.torus(TORUS_SIDE, 2, [seed, 5]), tr),
            "c8": load(gen.cycle(8, 2, [seed, 6], gen.diagonal_unitary), tr),
            "q4": load(gen.hypercube(4, 2, [seed, 7], gen.diagonal_unitary), tr)}


def rebuild(g) -> None:
    ConnectionGraph(g.dimension, g.field, [(v, g.measure(v)) for v in g.vertex_ids],
                    g.edge_list())


def edit_op(stream: dict, index: int, kind: str, x: str, a: str, b: str) -> Op:
    """One edit of the chained stream; edit 0 starts again from the pristine graph."""
    pristine = stream["pristine"]
    edit = add_spherical_edge if kind == "add" else merge_s2
    span = f"local_ops.{edit.__name__}"
    want_before, _ = curvature(local_structure(pristine, x), INF)
    want_after = edit(pristine, x, a, b)[1].after

    def run(tr):
        g_in = pristine if index == 0 else stream["graph"]
        with tr.span(span):
            g_out, report = edit(g_in, x, a, b)
        stream["graph"] = g_out
        return {"K_before": report.before, "K_after": report.after, "_graph": g_out}

    def check(values):
        return first_failure(
            mismatch("K before the edit", values["K_before"], want_before, VALUE_TOL),
            mismatch("K after the edit", values["K_after"], want_after, VALUE_TOL),
            None if values["K_after"] >= values["K_before"] - VALUE_TOL
            else f"edit decreased K: {values['K_before']!r} -> {values['K_after']!r}",
        )

    def attribute(tr, values):
        with tr.span("graphs.construct"):
            rebuild(values["_graph"])

    return Op(key=f"{kind}/{x}/{a}/{b}", run=run, check=check, attribute=attribute,
              assembled_bytes=2 * ball_bytes(local_structure(pristine, x)))


def merge_pair(g, x: str, rng) -> tuple[str, str]:
    s2 = local_structure(g, x).s2
    pairs = [(zk, zl) for i, zk in enumerate(s2) for zl in s2[i + 1:]
             if not set(g.neighbors(zk)) & set(g.neighbors(zl))]
    return pairs[int(rng.integers(len(pairs)))]


def cartesian_op(c8, q4) -> Op:
    def run(tr):
        with tr.span("product.cartesian_product"):
            p = cartesian_product(c8, q4, ProductSpec())
        return {"_product": p}

    def check(values):
        p = values["_product"]
        if len(p.vertex_ids) != 128 or len(p.edge_list()) != 384:
            return f"product has {len(p.vertex_ids)} vertices and {len(p.edge_list())} edges"
        return None

    return Op(key="cartesian", run=run, check=check, assembled_bytes=0)


def decomposition_op(c8, q4, product, x: str, x2: str, n: float, n2: float) -> Op:
    loc = local_structure(product, product_vertex(x, x2))
    want, _ = curvature(loc, n + n2)
    bound = min(curvature(local_structure(c8, x), n)[0], curvature(local_structure(q4, x2), n2)[0])

    def run(tr):
        with tr.span("product.product_decomposition"):
            dec = product_decomposition(c8, q4, ProductSpec(), x, x2, n, n2)
        return {"_decomposition": dec}

    def check(values):
        k = float(np.linalg.eigvalsh(values["_decomposition"].a_product)[0])
        values["K_product"] = k
        return first_failure(
            mismatch("product curvature", k, want, VALUE_TOL),
            None if k >= bound - VALUE_TOL else f"product bound violated: {k!r} < {bound!r}",
        )

    return Op(key=f"decomposition/{x}/{x2}/{n}/{n2}", run=run, check=check,
              assembled_bytes=ball_bytes(loc) + ball_bytes(local_structure(c8, x))
              + ball_bytes(local_structure(q4, x2)))


def profile_op(product, v: str) -> Op:
    loc = local_structure(product, v)
    want, _ = curvature(loc, INF)

    def run(tr):
        with tr.span("graphs.local_structure"):
            loc = local_structure(product, v)
        with tr.span("curvature.curvature_profile"):
            profile = curvature_profile(loc, PROFILE_GRID)
        return {f"K_{n}": k for n, k, _ in profile.samples}

    return Op(key=f"profile/{v}", run=run,
              check=lambda values: mismatch("K(inf) of the profile", values["K_inf"], want,
                                            VALUE_TOL),
              assembled_bytes=ball_bytes(loc))


def star_op(c8, q4, product, x: str, x2: str, t: float) -> Op:
    want, _ = curvature(local_structure(product, product_vertex(x, x2)), t)

    def run(tr):
        with tr.span("product.star_product"):
            f1 = curvature_function(local_structure(c8, x))
            f2 = curvature_function(local_structure(q4, x2))
            k = star_product(lambda s: f1(s)[0], lambda s: f2(s)[0], t)
        return {"K_star": k}

    return Op(key=f"star/{x}/{x2}/{t}", run=run,
              check=lambda values: mismatch("star product against the product curvature",
                                            values["K_star"], want, STAR_TOL),
              assembled_bytes=ball_bytes(local_structure(c8, x))
              + ball_bytes(local_structure(q4, x2)))


def edit_plan(graphs, seed):
    """Five groups of five edits, each followed by two product-side ops.

    The 25 edit targets sit on a grid of spacing 6 with a seeded offset and
    alternate between adding a balanced spherical edge and merging two
    2-sphere vertices.  Edits are five sevenths of the ops, so the median
    lies inside the edit cluster; the product-side ops rotate through
    cartesian product, decomposition, profile and star product.
    """
    rng = np.random.default_rng([seed, 30])
    torus, c8, q4 = graphs["torus"], graphs["c8"], graphs["q4"]
    product = cartesian_product(c8, q4, ProductSpec())
    ox, oy = (int(o) for o in rng.integers(EDIT_SPACING, size=2))
    grid = range(0, TORUS_SIDE, EDIT_SPACING)
    targets = [gen.torus_vertex(i + ox, j + oy, TORUS_SIDE) for i in grid for j in grid]
    stream = {"pristine": torus, "graph": torus}
    edits = []
    for index, t in enumerate(rng.permutation(len(targets))):
        x = targets[t]
        if index % 2 == 0:
            yi, yj = rng.choice(torus.neighbors(x), size=2, replace=False)
            edits.append(edit_op(stream, index, "add", x, str(yi), str(yj)))
        else:
            edits.append(edit_op(stream, index, "merge", x, *merge_pair(torus, x, rng)))
    n_pairs = ((INF, INF), (4.0, 4.0), (2.0, 6.0))
    ts = (2.5, 6.0)
    side = []
    for k in range(10):
        x = c8.vertex_ids[int(rng.integers(8))]
        x2 = q4.vertex_ids[int(rng.integers(16))]
        kind = k % 4
        if kind == 0:
            side.append(cartesian_op(c8, q4))
        elif kind == 1:
            side.append(decomposition_op(c8, q4, product, x, x2, *n_pairs[k // 4]))
        elif kind == 2:
            side.append(profile_op(product, product_vertex(x, x2)))
        else:
            side.append(star_op(c8, q4, product, x, x2, ts[k // 4]))
    ops = []
    for group in range(5):
        ops.extend(edits[5 * group:5 * group + 5] + side[2 * group:2 * group + 2])
    return ops


# -- cli --------------------------------------------------------------------

CLI_WHY = ("python -m concurv.cli curvature --oracle --matrix, profile and validate on a 0.4 MB "
           "torus document: interpreter start, import and whole-document load")


def cli_setup(seed, tr, workdir: str):
    doc = gen.torus(TORUS_SIDE, 2, [seed, 8])
    path = os.path.join(workdir, "torus.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("graphs.load_graph"):
        g = load_graph(text)
    return {"path": path, "graph": g}


def cli_child_env() -> dict:
    """The checkout's own code, with the BLAS thread pin of this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return env


def cli_op(ctx: dict, argv: list[str], key: str, check, assembled: int) -> Op:
    def run(tr):
        with tr.span("cli.subprocess"):
            proc = subprocess.run([sys.executable, "-m", "concurv.cli", "--json", *argv],
                                  env=cli_child_env(), capture_output=True, text=True,
                                  timeout=120)
        return {"_returncode": proc.returncode, "_stdout": proc.stdout, "_stderr": proc.stderr}

    def checked(values):
        if values["_returncode"] != 0:
            return f"exit code {values['_returncode']}: {values['_stderr'].strip()[-200:]}"
        try:
            results = json.loads(values["_stdout"])["results"]
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc}"
        return check(results, values)

    def attribute(tr, values):
        with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--json", *argv])
        with open(ctx["path"], encoding="utf-8") as fh:
            text = fh.read()
        with tr.span("cli.load_graph"):
            load_graph(text)

    return Op(key=key, run=run, check=checked, attribute=attribute, assembled_bytes=assembled)


def cli_plan(ctx, seed):
    rng = np.random.default_rng([seed, 40])
    g, path = ctx["graph"], ctx["path"]
    grid = [float(n) for n in CLI_GRID.split(",")]
    ops = []
    for v in (g.vertex_ids[i] for i in rng.choice(len(g.vertex_ids), size=4, replace=False)):
        loc = local_structure(g, v)
        k, _ = curvature(loc, INF)
        profile = [kn for _, kn, _ in curvature_profile(loc, grid).samples]

        def check_curvature(results, values, k=k, loc=loc):
            values["K_inf"] = results["curvature"]
            values["oracle_gap"] = results["oracle_gap"]
            m = loc.m * loc.d
            return first_failure(
                mismatch("CLI curvature", results["curvature"], k, VALUE_TOL),
                None if results["oracle_agreement"] is True else "oracle disagreement",
                None if np.shape(results["a_n"]) == (m, m, 2) else "a_n has the wrong shape",
            )

        def check_profile(results, values, profile=profile):
            ks = [row["K"] for row in results["profile"]]
            for n, kn in zip(CLI_GRID.split(","), ks):
                values[f"K_{n}"] = kn
            if len(ks) != len(profile):
                return f"profile has {len(ks)} samples"
            return first_failure(*(mismatch(f"profile K({n})", a, b, VALUE_TOL)
                                   for n, a, b in zip(CLI_GRID.split(","), ks, profile)))

        ops.append(cli_op(ctx, ["curvature", path, "--vertex", v, "--oracle", "--matrix"],
                          f"curvature/{v}", check_curvature, ball_bytes(loc)))
        ops.append(cli_op(ctx, ["profile", path, "--vertex", v, "--grid", CLI_GRID],
                          f"profile/{v}", check_profile, ball_bytes(loc)))

    def check_validate(results, values):
        if (results.get("valid"), results.get("vertices"), results.get("edges")) != (True, 900,
                                                                                     1800):
            return f"validate reported {results}"
        return None

    ops.append(cli_op(ctx, ["validate", path], "validate", check_validate, 0))
    return ops


WORKLOADS = {
    # Tail percentiles fixed from the sample counts of a 50 s run: about 18000
    # sweep ops, 1800 edit ops, 180 cli ops and 100 oracle ops.
    "sweep": Workload("sweep", SWEEP_WHY, sweep_setup, sweep_plan, 99.0, verify=sweep_verify),
    "oracle": Workload("oracle", ORACLE_WHY, oracle_setup, oracle_plan, 75.0),
    "edit": Workload("edit", EDIT_WHY, edit_setup, edit_plan, 99.0),
    "cli": Workload("cli", CLI_WHY, cli_setup, cli_plan, 90.0, children=True),
}
