"""The concurv benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload sweep --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --smoke               # a few ops of every workload
    python3 bench/run.py --write-reference     # re-record reference.json

One run measures one workload in this process: set-up (document generation
and ``load_graph``, repeated SETUP_REPS times, median reported), then a closed
loop with one caller, each op starting when the previous one has finished,
for ``--seconds`` seconds.  There are no queues and no threads, so nothing
waits and no wait-time metric exists.  Every op's values are checked; the
last line of standard output is the JSON result.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run (spans are written to ``bench/out/``).
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: default threading
# made small dense eigensolves many times slower on a 2-core machine.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

DEFAULT_SEED = 0        # the seed reference.json was recorded with
SETUP_REPS = 5
WARMUP_OPS = 2
PROBE_SECONDS = 1.0
P50_WINDOWS = 10
WAIT_NOTE = "closed loop, one caller, no queues or threads: no op waits, so no wait-time metric"

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, the workload whose ops measure it).  A traced run
# takes each metric from its own ops where they exercise that layer, and
# otherwise from a short probe of the named workload.  None: always its own.
PER_LAYER = {
    "graphs.local_structure_us": ("us", "sweep"),
    "operators.gamma2_matrix_us": ("us", "sweep"),
    "operators.q_matrix_self_us": ("us", "sweep"),
    "curvature.bundle_self_us": ("us", "sweep"),
    "hermitian.schur_complement_us": ("us", "sweep"),
    "hermitian.min_eig_us": ("us", "sweep"),
    "curvature.curvature_us": ("us", "sweep"),
    "curvature.oracle_ms": ("ms", "oracle"),
    "curvature.oracle_share": ("ratio", "oracle"),
    "tensor.matrix_check_ms": ("ms", "oracle"),
    "curvature.max_oracle_gap": ("abs", "oracle"),
    "operators.assembled_bytes": ("bytes", None),
    "graphs.construct_ms": ("ms", "edit"),
    "local_ops.add_spherical_edge_ms": ("ms", "edit"),
    "local_ops.merge_s2_ms": ("ms", "edit"),
    "local_ops.construct_share": ("ratio", "edit"),
    "product.cartesian_ms": ("ms", "edit"),
    "product.decomposition_ms": ("ms", "edit"),
    "product.star_ms": ("ms", "edit"),
    "curvature.profile_ms": ("ms", "edit"),
    "graphs.load_graph_ms": ("ms", None),
    "cli.import_ms": ("ms", "cli"),
    "cli.main_ms": ("ms", "cli"),
    "cli.load_share": ("ratio", "cli"),
    "trace.overhead_frac": ("ratio", None),
}


def import_program():
    """Import the checkout's own package; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "concurv", "__init__.py")):
        sys.exit(f"bench: no concurv package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import numpy
    import spans
    import workloads
    return numpy, spans, workloads


np, spans, workloads = import_program()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "nproc": len(os.sched_getaffinity(0)), "thread_pin": PIN, "seed": seed}


class Loop:
    """Outcome of running ops: latencies, failures and the values seen."""

    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []     # op start, seconds after the loop started
        self.failures: list[str] = []
        self.results: dict[str, dict[str, float]] = {}
        self.oracle_gaps: list[float] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def curvature_values(values: dict) -> dict[str, float]:
    return {k: float(v) for k, v in values.items() if k.startswith("K")}


def check_op(op, values: dict, reference: dict | None, loop: Loop) -> str | None:
    msg = op.check(values)
    if msg:
        return msg
    ks = curvature_values(values)
    bad = [k for k, v in ks.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {bad}"
    seen = loop.results.setdefault(op.key, ks)
    for name, v in ks.items():
        msg = workloads.mismatch(f"{name} on a repeat", v, seen[name], workloads.VALUE_TOL)
        if msg:
            return msg
    if reference is not None:
        want = reference.get(op.key)
        if want is None or set(want) != set(ks):
            return "no reference recorded for these values"
        for name, v in ks.items():
            msg = workloads.mismatch(f"{name} against the reference", v, want[name],
                                     workloads.VALUE_TOL)
            if msg:
                return msg
    return None


def run_ops(ops, tracer, reference, loop: Loop, *, seconds=None, count=None, min_count=0,
            attribute=False) -> Loop:
    """Run the op cycle from its start for ``count`` ops, or for ``seconds``
    and at least ``min_count`` ops."""
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    i = 0
    while (i < count) if count is not None else (time.perf_counter() < deadline
                                                  or i < min_count):
        op = ops[i % len(ops)]
        tracer.op_id, tracer.op_key, tracer.phase = i, op.key, "op"
        t0 = time.perf_counter()
        loop.starts.append(t0 - start)
        # The loop must go on: an op that raises, or whose output its check
        # cannot read, fails with the traceback as its failure record.
        try:
            values = op.run(tracer)
        except Exception:
            values, msg = None, traceback.format_exc(limit=3)
        loop.latencies.append(time.perf_counter() - t0)
        if values is not None:
            try:
                msg = check_op(op, values, reference, loop)
            except Exception:
                msg = traceback.format_exc(limit=3)
        if msg:
            loop.failures.append(f"{op.key}: {msg}")
        elif "oracle_gap" in values:
            loop.oracle_gaps.append(float(values["oracle_gap"]))
        if attribute and values is not None and op.attribute is not None:
            tracer.phase = "attribution"
            op.attribute(tracer, values)
        i += 1
    loop.elapsed = time.perf_counter() - start
    return loop


def set_up(wl, seed: int, tracer, workdir: str, reps: int):
    """Set the workload up ``reps`` times; returns the context and the times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ctx = wl.setup(seed, tracer, workdir)
        times.append(time.perf_counter() - t0)
    return ctx, times


def load_reference(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[name]


def values_digest(results: dict) -> str:
    lines = sorted(f"{key} {name} {round(v, 9) + 0.0:.9f}"
                   for key, ks in results.items() for name, v in ks.items())
    return "sha256:" + hashlib.sha256("\n".join(lines).encode()).hexdigest()


def windowed_median(loop: Loop) -> float:
    """The median latency of the ops started in each of P50_WINDOWS equal
    time slices of the loop, averaged over the slices that hold an op.

    A shared host alternates between fast and slow phases lasting seconds; a
    plain median jumps to whichever phase covered most of the run, while this
    reads between them in proportion to the time spent in each.
    """
    width = loop.elapsed / P50_WINDOWS
    windows: dict[int, list[float]] = {}
    for start, latency in zip(loop.starts, loop.latencies):
        windows.setdefault(min(int(start / width), P50_WINDOWS - 1), []).append(latency)
    return statistics.fmean(statistics.median(w) for w in windows.values())


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and the number of samples above it."""
    lat = sorted(latencies)
    rank = max(math.ceil(pct / 100.0 * len(lat)) - 1, 0)
    return lat[rank], len(lat) - rank - 1


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float, workdir: str):
    """The untraced run: end-to-end metrics."""
    null = spans.NullTracer()
    reference = load_reference(wl.name, seed)
    ctx, setup_times = set_up(wl, seed, null, workdir, SETUP_REPS)
    ops = wl.plan(ctx, seed)
    warm = run_ops(ops, null, reference, Loop(), count=min(WARMUP_OPS, len(ops)))
    loop = run_ops(ops, null, reference, Loop(), seconds=seconds)
    checks = wl.verify(ctx, loop.results, seed) if wl.verify else []
    tail_s, beyond = percentile(loop.latencies, wl.tail_percentile)
    completed = loop.attempted - len(loop.failures)
    metrics = {
        "ops_per_s": completed / loop.elapsed,
        "op_p50_ms": windowed_median(loop) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(wl.children),
    }
    failures = warm.failures + loop.failures + [msg for msg in checks if msg]
    attempted = warm.attempted + loop.attempted + len(checks)
    details = {
        "samples": loop.attempted, "p50_of_all_ops_ms": statistics.median(loop.latencies) * 1e3,
        "tail_percentile": wl.tail_percentile,
        "samples_above_tail": beyond,
        "failed_frac": len(failures) / attempted, "timed_s": loop.elapsed,
        "setup_reps_s": setup_times, "digest": values_digest(loop.results),
        "distinct_ops": len(loop.results),
    }
    return metrics, attempted, failures, details


def mean_s(tracer, name: str, phase: str | None = None) -> float | None:
    d = tracer.durations(name, phase)
    return sum(d) / len(d) if d else None


def cli_import_ms(reps: int = 3) -> float:
    """``import concurv.cli`` minus ``import numpy``, each in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    times = {"numpy": [], "concurv.cli": []}
    for _ in range(reps):
        for module in times:
            out = subprocess.run([sys.executable, "-c", code.format(module)],
                                 env=workloads.cli_child_env(), capture_output=True,
                                 text=True, timeout=120, check=True).stdout
            times[module].append(float(out))
    return (statistics.median(times["concurv.cli"]) - statistics.median(times["numpy"])) * 1e3


def layer_metrics(tracer, loop: Loop, ops, setups: int) -> dict[str, float]:
    """Every per-layer metric this traced run's spans can give."""
    out: dict[str, float] = {}

    def put(name: str, seconds: float | None, scale: float):
        if seconds is not None:
            out[name] = seconds * scale

    put("graphs.local_structure_us", mean_s(tracer, "graphs.local_structure", "op"), 1e6)
    g2 = mean_s(tracer, "operators.gamma2_matrix")
    q = mean_s(tracer, "operators.q_matrix")
    bundle = mean_s(tracer, "curvature.curvature_bundle")
    put("operators.gamma2_matrix_us", g2, 1e6)
    if q is not None:
        put("operators.q_matrix_self_us", q - g2, 1e6)
        put("curvature.bundle_self_us", bundle - q, 1e6)
    put("hermitian.schur_complement_us", mean_s(tracer, "hermitian.schur_complement"), 1e6)
    put("hermitian.min_eig_us", mean_s(tracer, "hermitian.min_eig"), 1e6)
    put("curvature.curvature_us", mean_s(tracer, "curvature.curvature", "op"), 1e6)

    oracle = tracer.durations("curvature.curvature_oracle")
    if oracle:
        out["curvature.oracle_ms"] = sum(oracle) / len(oracle) * 1e3
        out["curvature.oracle_share"] = sum(oracle) / sum(loop.latencies)
    put("tensor.matrix_check_ms", mean_s(tracer, "tensor.tensor_matrix_check"), 1e3)
    if loop.oracle_gaps:
        out["curvature.max_oracle_gap"] = max(loop.oracle_gaps)
    out["operators.assembled_bytes"] = sum(op.assembled_bytes for op in ops) / len(ops)

    construct = mean_s(tracer, "graphs.construct")
    edits = (tracer.durations("local_ops.add_spherical_edge")
             + tracer.durations("local_ops.merge_s2"))
    put("graphs.construct_ms", construct, 1e3)
    if construct is not None and edits:
        out["local_ops.construct_share"] = construct / (sum(edits) / len(edits))
    for name, span in (("local_ops.add_spherical_edge_ms", "local_ops.add_spherical_edge"),
                       ("local_ops.merge_s2_ms", "local_ops.merge_s2"),
                       ("product.cartesian_ms", "product.cartesian_product"),
                       ("product.decomposition_ms", "product.product_decomposition"),
                       ("product.star_ms", "product.star_product"),
                       ("curvature.profile_ms", "curvature.curvature_profile")):
        put(name, mean_s(tracer, span), 1e3)

    put("graphs.load_graph_ms",
        sum(tracer.durations("graphs.load_graph", "setup")) / setups, 1e3)
    main = mean_s(tracer, "cli.main")
    if main is not None:
        out["cli.main_ms"] = main * 1e3
        out["cli.load_share"] = mean_s(tracer, "cli.load_graph") / main
        out["cli.import_ms"] = cli_import_ms()
    return out


def traced_run(wl, seed: int, seconds: float, workdir: str):
    """The traced run: per-layer metrics, the tracing overhead, spans on disk."""
    reference = load_reference(wl.name, seed)
    tracer = spans.Tracer(wl.name)
    ctx, _ = set_up(wl, seed, tracer, workdir, SETUP_REPS)
    ops = wl.plan(ctx, seed)
    null = spans.NullTracer()
    warm = run_ops(ops, null, reference, Loop(), count=min(WARMUP_OPS, len(ops)))
    # The same ops, untraced and then traced; the difference is the overhead.
    # At least one whole cycle, so every op kind of the workload is traced.
    plain = run_ops(ops, null, reference, Loop(), seconds=seconds / 4, min_count=len(ops))
    loop = run_ops(ops, tracer, reference, Loop(), count=plain.attempted, attribute=True)
    metrics = layer_metrics(tracer, loop, ops, SETUP_REPS)
    metrics["trace.overhead_frac"] = sum(loop.latencies) / sum(plain.latencies) - 1.0
    failures = warm.failures + plain.failures + loop.failures
    attempted = warm.attempted + plain.attempted + loop.attempted
    tracers = [tracer]
    sources = {name: "own" for name in metrics}
    for home in sorted({home for _, home in PER_LAYER.values()} - {None, wl.name}):
        missing = [name for name, (_, h) in PER_LAYER.items() if h == home and name not in metrics]
        if not missing:
            continue
        other = workloads.WORKLOADS[home]
        probe = spans.Tracer(f"probe:{home}")
        pctx, _ = set_up(other, seed, probe, workdir, 1)
        pops = other.plan(pctx, seed)
        ploop = run_ops(pops, probe, load_reference(home, seed), Loop(),
                        seconds=PROBE_SECONDS, attribute=True)
        given = layer_metrics(probe, ploop, pops, 1)
        for name in missing:
            if name in given:
                metrics[name] = given[name]
                sources[name] = probe.label
        failures += ploop.failures
        attempted += ploop.attempted
        tracers.append(probe)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for t in tracers:
            t.write(fh)
    # A metric whose every op failed reads 0; the failures mark the run incorrect.
    ordered = {name: metrics.get(name, 0.0) for name in PER_LAYER}
    details = {"samples": loop.attempted, "sources": sources, "spans_file": os.path.relpath(path)}
    return ordered, attempted, failures, details


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    wl = workloads.WORKLOADS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT_DIR) as workdir:
        if trace:
            metrics, attempted, failures, details = traced_run(wl, seed, seconds, workdir)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, attempted, failures, details = measure(wl, seed, seconds, workdir)
            units = END_TO_END
    print(json.dumps({"environment": environment(seed)}))
    print(json.dumps({"workload": workload, "why": wl.why, "loop": WAIT_NOTE,
                      "failures": failures[:5], **details}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def write_reference() -> int:
    """Record one full op cycle of every workload at the default seed."""
    null = spans.NullTracer()
    recorded = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as workdir:
            ctx, _ = set_up(wl, DEFAULT_SEED, null, workdir, 1)
            ops = wl.plan(ctx, DEFAULT_SEED)
            loop = run_ops(ops, null, None, Loop(), count=len(ops))
        if loop.failures:
            print("\n".join(loop.failures), file=sys.stderr)
            return 1
        recorded[name] = loop.results
        print(f"{name}: {len(loop.results)} ops recorded", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
    return 0


def smoke() -> int:
    """A few ops of every workload, traced and untraced, in fresh processes.

    Asserts that every metric named in BENCHMARK.json is printed with its
    unit, that no op failed and that the workloads' reasons match; prints
    the end-to-end table.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = [f"{w['name']}: why differs from bench/workloads.py" for w in spec["workloads"]
                if workloads.WORKLOADS[w["name"]].why != w["why"]]
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {proc.returncode} "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {lines[-2]}")
            if trace == 0:
                row = " ".join(f"{k}={v['value']:.4g}{v['unit']}"
                               for k, v in result["metrics"].items())
                failed_frac = json.loads(lines[-2])["failed_frac"]
                print(f"{name:7s} {row} failed_frac={failed_frac}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
