"""Command-line interface.

Subcommands: validate, curvature, profile, product, balance, add-edge,
merge, examples.  Every command builds a deterministic report that renders
either as aligned text (default) or JSON (--json); exit code 0 on success,
1 on validation failure (including a malformed argument), 2 on a numerical
cross-check failure.  Every report records the comparison tolerance
COMPARISON_TOL; ``curvature --oracle`` accepts a gap up to
``COMPARISON_TOL * CurvatureBundle.k_scale(K, K_oracle)`` and records that
bound as ``oracle_bound``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import CrossCheckError, ValidationError
from .curvature import INF, curvature_bundle, curvature_oracle, curvature_profile
from .graphs import _connections, _one_ball, _raw_sigma, is_locally_balanced, load_graph

FRACTION_MAX_DEN = 16
FRACTION_TOL = 1e-9
COMPARISON_TOL = 1e-8   # accepted |K - K_oracle| over k_scale(K, K_oracle)


def _n_value(n: float | None):
    """N for a report: "inf" for infinity, otherwise n itself (None included)."""
    return "inf" if n == INF else n


def parse_n(text: str, option: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{option}: expected a number or inf, got {text!r}") from None


def _fraction_str(v: float) -> str | None:
    frac = Fraction(v).limit_denominator(FRACTION_MAX_DEN)
    if abs(float(frac) - v) > FRACTION_TOL:
        return None
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def fmt_value(v) -> str:
    """9-decimal numbers, printed as exact small fractions when they are one."""
    if isinstance(v, complex):
        re, im = v.real, v.imag
        if abs(im) <= FRACTION_TOL:
            return fmt_value(re)
        re_s = fmt_value(re) if abs(re) > FRACTION_TOL else ""
        im_s = _fraction_str(abs(im)) or f"{abs(im):.9f}"
        sign = "-" if im < 0 else ("+" if re_s else "")
        return f"{re_s}{sign}{im_s}i"
    frac = _fraction_str(float(v))
    return frac if frac is not None else f"{float(v):.9f}"


def fmt_matrix(mat: np.ndarray, indent: str = "  ") -> str:
    cells = [[fmt_value(complex(mat[r, c])) for c in range(mat.shape[1])]
             for r in range(mat.shape[0])]
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join(indent + "  ".join(c.rjust(width) for c in row) for row in cells)


def matrix_to_json(mat: np.ndarray):
    return [[[float(mat[r, c].real), float(mat[r, c].imag)]
             for c in range(mat.shape[1])] for r in range(mat.shape[0])]


def _open(command: str, *paths: str):
    """A command's report and input graphs; the report digests the bytes loaded."""
    data = {}
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data[path] = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    return Report(command, data), [load_graph(data[p]) for p in paths]


class Report:
    """Accumulates result rows and renders them as text or JSON."""

    def __init__(self, command: str, inputs: dict[str, bytes]):
        self.doc = {
            "command": command,
            "inputs": {p: "sha256:" + hashlib.sha256(data).hexdigest()
                       for p, data in inputs.items()},
            "tolerance": COMPARISON_TOL,
            "results": {},
        }
        self._lines: list[str] = []
        self._matrices: list[tuple[str, np.ndarray]] = []

    def add(self, key: str, value, text: str | None = None):
        self.doc["results"][key] = value
        self._lines.append(f"{key:28s} {text if text is not None else value}")

    def add_line(self, text: str):
        self._lines.append(text)

    def add_number(self, key: str, value: float):
        self.doc["results"][key] = float(value)
        self._lines.append(f"{key:28s} {fmt_value(float(value))}")

    def add_matrix(self, key: str, mat: np.ndarray):
        self.doc["results"][key] = matrix_to_json(mat)
        self._matrices.append((key, mat))

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.doc, sort_keys=True, indent=2)
        out = [f"command: {self.doc['command']}"]
        for path, digest in self.doc["inputs"].items():
            out.append(f"input:   {path} ({digest[:15]}...)")
        out.extend(self._lines)
        for key, mat in self._matrices:
            out.append(f"{key}:")
            out.append(fmt_matrix(mat))
        return "\n".join(out)


def _write_json(path: str, doc: dict, make_dir: bool = False) -> None:
    """The one JSON writer of --out and --export, creating the directory when
    ``make_dir``; an OSError (a missing directory, say) is a validation failure."""
    try:
        if make_dir:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_out(report: Report, path: str | None, g) -> None:
    """The --out option: write the graph's JSON document to path, if given."""
    if path:
        _write_json(path, g.to_document())
        report.add("written", path)


def cmd_validate(args) -> tuple[int, Report]:
    report, (g,) = _open("validate", args.graph)
    report.add("dimension", g.dimension)
    report.add("field", g.field)
    report.add("vertices", len(g.vertex_ids))
    report.add("edges", g.index.nbr.size // 2)   # each edge is two oriented rows
    report.add("valid", True)
    return 0, report


def cmd_curvature(args) -> tuple[int, Report]:
    report, (g,) = _open("curvature", args.graph)
    n = parse_n(args.N, "--N")
    loc = _one_ball(g, args.vertex)
    e = curvature_bundle(loc)   # one elimination, as curvature() runs it
    k, mult = e.k(n)
    eig = e.eig
    report.add("vertex", args.vertex)
    report.add("N", _n_value(n))
    report.add_number("curvature", k)
    report.add("multiplicity", mult)
    lam, rank = sorted(eig.lam.tolist(), key=abs, reverse=True), int(np.count_nonzero(eig.keep))
    report.add("kernel_block", {"eigenvalues": lam, "rank": rank, "cutoff": eig.cutoff},
               f"rank {rank} of {len(lam)}, cutoff {eig.cutoff:.3e}, eigenvalues "
               + ", ".join(f"{v:.3e}" for v in lam))
    agree = True
    if args.oracle:
        k_oracle = curvature_oracle(loc, n)
        report.add_number("oracle", k_oracle)
        gap = abs(k_oracle - k)
        report.add_number("oracle_gap", gap)
        bound = COMPARISON_TOL * e.k_scale(k, k_oracle)
        report.add_number("oracle_bound", bound)
        agree = gap <= bound
        report.add("oracle_agreement", agree, None if agree else
                   f"FAIL (gap {gap:.3e} > oracle_bound {bound:.3e})")
    if args.matrix:
        report.add_matrix("a_n", e.a_n(n))
    return (0 if agree else 2), report


def cmd_profile(args) -> tuple[int, Report]:
    report, (g,) = _open("profile", args.graph)
    grid = [parse_n(tok, "--grid") for tok in args.grid.split(",")]
    loc = _one_ball(g, args.vertex)
    profile = curvature_profile(loc, grid)
    rows = []
    for n, k, mult in profile.samples:
        rows.append({"N": _n_value(n), "K": k, "multiplicity": mult})
        report.add_line(
            f"  N={('inf' if n == INF else fmt_value(n)):>12s}  "
            f"K={fmt_value(k):>14s}  mult={mult}"
        )
    report.doc["results"]["profile"] = rows
    report.add("constant_from", _n_value(profile.constant_from))
    report.add("n0", _n_value(profile.n0), "inf" if profile.n0 == INF else fmt_value(profile.n0))
    return 0, report


def cmd_product(args) -> tuple[int, Report]:
    from .product import ProductSpec, cartesian_product, product_decomposition
    report, (g, g2) = _open("product", args.graph, args.graph2)
    spec = ProductSpec(alpha=args.alpha, beta=args.beta, lift=args.lift)
    # |V||V'| vertices and |E||V'| + |V||E'| edges; the whole product is
    # built only to be written or checked, as the decomposition reads balls.
    n_v, n_v2 = len(g.vertex_ids), len(g2.vertex_ids)
    report.add("vertices", n_v * n_v2)
    report.add("edges", g.index.nbr.size // 2 * n_v2 + n_v * (g2.index.nbr.size // 2))
    if args.out or not args.decompose:
        _write_out(report, args.out, cartesian_product(g, g2, spec))
    if args.decompose:
        toks = [tok.strip() for tok in args.decompose.split(",")]
        if len(toks) != 2:
            raise ValidationError(f"--decompose: expected X,X2, got {args.decompose!r}")
        x, x2 = toks
        n = parse_n(args.N, "--N")
        n2 = parse_n(args.N2, "--N2")
        dec = product_decomposition(g, g2, spec, x, x2, n, n2)
        report.add("decompose_at", f"({x}, {x2})")
        report.add_number("residual", dec.residual)
        report.add_number("lambda_min_R", float(np.linalg.eigvalsh(dec.r)[0]) if dec.r.size else 0.0)
        report.add_number("lambda_min_J", float(np.linalg.eigvalsh(dec.j)[0]) if dec.j.size else 0.0)
        report.add("block_order", list(dec.block_order), ", ".join(dec.block_order))
        report.add_matrix("R", dec.r)
        report.add_matrix("J", dec.j)
    return 0, report


def cmd_balance(args) -> tuple[int, Report]:
    report, (g,) = _open("balance", args.graph)
    loc = _one_ball(g, args.vertex)
    report.add("vertex", args.vertex)
    report.add("locally_balanced", is_locally_balanced(loc))
    return 0, report


def _parse_sigma_arg(args, d: int):
    """--sigma and --sign, converted as a document edge's 'sigma' and 'sign'."""
    entry = {} if args.sign is None else {"sign": args.sign}
    if args.sigma is not None:
        try:
            entry["sigma"] = json.loads(args.sigma)
        except ValueError:
            raise ValidationError(
                f"--sigma: expected JSON rows of [re, im] pairs, got {args.sigma!r}") from None
    if not entry:
        return None
    where = ("--sign" if args.sigma is None else "--sigma" if args.sign is None
             else f"edge ({args.yi!r}, {args.yj!r})")
    return _connections([_raw_sigma(entry, d, where)], d, lambda k: where, cells=True)[0][0]


def cmd_add_edge(args) -> tuple[int, Report]:
    from .local_ops import add_spherical_edge
    report, (g,) = _open("add-edge", args.graph)
    sigma = _parse_sigma_arg(args, g.dimension)
    g_new, edit = add_spherical_edge(g, args.vertex, args.yi, args.yj,
                                     w_new=args.weight, sigma_new=sigma)
    report.add("vertex", args.vertex)
    report.add("edge", f"{args.yi} -- {args.yj}")
    report.add_number("curvature_before", edit.before)
    report.add_number("curvature_after", edit.after)
    report.add("gamma2_difference_psd", edit.delta_psd)
    _write_out(report, args.out, g_new)
    return 0, report


def cmd_merge(args) -> tuple[int, Report]:
    from .local_ops import merge_s2
    report, (g,) = _open("merge", args.graph)
    g_new, edit = merge_s2(g, args.vertex, args.zk, args.zl)
    report.add("vertex", args.vertex)
    report.add("merged", f"{args.zk}+{args.zl}")
    report.add_number("curvature_before", edit.before)
    report.add_number("curvature_after", edit.after)
    _write_out(report, args.out, g_new)
    return 0, report


def cmd_examples(args) -> tuple[int, Report]:
    from . import examples_registry
    report = Report("examples", {})
    failures = 0
    for criterion, name, ok, detail in examples_registry.run():
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        report.doc["results"][name] = {"criterion": criterion, "ok": ok, "detail": detail}
        report.add_line(f"[{status}] {criterion:>3s} {name}{(': ' + detail) if detail else ''}")
    report.add("failures", failures)
    if args.export:
        from .fixtures import fixture_document, fixture_names
        for name in fixture_names():
            _write_json(os.path.join(args.export, f"{name}.json"), fixture_document(name),
                        make_dir=True)
        report.add("exported", args.export)
    return (2 if failures else 0), report


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors, such as a non-numeric ``--alpha``, as validation
    failures (exit 1) instead of argparse's exit 2, the cross-check code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="concurv",
        description="Bakry-Emery curvature of connection graphs.",
    )
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document against the schema")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curvature", help="curvature of one vertex")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--N", default="inf", help="dimension parameter (float or inf)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the bisection oracle")
    p.add_argument("--matrix", action="store_true", help="print the curvature matrix")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("profile", help="curvature function on a grid of N values")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--grid", required=True, help="comma-separated N values, e.g. 1,2,4,inf")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("product", help="Cartesian product of two graphs")
    p.add_argument("graph")
    p.add_argument("graph2")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lift", choices=["same-dimension", "tensor"], default="same-dimension")
    p.add_argument("--out", help="write the product graph JSON here")
    p.add_argument("--decompose", metavar="X,X2",
                   help="report the R/J decomposition at the product vertex (X, X2)")
    p.add_argument("--N", default="inf")
    p.add_argument("--N2", default="inf")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("balance", help="local balancedness at a vertex")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("add-edge", help="add a spherical edge between two neighbors")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--yi", required=True)
    p.add_argument("--yj", required=True)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--sigma", help="connection as JSON rows of [re, im] pairs")
    p.add_argument("--sign", type=int, choices=[1, -1],
                   help="dimension-1 shorthand for the connection")
    p.add_argument("--out", help="write the edited graph JSON here")
    p.set_defaults(func=cmd_add_edge)

    p = sub.add_parser("merge", help="merge two 2-sphere vertices with no common neighbor")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--zk", required=True)
    p.add_argument("--zl", required=True)
    p.add_argument("--out", help="write the edited graph JSON here")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("examples", help="run every bundled example against its expected values")
    p.add_argument("--export", metavar="DIR", help="also write the example graphs as JSON files")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, report = args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 2
    print(report.render(args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
