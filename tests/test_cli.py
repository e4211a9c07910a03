import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import concurv.graphs as graphs
from concurv import cli, curvature, curvature_matrix, local_structure
from concurv.cli import fmt_value, main
from concurv.fixtures import fixture_document, fixture_names
from concurv.hermitian import PINV_RTOL_SCALE

from helpers import (MALFORMED_DOCUMENTS, NON_FINITE_DOCUMENTS, OVERSIZED_DOCUMENTS, count_calls,
                     diagonal_torus, force_k, random_graph, run_python, scaled_rates)


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fixture_document(name)))
        return str(path)
    return write


class TestFormatting:
    def test_small_fractions(self):
        assert fmt_value(1.5) == "3/2"
        assert fmt_value(0.0625) == "1/16"
        assert fmt_value(2.0) == "2"
        assert fmt_value(-0.25) == "-1/4"

    def test_generic_floats_nine_decimals(self):
        assert fmt_value(0.1234567891) == "0.123456789"
        assert fmt_value(-0.5502159929) == "-0.550215993"

    def test_complex_values(self):
        assert fmt_value(1.5 + 0.25j) == "3/2+1/4i"
        assert fmt_value(-0.875j) == "-7/8i"


class TestCurvatureCommand:
    def test_known_value(self, fixture_file, capsys):
        code = main(["curvature", fixture_file("g1_u2"), "--vertex", "1", "--N", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/2" in out or "1.500000000" in out
        assert "multiplicity" in out

    def test_oracle_cross_check(self, fixture_file, capsys):
        code = main(["curvature", fixture_file("single_edge"), "--vertex", "x",
                     "--N", "inf", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle" in out

    def test_oracle_agrees_at_large_rates(self, tmp_path, capsys):
        # the unit-measure triangle with weights 1e4: K(inf) = 25000
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({
            "dimension": 1, "vertices": [{"id": v} for v in "abc"],
            "edges": [{"u": u, "v": v, "weight": 1e4} for u, v in ("ab", "bc", "ac")]}))
        code = main(["--json", "curvature", str(path), "--vertex", "a", "--oracle"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["oracle_agreement"] is True
        assert results["curvature"] == pytest.approx(25000.0, rel=1e-12)

    def test_oracle_agrees_at_small_n(self, fixture_file, capsys):
        """At N = 1e-25 the oracle brackets K, which the dimension term
        dominates, and agrees with it: exit 0, not a cross-check failure."""
        code = main(["--json", "curvature", fixture_file("g1_u2"), "--vertex", "1",
                     "--N", "1e-25", "--oracle"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["oracle_agreement"] is True

    def test_oracle_agrees_where_the_dimension_term_meets_the_rates(self, fixture_file, capsys):
        """g3_signed vertex 4 at N = 1e-6, where K is about -4e6: the
        oracle's refinement eliminates the Gamma-null directions of its
        cluster, so it agrees with K (dropping them missed by 0.165, more
        than four times the recorded bound)."""
        code = main(["--json", "curvature", fixture_file("g3_signed"), "--vertex", "4",
                     "--N", "1e-6", "--oracle"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["oracle_agreement"] is True

    @pytest.mark.parametrize("n", ["inf", "4"])
    def test_random_graphs_at_large_rates(self, n, tmp_path, capsys):
        """Random graphs with unequal weights scaled by 1e8 (K near 1e7): the
        report, its kernel block and the matrix dump build, and the oracle
        agrees within the default tolerance times the ball's k_scale."""
        rng = np.random.default_rng(49)
        path = tmp_path / "scaled.json"
        for trial in range(6):
            g = scaled_rates(random_graph(rng, d=1 + trial % 3), 1e8)
            path.write_text(json.dumps(g.to_document()))
            argv = ["--json", "curvature", str(path), "--vertex", "1", "--N", n]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["results"]["kernel_block"]["rank"] \
                == g.dimension
            assert main(argv + ["--oracle", "--matrix"]) == 0
            assert json.loads(capsys.readouterr().out)["results"]["oracle_agreement"] is True

    def test_one_elimination_feeds_the_report(self, fixture_file, capsys, monkeypatch):
        """``curvature --oracle --matrix`` eliminates the kernel block once
        and takes one eigh of it, which also feeds the kernel-block report;
        its K is curvature(loc, N) bit for bit and its matrix is
        curvature_matrix(loc, N), at N = inf and at finite N."""
        from concurv.curvature import curvature_bundle
        from concurv.hermitian import _eigh_rank
        path = fixture_file("g1_u2")
        loc = local_structure(graphs.load_graph(Path(path).read_bytes()), "1")
        for n in ("inf", "2.5"):
            want_k, want_mult = curvature(loc, float(n))
            want_a = curvature_matrix(loc, float(n)).mat
            calls = count_calls(monkeypatch, curvature_bundle)
            eighs = count_calls(monkeypatch, _eigh_rank)
            argv = ["--json", "curvature", path, "--vertex", "1", "--N", n, "--oracle", "--matrix"]
            assert main(argv) == 0
            assert calls == ["1"] and len(eighs) == 1
            results = json.loads(capsys.readouterr().out)["results"]
            assert results["curvature"] == want_k and results["multiplicity"] == want_mult
            assert results["a_n"] == cli.matrix_to_json(want_a)
            monkeypatch.undo()

    def test_json_rendering_agrees(self, fixture_file, capsys):
        path = fixture_file("g1_u2")
        main(["--json", "curvature", path, "--vertex", "1", "--N", "inf"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["curvature"] == pytest.approx(1.5, abs=1e-9)
        assert doc["results"]["multiplicity"] == 1

    def test_deterministic_output(self, fixture_file, capsys):
        path = fixture_file("g2_signed")
        main(["--json", "curvature", path, "--vertex", "1"])
        first = capsys.readouterr().out
        main(["--json", "curvature", path, "--vertex", "1"])
        second = capsys.readouterr().out
        assert first == second

    def test_matrix_dump(self, fixture_file, capsys):
        code = main(["curvature", fixture_file("g1_u2"), "--vertex", "1", "--matrix"])
        out = capsys.readouterr().out
        assert code == 0
        assert "a_n:" in out
        assert "23/8" in out


class TestValidateCommand:
    def test_valid_graph(self, fixture_file, capsys):
        code = main(["validate", fixture_file("diamond_u2")])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid" in out

    def test_invalid_graph_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"u": "a", "v": "b",
                       "sigma": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}],
        }))
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "not unitary" in err

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "/nonexistent/graph.json"]) == 1

    @pytest.mark.parametrize("name", sorted({**NON_FINITE_DOCUMENTS, **MALFORMED_DOCUMENTS}))
    def test_rejected_document_exits_1(self, name, tmp_path, capsys):
        text, message = {**NON_FINITE_DOCUMENTS, **MALFORMED_DOCUMENTS}[name]
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and message in err
        assert err.count("validation error:") == 1 and "Traceback" not in err

    def test_oversized_document_exits_1(self, tmp_path, capsys, monkeypatch):
        # in process, with stacking patched to fail: a real run must not allocate
        def no_stack(*args):
            raise AssertionError("connections stacked")

        monkeypatch.setattr(graphs, "_connections", no_stack)
        for doc, message in OVERSIZED_DOCUMENTS:
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("validation error:") and message in err

    def test_non_utf8_document_exits_1(self, tmp_path, capsys):
        # a Latin-1 e-acute in a vertex id
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(fixture_document("single_edge")).replace(
            '"x"', '"x\u00e9"').encode("latin-1"))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "UTF-8" in err

    def test_inputs_digest_the_file_bytes(self, fixture_file, capsys):
        path = fixture_file("g1_u2")
        assert main(["--json", "validate", path]) == 0
        digest = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert json.loads(capsys.readouterr().out)["inputs"] == {path: digest}


class TestBadNumbers:
    @pytest.mark.parametrize("argv", [
        ["curvature", "g1_u2", "--vertex", "1", "--N", "abc"],
        ["curvature", "g1_u2", "--vertex", "1", "--N", "0"],
        ["curvature", "g1_u2", "--vertex", "1", "--N", "-1"],
        ["curvature", "g1_u2", "--vertex", "1", "--N", "nan"],
        ["curvature", "g1_u2", "--vertex", "1", "--N", "1e-320"],
        ["profile", "g1_u2", "--vertex", "1", "--grid", "1,abc,inf"],
        ["profile", "g1_u2", "--vertex", "1", "--grid", "1e-320,1"],
        ["profile", "g1_u2", "--vertex", "1", "--grid", "1,,2"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A,1", "--N", "x"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A,1", "--N", "1e-320"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A,1", "--N2", "x"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A"],
        ["product", "triangle_signed", "diamond_signed", "--alpha", "abc"],
        ["add-edge", "g5_signed", "--vertex", "1", "--yi", "2", "--yj", "3", "--sigma", "[[1"],
        ["add-edge", "g5_signed", "--vertex", "1", "--yi", "2", "--yj", "3",
         "--sigma", "[[[1, 0, 5]]]"],
        ["add-edge", "g5_signed", "--vertex", "1", "--yi", "2", "--yj", "3",
         "--sigma", '[[["1", "0"]]]'],
    ], ids=["N", "N_zero", "N_negative", "N_nan", "N_subnormal", "grid", "grid_subnormal",
            "grid_empty_entry", "product_N", "product_N_subnormal", "product_N2", "decompose",
            "alpha", "sigma", "sigma_cell_too_long", "sigma_string_cells"])
    def test_exits_1(self, argv, fixture_file, capsys):
        argv = [fixture_file(a) if a in fixture_names() else a for a in argv]
        assert main(argv) == 1
        assert "validation error:" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_table(self, fixture_file, capsys):
        code = main(["profile", fixture_file("g1_u2"), "--vertex", "1",
                     "--grid", "1,2,4,inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("N=") == 4
        assert "constant_from" in out

    def test_star_with_large_weights(self, tmp_path, capsys):
        """The 3-leaf star with weights 1e10: N0 = 2 and K constant from
        there, with every check at the scale of the curvature matrix (an
        absolute slack failed it as not monotone, exit 2)."""
        doc = {"dimension": 1, "vertices": [{"id": v} for v in "cabe"],
               "edges": [{"u": "c", "v": v, "weight": 1e10} for v in "abe"]}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        argv = ["profile", str(path), "--vertex", "c", "--grid", "1,2,3,4,8,inf"]
        assert main(["--json", *argv]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["constant_from"] == 2.0
        assert results["n0"] == pytest.approx(2.0, rel=1e-12)
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].split() == ["n0", "2"]

    def test_a_failed_profile_check_exits_2(self, fixture_file, capsys, monkeypatch):
        """A profile read with K(2) one below K(1) = -5/2 is refused as a
        cross-check failure: exit 2, one line on stderr and no traceback."""
        force_k(monkeypatch, importlib.import_module("concurv.curvature"), {2.0: -3.5})
        code = main(["profile", fixture_file("g1_u2"), "--vertex", "1", "--grid", "1,2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("cross-check failure: curvature profile is not monotone")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


class TestProductCommand:
    def test_product_and_decomposition(self, fixture_file, tmp_path, capsys):
        out_path = str(tmp_path / "prod.json")
        code = main(["product", fixture_file("triangle_signed"),
                     fixture_file("diamond_signed"),
                     "--out", out_path, "--decompose", "A,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "residual" in out and "lambda_min_R" in out
        doc = json.loads(Path(out_path).read_text())
        assert doc["dimension"] == 1
        assert len(doc["vertices"]) == 12

    def test_decompose_reads_balls_only(self, tmp_path, capsys):
        """--decompose without --out never builds the whole product, so two
        30x30 diagonal-U(2) tori, whose product exceeds the size limit,
        decompose; the counts are |V||V'| and |E||V'| + |V||E'|."""
        rng = np.random.default_rng(29)
        paths = []
        for k in range(2):
            paths.append(str(tmp_path / f"torus{k}.json"))
            Path(paths[-1]).write_text(json.dumps(diagonal_torus(rng, 30).to_document()))
        assert main(["--json", "product", *paths, "--decompose", "t0_0,t0_0"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["residual"] <= 1e-12
        assert (results["vertices"], results["edges"]) == (900 * 900, 2 * 1800 * 900)
        assert "written" not in results
        assert main(["product", *paths]) == 1
        assert "exceed the limit" in capsys.readouterr().err

    def test_noncommuting_decomposition_exits_1(self, fixture_file, capsys):
        code = main(["product", fixture_file("triangle_u2"), fixture_file("diamond_u2"),
                     "--decompose", "A,1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "commute" in err


class TestEditCommands:
    def test_add_edge(self, fixture_file, tmp_path, capsys):
        out_path = str(tmp_path / "edited.json")
        code = main(["add-edge", fixture_file("g5_signed"), "--vertex", "1",
                     "--yi", "2", "--yj", "3", "--sign", "-1", "--out", out_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "curvature_before" in out and "curvature_after" in out
        doc = json.loads(Path(out_path).read_text())
        assert any(e.get("sigma") or e.get("sign") for e in doc["edges"]) or True

    def test_sigma_argument_matches_sign(self, fixture_file, capsys):
        path = fixture_file("g5_signed")
        argv = ["--json", "add-edge", path, "--vertex", "1", "--yi", "2", "--yj", "3"]
        assert main(argv + ["--sign", "-1"]) == 0
        by_sign = json.loads(capsys.readouterr().out)["results"]
        assert main(argv + ["--sigma", "[[[-1, 0]]]"]) == 0
        by_sigma = json.loads(capsys.readouterr().out)["results"]
        assert by_sigma == by_sign

    def test_sign_takes_the_document_rule(self, fixture_file, capsys):
        """--sign is a document's 'sign' shorthand, so on a d = 2 graph it
        fails with the document's message."""
        code = main(["add-edge", fixture_file("g1_u2"), "--vertex", "2", "--yi", "1",
                     "--yj", "4", "--sign", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "validation error: --sign: 'sign' shorthand is only valid for dimension 1\n")

    def test_sign_with_sigma_names_the_edge(self, fixture_file, capsys):
        """--sign with --sigma is a document edge with both: one error."""
        code = main(["add-edge", fixture_file("g5_signed"), "--vertex", "1", "--yi", "2",
                     "--yj", "3", "--sign", "-1", "--sigma", "[[[1, 0]]]"])
        assert code == 1
        assert capsys.readouterr().err == (
            "validation error: edge ('2', '3'): 'sign' and 'sigma' are both given; give one\n")

    def test_merge(self, fixture_file, capsys):
        code = main(["merge", fixture_file("g4_signed"), "--vertex", "1",
                     "--zk", "4", "--zl", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4+5" in out

    @pytest.mark.parametrize("command, fixtures, options", [
        ("product", ["triangle_signed", "diamond_signed"], []),
        ("add-edge", ["g5_signed"], ["--vertex", "1", "--yi", "2", "--yj", "3", "--sign", "-1"]),
        ("merge", ["g4_signed"], ["--vertex", "1", "--zk", "4", "--zl", "5"]),
    ])
    def test_out_writes_the_graph(self, command, fixtures, options, fixture_file, tmp_path,
                                  capsys):
        """--out writes a document that loads; a path that cannot be written
        exits 1 with a message, not a traceback."""
        argv = [command, *map(fixture_file, fixtures), *options, "--out"]
        out_path = tmp_path / "out.json"
        assert main(argv + [str(out_path)]) == 0
        assert "written" in capsys.readouterr().out
        assert graphs.load_graph(out_path.read_bytes()).dimension == 1
        assert main(argv + [str(tmp_path / "missing" / "out.json")]) == 1
        assert "validation error: cannot write" in capsys.readouterr().err

    def test_invalid_edit_exits_1(self, fixture_file, capsys):
        code = main(["add-edge", fixture_file("diamond_signed"), "--vertex", "1",
                     "--yi", "2", "--yj", "3"])
        assert code == 1

    def test_unknown_vertex_exits_1(self, fixture_file, capsys):
        code = main(["add-edge", fixture_file("g1_u2"), "--vertex", "nope",
                     "--yi", "2", "--yj", "3"])
        assert code == 1
        assert "validation error: vertex 'nope' is not in the graph" in capsys.readouterr().err


class TestExamplesCommand:
    def test_known_discrepancy_is_the_only_failure(self, capsys):
        code = main(["examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert not [line for line in out.splitlines() if line.startswith("[FAIL]")]
        rows_05c = [line for line in out.splitlines() if " 05c " in line]
        assert rows_05c and all(line.startswith("[PASS]") for line in rows_05c)
        assert out.count("[PASS]") >= 30

    def test_export_writes_fixtures(self, tmp_path, capsys):
        code = main(["examples", "--export", str(tmp_path / "graphs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out
        assert (tmp_path / "graphs" / "g1_u2.json").exists()

    def test_a_failed_row_exits_2(self, capsys, monkeypatch):
        """With K(inf) read one too high by the registry's ``_k``, each row
        that reads it prints a FAIL line and is counted; the command exits 2."""
        from concurv import examples_registry
        real = examples_registry._k
        monkeypatch.setattr(examples_registry, "_k", lambda loc: real(loc) + 1.0)
        code = main(["--json", "examples"])
        results = json.loads(capsys.readouterr().out)["results"]
        failed = [name for name, row in results.items() if isinstance(row, dict) and not row["ok"]]
        assert code == 2 and results["failures"] == len(failed) > 0
        code = main(["examples"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2 and sum(line.startswith("[FAIL]") for line in lines) == len(failed)

    def test_export_to_a_file_exits_1(self, tmp_path, capsys):
        """--export writes through --out's JSON writer: a path that is an
        existing file exits 1 with a message instead of a FileExistsError."""
        path = tmp_path / "g1_u2.json"
        path.write_text("{}")
        assert main(["examples", "--export", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: cannot write {path}")
        assert path.read_text() == "{}"


class TestKernelBlockReport:
    """``curvature --json`` reports the kernel block a: its eigenvalues by
    decreasing magnitude, the rank its pseudoinverse keeps and the cutoff."""

    @pytest.mark.parametrize("name, vertex, rank, size", [
        ("g4_signed", "1", 0, 1),         # balanced: a = 0
        ("triangle_signed", "A", 1, 1),   # unbalanced, d = 1: rank d
        ("g1_u2", "1", 1, 2),             # unbalanced in one of d = 2 directions
    ])
    def test_rank_and_cutoff(self, name, vertex, rank, size, fixture_file, capsys):
        argv = ["--json", "curvature", fixture_file(name), "--vertex", vertex]
        assert main(argv) == 0
        block = json.loads(capsys.readouterr().out)["results"]["kernel_block"]
        assert sorted(block) == ["cutoff", "eigenvalues", "rank"]
        lam = block["eigenvalues"]
        assert len(lam) == size and block["rank"] == rank
        assert [abs(v) for v in lam] == sorted((abs(v) for v in lam), reverse=True)
        assert block["cutoff"] == PINV_RTOL_SCALE * size * abs(lam[0])
        assert sum(abs(v) > block["cutoff"] for v in lam) == rank
        assert main(argv[1:]) == 0
        assert f"rank {rank} of {size}" in capsys.readouterr().out


class TestReportedTolerance:
    def test_reported_tolerance_is_applied(self, fixture_file, capsys, monkeypatch):
        """The oracle check passes a gap of half the bound the report records
        as applied and fails one of twice that bound.  The recorded tolerance
        is COMPARISON_TOL: the environment does not set it."""
        monkeypatch.setenv("CURV_TOL", "1e-6")
        argv = ["--json", "curvature", fixture_file("g1_u2"), "--vertex", "1", "--oracle"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == ["command", "inputs", "results", "tolerance"]
        assert report["tolerance"] == cli.COMPARISON_TOL == 1e-8
        k = report["results"]["curvature"]
        for factor, code in ((0.5, 0), (2.0, 2)):
            bound = report["results"]["oracle_bound"]
            monkeypatch.setattr(cli, "curvature_oracle", lambda loc, n: k + factor * bound)
            assert main(argv) == code
            report = json.loads(capsys.readouterr().out)
            assert report["results"]["oracle_agreement"] is (code == 0)
            assert report["results"]["oracle_bound"] == bound
        main(argv[1:])
        assert f"oracle_bound {bound:.3e}" in capsys.readouterr().out


class TestModuleEntryPoint:
    """``python -m concurv.cli`` in a fresh interpreter, the way a shell (and
    the benchmark's cli workload) runs it."""

    def test_validate_and_curvature(self, fixture_file):
        path = fixture_file("g1_u2")
        proc = run_python("-m", "concurv.cli", "--json", "validate", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["valid"] is True
        proc = run_python("-m", "concurv.cli", "--json", "curvature", path, "--vertex", "1",
                        "--oracle")
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        assert results["curvature"] == pytest.approx(1.5, abs=1e-9)
        assert results["oracle_agreement"] is True

    def test_import_loads_only_what_curvature_runs(self):
        proc = run_python("-c", "import sys, concurv.cli; print(' '.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "concurv.graphs" in loaded and "concurv.curvature" in loaded
        unused = {f"concurv.{m}" for m in
                  ("tensor", "product", "local_ops", "examples_registry", "fixtures")}
        assert not loaded & unused
