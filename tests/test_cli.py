import json
from pathlib import Path

import pytest

from concurv.cli import fmt_value, main
from concurv.fixtures import fixture_document, fixture_names

from helpers import MALFORMED_DOCUMENTS, NON_FINITE_DOCUMENTS, run_python


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


class TestBadNumbers:
    @pytest.mark.parametrize("argv", [
        ["curvature", "g1_u2", "--vertex", "1", "--N", "abc"],
        ["profile", "g1_u2", "--vertex", "1", "--grid", "1,abc,inf"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A,1", "--N", "x"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A,1", "--N2", "x"],
        ["product", "triangle_signed", "diamond_signed", "--decompose", "A"],
        ["product", "triangle_signed", "diamond_signed", "--alpha", "abc"],
        ["add-edge", "g5_signed", "--vertex", "1", "--yi", "2", "--yj", "3", "--sigma", "[[1"],
        ["add-edge", "g5_signed", "--vertex", "1", "--yi", "2", "--yj", "3",
         "--sigma", "[[[1, 0, 5]]]"],
        ["add-edge", "g5_signed", "--vertex", "1", "--yi", "2", "--yj", "3",
         "--sigma", '[[["1", "0"]]]'],
    ], ids=["N", "grid", "product_N", "product_N2", "decompose", "alpha", "sigma",
            "sigma_cell_too_long", "sigma_string_cells"])
    def test_exits_1(self, argv, fixture_file, capsys):
        argv = [fixture_file(a) if a in fixture_names() else a for a in argv]
        assert main(argv) == 1
        assert "validation error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["foo", "nan", "-1"])
    def test_bad_curv_tol_exits_1(self, value, fixture_file, capsys, monkeypatch):
        monkeypatch.setenv("CURV_TOL", value)
        assert main(["curvature", fixture_file("g1_u2"), "--vertex", "1", "--oracle"]) == 1
        assert "validation error: CURV_TOL" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_table(self, fixture_file, capsys):
        code = main(["profile", fixture_file("g1_u2"), "--vertex", "1",
                     "--grid", "1,2,4,inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("N=") == 4
        assert "constant_from" in out


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

    def test_merge(self, fixture_file, capsys):
        code = main(["merge", fixture_file("g4_signed"), "--vertex", "1",
                     "--zk", "4", "--zl", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4+5" in out

    def test_invalid_edit_exits_1(self, fixture_file, capsys):
        code = main(["add-edge", fixture_file("diamond_signed"), "--vertex", "1",
                     "--yi", "2", "--yj", "3"])
        assert code == 1


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


class TestToleranceOverride:
    def test_curv_tol_env(self, fixture_file, capsys, monkeypatch):
        # an absurdly tight tolerance makes the oracle cross-check fail
        monkeypatch.setenv("CURV_TOL", "1e-15")
        code = main(["curvature", fixture_file("g1_u2"), "--vertex", "1", "--oracle"])
        capsys.readouterr()
        assert code == 2
        monkeypatch.setenv("CURV_TOL", "1e-6")
        code = main(["curvature", fixture_file("g1_u2"), "--vertex", "1", "--oracle"])
        capsys.readouterr()
        assert code == 0


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
