import json

import pytest

from empathica.cli import main
from empathica.io import (
    GameFileError,
    canonical_json,
    fixtures_dir,
    load_game_file,
    resolve_input,
)


def run(*argv):
    return main(list(argv))


class TestGameFiles:
    def test_load_fixture(self):
        g, lam = load_game_file(fixtures_dir() / "pd.json")
        assert (g.a11, g.a12, g.a21, g.a22) == (3.0, 0.0, 5.0, 1.0)
        assert (g.b11, g.b12, g.b21, g.b22) == (3.0, 5.0, 0.0, 1.0)
        assert lam.entries() == (1.0, 0.0, 0.0, 1.0)

    def test_missing_lambda_defaults_to_identity(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"A": [[1,2],[3,4]], "B": [[4,3],[2,1]]}')
        _, lam = load_game_file(p)
        assert lam.entries() == (1.0, 0.0, 0.0, 1.0)

    def test_malformed_json_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(GameFileError):
            load_game_file(p)

    def test_wrong_shape_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"A": [[1,2,3]], "B": [[1,2],[3,4]]}')
        with pytest.raises(GameFileError):
            load_game_file(p)

    def test_resolve_fixture_by_name(self):
        assert resolve_input("matching_pennies").name == "matching_pennies.json"
        with pytest.raises(GameFileError):
            resolve_input("no_such_game")

    def test_fixture_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMPATHICA_FIXTURES", str(tmp_path))
        (tmp_path / "custom.json").write_text(
            '{"A": [[1,0],[0,1]], "B": [[1,0],[0,1]]}'
        )
        assert resolve_input("custom") == tmp_path / "custom.json"


class TestExitCodes:
    def test_parse_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("classify", "--input", str(bad)) == 1
        assert "empathica:" in capsys.readouterr().err

    def test_missing_input_is_exit_1(self):
        assert run("solve", "--input", "definitely_missing.json") == 1

    def test_equal_constraint_coefficients_is_exit_2(self, capsys):
        code = run("ess", "--input", "pd", "--sigma", "1", "--mu", "0",
                   "--c1", "1", "--c2", "1", "--V", "0.5")
        assert code == 2
        assert "c1 ≠ c2" in capsys.readouterr().err

    def test_bad_resolution_is_exit_2(self, tmp_path):
        out = tmp_path / "map.csv"
        code = run("sweep", "--input", "pd", "--grid", "1", "--out", str(out))
        assert code == 2

    def test_non_finite_lambda_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[3,0],[5,1]], "B": [[3,5],[0,1]], "Lambda": [[1,0],[0,1e999]]}')
        assert run("solve", "--input", str(bad)) == 1
        assert "l22 must be a finite real number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"A": [[true, 0], [5, 1]], "B": [[3,5],[0,1]]}',
            '{"A": [[3,0],[5,1]], "B": [[3,5],[0,1]], "Lambda": [[1,false],[0,1]]}',
        ],
    )
    def test_boolean_entry_is_exit_1(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(GameFileError):
            load_game_file(bad)
        assert run("solve", "--input", str(bad)) == 1

    @pytest.mark.parametrize(
        "game, ranges",
        [
            ('{"A": [[1e308,0],[5,1]], "B": [[1e308,5],[0,1]]}', "-1:2"),
            ('{"A": [[3,0],[5,1]], "B": [[3,5],[0,1]]}', "-1e308:1e308"),
        ],
    )
    def test_sweep_overflow_is_exit_2(self, tmp_path, capsys, game, ranges):
        src = tmp_path / "g.json"
        src.write_text(game)
        code = run("sweep", "--input", str(src), f"--range-l12={ranges}",
                   f"--range-l21={ranges}", "--grid", "12", "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "must be a finite real number" in capsys.readouterr().err


class TestTransformCommand:
    def test_identity_roundtrip_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "t1.json"
        out2 = tmp_path / "t2.json"
        assert run("transform", "--input", "pd", "--out", str(out1)) == 0
        assert run("transform", "--input", str(out1), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_inline_lambda_override(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("transform", "--input", "pd",
                   "--lambda", "1", "1", "1", "1", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["A"] == [[6.0, 5.0], [5.0, 2.0]]
        assert obj["B"] == [[6.0, 5.0], [5.0, 2.0]]
        assert obj["Lambda"] == [[1.0, 0.0], [0.0, 1.0]]


class TestClassifyCommand:
    def test_pd(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("classify", "--input", "pd", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["class"] == "DominantStrategy"
        assert obj["dominant_action_p1"] == 2

    def test_stdout_when_no_out(self, capsys):
        assert run("classify", "--input", "matching_pennies") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["class"] == "Discoordination"

    @pytest.mark.parametrize("tie_tol", ["nan", "-1", "inf"])
    def test_bad_tie_tolerance_is_exit_2(self, tie_tol, capsys):
        assert run("classify", "--input", "pd", f"--tie-tol={tie_tol}") == 2
        assert "tie_tol must be a finite non-negative number" in capsys.readouterr().err


class TestSolveCommand:
    def test_pd_report(self, tmp_path):
        out = tmp_path / "eq.json"
        assert run("solve", "--input", "pd", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["pure"] == [[2, 2]]
        assert obj["berge"] == [[1, 1]]
        assert obj["label"] == "22"

    def test_transformed_pd(self, tmp_path):
        out = tmp_path / "eq.json"
        assert run("solve", "--input", "pd", "--lambda", "1", "0.9", "0.9", "1",
                   "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert [1, 1] in obj["pure"]


class TestEssCommand:
    def test_unconstrained(self, tmp_path):
        out = tmp_path / "ess.json"
        assert run("ess", "--input", "pd", "--sigma", "1", "--mu", "0",
                   "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["beta1"] == -2.0
        assert obj["beta2"] == 1.0
        assert obj["ess_points"] == [0.0]

    def test_constrained(self, tmp_path):
        out = tmp_path / "ess.json"
        assert run("ess", "--input", "anti_coordination", "--sigma", "1", "--mu", "0",
                   "--c1", "1", "--c2", "0", "--V", "0.3", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["constraint_type"] == "TypeI"
        assert obj["ess_points"] == [0.3]

    def test_partial_constraint_flags_rejected(self):
        assert run("ess", "--input", "pd", "--sigma", "1", "--mu", "0",
                   "--c1", "1") == 2


class TestSimulateCommand:
    def test_trajectory_and_diagnostics(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run("simulate", "--input", "pd", "--protocol", "smith",
                   "--steps", "5000", "--rate", "0.05",
                   "--start", "0.7", "0.6", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p1,p2"
        assert lines[1] == "0,0.7,0.6"
        diag = json.loads((tmp_path / "run.json").read_text())
        assert diag["converged"] is True
        assert diag["limit_point"][0] == pytest.approx(0.0, abs=1e-6)

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--input", "coordination", "--steps", "2000",
                       "--seed", "42", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hybrid_protocol_and_harmonic_schedule(self, tmp_path):
        out = tmp_path / "hyb.csv"
        assert run("simulate", "--input", "pd",
                   "--protocol", "hybrid:smith=0.5,bnn=0.5",
                   "--schedule", "harmonic", "--rate", "0.5",
                   "--steps", "3000", "--start", "0.6", "0.7",
                   "--out", str(out)) == 0
        diag = json.loads((tmp_path / "hyb.json").read_text())
        assert diag["final"][0] < 0.1 and diag["final"][1] < 0.1

    def test_svg_written_when_requested(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run("simulate", "--input", "pd", "--steps", "500",
                   "--start", "0.5", "0.5", "--svg", "--out", str(out)) == 0
        svg = (tmp_path / "run.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestFieldCommand:
    def test_csv_and_svg(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run("field", "--input", "coordination", "--grid", "5",
                   "--svg", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p1,p2,dp1,dp2"
        assert len(lines) == 1 + 25
        assert (tmp_path / "field.svg").exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("field", "--input", "matching_pennies", "--grid", "7",
                       "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run("sweep", "--input", "pd", "--range-l12=-0.2:1.0",
                   "--range-l21=-0.2:1.0", "--grid", "7", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "l12,l21,label"
        assert len(lines) == 1 + 49
        first = lines[1].split(",")
        assert first[0] == "-0.2" and first[1] == "-0.2"
        assert first[2] == "22"
        again = tmp_path / "map2.csv"
        assert run("sweep", "--input", "pd", "--range-l12=-0.2:1.0",
                   "--range-l21=-0.2:1.0", "--grid", "7", "--out", str(again)) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_row_major_order_l21_outer(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run("sweep", "--input", "pd", "--range-l12=0:1",
                   "--range-l21=2:3", "--grid", "2", "--out", str(out)) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [["0.0", "2.0"], ["1.0", "2.0"], ["0.0", "3.0"], ["1.0", "3.0"]]


class TestHierarchyCommand:
    def test_levels_and_verdict(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "pd", "--lambda", "0.4", "0.4", "0.4", "0.4",
                   "--kmax", "6", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,l11_k,l12_k,l21_k,l22_k,eq_signature"
        assert len(lines) == 1 + 6
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert verdict["verdict"] == "StructurallyConsistent"
        assert verdict["spectral"]["limit"] == "Zero"

    def test_inconsistent_weights(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "pd",
                   "--lambda", "-0.4", "-0.4", "-0.4", "-0.4",
                   "--kmax", "6", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert verdict["verdict"] == "Inconsistent"
        assert verdict["first_bad_k"] == 2

    def test_levels_checked_and_guard_hit(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "pd", "--lambda", "0.4", "0.4", "0.4", "0.4",
                   "--kmax", "6", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert (verdict["levels_checked"], verdict["guard_hit"]) == (6, False)
        # lam^2 is past the overflow guard, so only level 1 was compared.
        assert run("hierarchy", "--input", "pd", "--lambda", "1e7", "0", "0", "1e7",
                   "--kmax", "5", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert verdict["verdict"] == "ConsistentUpToK"
        assert (verdict["levels_checked"], verdict["guard_hit"]) == (1, True)

    def test_each_power_is_formed_once_per_walk(self, tmp_path, products):
        # analyze_hierarchy forms lam^2..lam^200 (199), check_consistency
        # lam^2..lam^201 in one walk (200), spectral_limit lam^2 (1).
        assert run("hierarchy", "--input", "pd", "--lambda", "0.5", "0.5", "0.5", "0.5",
                   "--kmax", "200", "--out", str(tmp_path / "h.csv")) == 0
        assert len(products) == 400

    def test_deepest_finite_level(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "matching_pennies", "--lambda", "10", "0", "0", "10",
                   "--kmax", "308", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + 308


class TestCanonicalJson:
    def test_sorted_keys_and_newline(self):
        text = canonical_json({"b": 1, "a": [0.1]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text) == {"b": 1, "a": [0.1]}
