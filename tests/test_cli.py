import dataclasses
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from empathica import LearningSchedule, PopulationState, RevisionProtocol, hierarchy, simulate
from empathica.cli import main
from empathica.io import (
    GameFileError,
    canonical_json,
    fixtures_dir,
    load_game_file,
    resolve_input,
    trajectory_csv,
    write_text,
)
from oracles import reference_canonical_json, reference_load_game_file

PD_TEXT = '{"A": [[3, 0], [5, 1]], "B": [[3, 5], [0, 1]]}'
# Payoffs whose switch rates overflow the float range.
BIG_TEXT = '{"A": [[1e308, -1e308], [-1e308, 1e308]], "B": [[-1e308, 1e308], [1e308, -1e308]]}'


def run(*argv):
    return main(list(argv))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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

    def test_invalid_utf8_is_malformed_json(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_bytes(PD_TEXT.encode() + b"\xff")
        with pytest.raises(GameFileError, match="malformed JSON"):
            load_game_file(p)

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32-le"])
    def test_utf8_16_and_32_are_read(self, tmp_path, encoding):
        # json.loads detects the encoding from the bytes, so a UTF-8 byte
        # order mark is accepted too (it was "Unexpected UTF-8 BOM" when the
        # file was read as text first).
        p = tmp_path / "g.json"
        p.write_bytes(PD_TEXT.encode(encoding))
        g, _ = load_game_file(p)
        assert (g.a11, g.a21, g.b12) == (3.0, 5.0, 5.0)

    def test_non_ascii_round_trip(self, tmp_path):
        # The bytes are UTF-8 whatever the locale's encoding.
        text = '{"name": "Gefangenendilemma \u2013 \u00e9t\u00e9", ' + PD_TEXT[1:] + "\n"
        p = tmp_path / "g.json"
        write_text(p, text)
        assert p.read_bytes() == text.encode("utf-8")
        g, _ = load_game_file(p)
        assert (g.a11, g.b12) == (3.0, 5.0)

    def test_a_name_that_cannot_be_looked_up_is_no_game_file(self):
        with pytest.raises(GameFileError, match="no such game file"):
            resolve_input("a" * 5000)

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

    def test_unreadable_input_is_exit_1(self, tmp_path, capsys):
        # A directory exists as a path but cannot be read as a game file.
        assert run("solve", "--input", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"empathica: cannot read {tmp_path}: ")

    def test_invalid_utf8_input_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        bad.write_bytes(PD_TEXT.encode() + b"\xff")
        assert run("solve", "--input", str(bad)) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_utf8_bom_input_is_read(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_bytes(PD_TEXT.encode("utf-8-sig"))
        assert run("solve", "--input", str(src)) == 0
        assert json.loads(capsys.readouterr().out)["pure"] == [[2, 2]]

    @pytest.mark.parametrize(
        "command, out",
        [
            (["solve", "--input", "pd"], "."),
            (["sweep", "--input", "pd", "--grid", "3"], "file/x.csv"),
        ],
    )
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, command, out):
        (tmp_path / "file").write_text("kept\n")
        assert run(*command, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("empathica: cannot write: ") and err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (["simulate", "--input", "pd", "--steps", "100"], "r.json"),
            (["field", "--input", "pd", "--svg"], "r.svg"),
            (["hierarchy", "--input", "pd"], "r.json"),
        ],
        ids=["simulate", "field", "hierarchy"],
    )
    def test_a_sibling_that_cannot_be_written_leaves_no_output(
        self, tmp_path, capsys, command, blocked
    ):
        # The sibling's path is a directory, so it fails after r.csv is written.
        (tmp_path / "o" / blocked).mkdir(parents=True)
        assert run(*command, "--out", str(tmp_path / "o" / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("empathica: cannot write: ") and err.count("\n") == 1
        assert [p.name for p in (tmp_path / "o").iterdir()] == [blocked]

    @pytest.mark.parametrize(
        "command, out",
        [
            (["simulate", "--input", "pd", "--steps", "5"], "same.json"),
            (["simulate", "--input", "pd", "--steps", "5", "--svg"], "x.svg"),
            (["field", "--input", "pd", "--svg"], "x.svg"),
            (["hierarchy", "--input", "pd"], "h.json"),
        ],
        ids=["simulate", "simulate-svg", "field-svg", "hierarchy"],
    )
    def test_outputs_sharing_a_path_is_exit_2(self, tmp_path, capsys, command, out):
        # A sibling derived from --out by its suffix is --out itself here, so
        # one file would overwrite the other: nothing is written.
        assert run(*command, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("empathica: ") and str(tmp_path / out) in err
        assert list(tmp_path.iterdir()) == []

    def test_equal_constraint_coefficients_is_exit_2(self, capsys):
        code = run("ess", "--input", "pd", "--sigma", "1", "--mu", "0",
                   "--c1", "1", "--c2", "1", "--V", "0.5")
        assert code == 2
        assert "c1 ≠ c2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--sigma", "1e308", "--mu", "1e308"], "entries must be finite"),
            (["--c1", "1e308", "--c2=-1e308", "--V", "0"], "constraint overflows"),
            (["--c1", "1", "--c2=-1e308", "--V", "1e308"], "constraint overflows"),
        ],
    )
    def test_ess_overflow_is_exit_2(self, tmp_path, capsys, options, message):
        base = {"--sigma": "1", "--mu": "0"}
        argv = [x for k, v in base.items() if k not in options for x in (k, v)]
        out = tmp_path / "ess.json"
        code = run("ess", "--input", "anti_coordination", *argv, *options, "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_ess_overflowing_beta_is_exit_2(self, tmp_path, capsys):
        # Every payoff entry is finite, but beta1 = 1e308 - (-1e308) is not.
        src = tmp_path / "g.json"
        src.write_text('{"A": [[1e308, 0], [-1e308, 0]], "B": [[1e308, -1e308], [0, 0]]}')
        out = tmp_path / "ess.json"
        code = run("ess", "--input", str(src), "--sigma", "1", "--mu", "0", "--out", str(out))
        assert code == 2
        assert "beta1 and beta2 must be finite" in capsys.readouterr().err
        assert not out.exists()

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
            # float() takes a numeric string, but a JSON string is no number.
            pytest.param('{"A": [["3","0"],["5","1"]], "B": [[3,5],[0,1]]}', id="string"),
            # float() raises OverflowError on an integer past the float range.
            pytest.param(
                '{"A": [[1' + "0" * 400 + ', 0], [5, 1]], "B": [[3,5],[0,1]]}',
                id="integer-past-float-range",
            ),
        ],
    )
    def test_boolean_entry_is_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(GameFileError):
            load_game_file(bad)
        assert run("solve", "--input", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("empathica: field ") and err.count("\n") == 1

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


    @pytest.mark.parametrize("axis", ["l12", "l21"])
    @pytest.mark.parametrize("end, given", [("-1:inf", "inf"), ("-inf:1", "-inf"), ("nan:1", "nan")])
    def test_sweep_over_a_non_finite_range_end_is_exit_2(self, tmp_path, capsys, axis, end, given):
        out = tmp_path / "m.csv"
        assert run("sweep", "--input", "pd", f"--range-{axis}={end}", "--grid", "5",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"empathica: {axis} must be a finite real number, got {given}\n"
        assert not out.exists()

    def test_sweep_over_an_overflowing_range_width(self, tmp_path, capsys):
        # hi - lo overflows, but the grid is finite: the first error is the
        # payoff that the weight -1e308 overflows.
        out = tmp_path / "m.csv"
        code = run("sweep", "--input", "pd", "--range-l12=-1e308:1e308",
                   "--range-l21=-1:2", "--grid", "12", "--out", str(out))
        assert code == 2
        assert "a11 must be a finite real number, got -inf" in capsys.readouterr().err
        src = tmp_path / "g.json"
        src.write_text('{"A": [[3,0],[5,1]], "B": [[1e-300,2e-300],[0,1e-300]]}')
        assert run("sweep", "--input", str(src), "--range-l12=-1e308:1e308",
                   "--range-l21=-1:2", "--grid", "3", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows[:3]] == ["-1e+308", "0.0", "1e+308"]


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

    def test_alpha_past_the_float_range_is_null(self, tmp_path):
        # The exact alpha is 1e600; the feasible interval carries the answer.
        out = tmp_path / "ess.json"
        assert run("ess", "--input", "anti_coordination", "--sigma", "1", "--mu", "0",
                   "--c1", "1e-300", "--c2", "0", "--V", "1e300", "--out", str(out)) == 0
        obj = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert obj["alpha"] is None
        assert obj["feasible"] == [0.0, 1.0]
        assert obj["constraint_type"] == "Unconstrained"

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


    def test_hybrid_weights_with_an_infinite_sum_are_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        for protocol, message in [
            ("hybrid:smith=1e308,bnn=1e308", "must have a finite sum"),
            ("hybrid:smith=inf", "must be finite"),
            ("hybrid:smith=nan,bnn=1", "must be finite"),
            ("hybrid:smith=-1,bnn=2", "must be nonnegative"),
        ]:
            assert run("simulate", "--input", "matching_pennies", "--protocol", protocol,
                       "--steps", "50", "--out", str(out)) == 2
            assert capsys.readouterr().err == f"empathica: hybrid weights {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "protocol", ["replicator", "smith", "bnn", "imitation", "hybrid:smith=0.5,bnn=0.5"]
    )
    def test_overflowing_rates_are_exit_2(self, tmp_path, capsys, protocol):
        src = tmp_path / "big.json"
        src.write_text(BIG_TEXT)
        out = tmp_path / "run.csv"
        assert run("simulate", "--input", str(src), "--protocol", protocol, "--rate", "25",
                   "--start", "0.3", "0.6", "--steps", "50", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("empathica: the switch rates overflow the float range")
        assert err.count("\n") == 1
        assert not out.exists()


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

    def test_overflowing_rates_are_exit_2(self, tmp_path, capsys):
        src = tmp_path / "big.json"
        src.write_text(BIG_TEXT)
        out = tmp_path / "field.csv"
        assert run("field", "--input", str(src), "--grid", "3", "--out", str(out)) == 2
        assert "switch rates overflow the float range" in capsys.readouterr().err
        assert not out.exists()


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
        # lam^2 is past the overflow guard, so only level 1 was compared; the
        # structural test reads lam = 1e7 * I alone.
        assert run("hierarchy", "--input", "pd", "--lambda", "1e7", "0", "0", "1e7",
                   "--kmax", "5", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert verdict["verdict"] == "StructurallyConsistent"
        assert (verdict["levels_checked"], verdict["guard_hit"]) == (1, True)

    def test_structural_verdict_reads_lambda_alone(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "pd", "--lambda", "2", "0", "0", "2",
                   "--kmax", "50", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert verdict["verdict"] == "StructurallyConsistent"
        assert verdict["epsilons"] == [2.0**k for k in range(50)]
        # Every fit residual of this matrix is below 1e-9, yet its rows are
        # far from parallel.
        assert run("hierarchy", "--input", "pd", "--lambda", "1e-5", "1e-6", "0", "2e-5",
                   "--kmax", "10", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text())
        assert verdict["verdict"] == "Inconsistent"
        assert (verdict["structurally_consistent"], verdict["epsilons"]) == (False, None)

    def test_each_power_is_formed_once_per_walk(self, tmp_path, products):
        # analyze_hierarchy and check_consistency each form lam^2..lam^200
        # (199), spectral_limit lam^2 (1).
        assert run("hierarchy", "--input", "pd", "--lambda", "0.5", "0.5", "0.5", "0.5",
                   "--kmax", "200", "--out", str(tmp_path / "h.csv")) == 0
        assert len(products) == 399

    def test_trace_past_the_square_root_of_the_float_range(self, tmp_path):
        # tr^2 = 4e308 overflows, while lam^2 is finite: the radius is 1e154.
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "matching_pennies",
                   "--lambda", "1e154", "0", "0", "1e154",
                   "--kmax", "2", "--out", str(out)) == 0
        verdict = json.loads((tmp_path / "h.json").read_text(), parse_constant=_reject_constant)
        assert verdict["spectral"]["rho"] == 1e154
        assert verdict["spectral"]["eigenvalues"] == [[1e154, 0.0], [1e154, 0.0]]

    def test_an_unwritable_report_leaves_no_file(self, tmp_path, monkeypatch):
        real = hierarchy.spectral_limit

        def infinite_radius(lam, k_max):
            return dataclasses.replace(real(lam, k_max), rho=float("inf"))

        monkeypatch.setattr(hierarchy, "spectral_limit", infinite_radius)
        out = tmp_path / "h.csv"
        assert run("hierarchy", "--input", "pd", "--lambda", "0.4", "0.4", "0.4", "0.4",
                   "--kmax", "3", "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_are_rejected(self, value):
        with pytest.raises(ValueError):
            canonical_json({"a": [1.0, value]})


# Every character, control characters and lone surrogates included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | _FLOATS | _TEXT
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, kids, max_size=4),
        max_leaves=25,
    )


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except GameFileError as exc:
        return f"GameFileError: {exc}"


class TestCanonicalJsonOracle:
    @example({"a": [], "b": {}, "c": (), "d": [[], {}]})
    @given(_nested(_SCALARS))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_standard_library(self, obj):
        assert canonical_json(obj) == reference_canonical_json(obj)

    @given(_nested(_SCALARS | st.sampled_from([math.nan, math.inf, -math.inf])
                   | st.builds(set) | st.builds(bytes) | st.builds(object)))
    @settings(max_examples=400, deadline=None)
    def test_raises_as_the_standard_library(self, obj):
        try:
            expected = reference_canonical_json(obj)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                canonical_json(obj)
            assert str(got.value) == str(exc)
        else:
            assert canonical_json(obj) == expected

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_a_key_that_is_not_a_str_raises_type_error(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_json({"a": 0, key: 1})


# Entries that are no JSON number: booleans, numeric strings, integers past
# the float range, null and containers.
_WRONG = (
    st.booleans() | st.none() | st.integers(10**308, 10**400) | st.integers(-(10**400), -(10**308))
    | st.sampled_from(["3", "1.5", "NaN", "", [], {}, [1.0], {"0": 1.0}])
)
# A finite number; NaN or an infinity (json.dumps writes it as a NaN or
# Infinity token) one time in twenty, and a wrong entry one time in twenty.
_ENTRIES = st.integers(0, 19).flatmap(
    lambda k: st.sampled_from([math.nan, math.inf, -math.inf]) if k == 0
    else _WRONG if k == 1 else _FLOATS | st.integers(-10, 10)
)
_ROW = st.lists(_ENTRIES, min_size=2, max_size=2)
_BAD_SHAPE = (
    st.lists(_ENTRIES, max_size=3) | st.dictionaries(st.sampled_from(["0", "1", "ab"]), _ENTRIES)
    | st.text(max_size=3) | _ENTRIES
)
# Two rows of two entries four times in five, so that B and Lambda are
# reached too; else rows of the wrong number or shape.
_MATRIX = st.integers(0, 4).flatmap(
    lambda k: st.lists(_ROW, min_size=2, max_size=2) if k
    else st.lists(_ROW | _BAD_SHAPE, min_size=2, max_size=2) | st.lists(_ROW, max_size=3) | _BAD_SHAPE
)
_GAME_FILES = st.fixed_dictionaries(
    {"A": _MATRIX, "B": _MATRIX}, optional={"Lambda": _MATRIX, "note": _TEXT}
)


class TestGameFileOracle:
    @example({"A": [[3, 0], [5, 1]], "B": [[3, 5], [0, 1]], "Lambda": [[math.nan, 0], [0, 1]]})
    @example({"A": [[3, 0], [5, 1]], "B": [[math.inf, 5], [0, 1]], "Lambda": [[1, 0], [0, -math.inf]]})
    @example({"A": [[3, 0], [5, 1]], "B": {"0": [1, 2], "1": [3, 4]}})
    @example({"A": [[3, 0], "ab"], "B": [[3, 5], [0, 1]]})
    @example({"A": [[3, 0], [5, 1]], "B": [[3, 5], [True, 1]]})
    @example([[[3, 0], [5, 1]], [[3, 5], [0, 1]]])
    @given(_GAME_FILES)
    @settings(max_examples=600, deadline=None)
    def test_matches_the_reference_reader(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "game.json"
        path.write_text(json.dumps(obj))
        assert _outcome(load_game_file, path) == _outcome(reference_load_game_file, path)


class TestTrajectoryCsv:
    @pytest.mark.parametrize(
        "start, row", [((0, 1), "0,0.0,1.0"), ((True, False), "0,1.0,0.0")],
        ids=["int", "bool"],
    )
    def test_an_int_or_bool_start_is_written_as_a_float(self, pd, start, row):
        traj = simulate(PopulationState(*start), RevisionProtocol.replicator(),
                        LearningSchedule.constant(0.05), pd, 3)
        assert trajectory_csv(traj).splitlines()[1] == row


class TestWriteText:
    def test_missing_parents_are_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "c.csv"
        write_text(out, "x\n")
        assert out.read_bytes() == b"x\n"

    def test_a_longer_file_is_truncated(self, tmp_path):
        out = tmp_path / "c.csv"
        out.write_bytes(b"0123456789" * 100)
        write_text(out, "short\n")
        assert out.read_bytes() == b"short\n"

    def test_the_bytes_are_the_utf8_encoding(self, tmp_path):
        text = "\u00e9t\u00e9 \u2013 \u03bb\u2081\u2082 \U0001f600\n" * 3000
        out = tmp_path / "c.txt"
        write_text(out, text)
        assert out.read_bytes() == text.encode("utf-8")

    def test_an_unencodable_text_leaves_the_file_as_it_was(self, tmp_path):
        out = tmp_path / "c.csv"
        out.write_bytes(b"old contents\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(out, "new \ud800 contents\n")
        assert out.read_bytes() == b"old contents\n"

    def test_no_directory_is_made_when_the_parent_exists(self, tmp_path, monkeypatch):
        def no_mkdir(self, *args, **kwargs):
            raise AssertionError(f"mkdir {self}")

        monkeypatch.setattr(pathlib.Path, "mkdir", no_mkdir)
        write_text(tmp_path / "c.csv", "x\n")
        write_text(tmp_path / "c.csv", "y\n")
        assert (tmp_path / "c.csv").read_bytes() == b"y\n"
