"""Tests for the command-line interface.

Each test drives ``main(argv)`` in-process and checks output text, exit
codes, and the determinism contract: every stochastic command is seeded,
echoes its seed, and produces byte-identical output for identical seeds
regardless of thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpm_shapley
from lpm_shapley.cli import main

MODEL = {
    "intercept": 0.0,
    "coefficients": [1.0, 1.0],
    "means": [0.0, 0.0],
    "stddevs": [2.0, 1.0],
}
STUDY = {"expected_eta": 1.0, "scaled_sigmas": [2.0, 1.0], "n_samples": 4000, "seed": 77}


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


@pytest.fixture()
def study_path(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(STUDY))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    """CSV body rows: everything between the header and the footer."""
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# seed=")
    return lines[1:-1]


class TestExplain:
    def test_centered_sample_rows(self, capsys, model_path):
        """At the feature means a centered model attributes nothing on the
        score and probability scales; the decision outcome still splits the
        baseline-to-decision gap evenly between the tied features."""
        code, out, _ = run(capsys, ["explain", "--model", model_path, "--x", "0,0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "outcome,baseline,phi_1,phi_2,prediction,residual"
        assert lines[1] == "log_odds,0.0,0.0,0.0,0.0,0.0"
        assert lines[2] == "probability,0.5,0.0,0.0,0.5,0.0"
        assert lines[3] == "decision,0.5,0.25,0.25,1.0,0.0"
        assert lines[4] == "# seed=none, # samples=none"

    def test_single_outcome_flag(self, capsys, model_path):
        code, out, _ = run(
            capsys,
            ["explain", "--model", model_path, "--x", "0.3,-0.7", "--outcome", "probability"],
        )
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 1 and rows[0].startswith("probability,")

    def test_residuals_vanish_for_generic_sample(self, capsys, tmp_path):
        model = dict(MODEL, intercept=1.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, _ = run(capsys, ["explain", "--model", str(path), "--x", "0.3,-0.7"])
        assert code == 0
        for row in data_rows(out):
            assert abs(float(row.split(",")[-1])) <= 1e-10

    def test_three_feature_model_widens_columns(self, capsys, tmp_path):
        model = {
            "intercept": 0.5,
            "coefficients": [1.0, -2.0, 0.5],
            "means": [0.1, 0.0, -0.3],
            "stddevs": [1.0, 2.0, 0.5],
        }
        path = tmp_path / "m3.json"
        path.write_text(json.dumps(model))
        code, out, _ = run(capsys, ["explain", "--model", str(path), "--x", "1,0,2"])
        assert code == 0
        assert out.splitlines()[0] == "outcome,baseline,phi_1,phi_2,phi_3,prediction,residual"

    def test_json_mirror(self, capsys, model_path):
        code, out, _ = run(
            capsys,
            ["explain", "--model", model_path, "--x", "0,0", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"x", "explanations", "residuals", "meta"}
        assert payload["meta"] == {"seed": None, "samples": None}
        assert len(payload["explanations"]) == 3
        first = payload["explanations"][0]
        assert set(first) == {"baseline", "phis", "prediction", "outcome"}

    def test_dimension_mismatch_is_input_error(self, capsys, model_path):
        code, _, _ = run(capsys, ["explain", "--model", model_path, "--x", "1,2,3"])
        assert code == 2

    def test_malformed_x_is_input_error(self, capsys, model_path):
        code, _, _ = run(capsys, ["explain", "--model", model_path, "--x", "1,abc"])
        assert code == 2

    def test_missing_model_file_is_input_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, ["explain", "--model", str(tmp_path / "nope.json"), "--x", "0,0"]
        )
        assert code == 2

    def test_invalid_model_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, _ = run(capsys, ["explain", "--model", str(path), "--x", "0,0"])
        assert code == 2


class TestBaseline:
    def test_report_rows(self, capsys, tmp_path):
        """A positive expected score with substantial variance produces the
        strict baseline ordering, reported as quantity/value rows."""
        model = dict(MODEL, intercept=1.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, _ = run(capsys, ["baseline", "--model", str(path)])
        assert code == 0
        got = dict(row.split(",") for row in data_rows(out))
        assert set(got) == {
            "phi0_eta",
            "phi0_eta_transformed",
            "phi0_prob",
            "phi0_decision",
            "ordering_half_lt_prob",
            "ordering_prob_lt_decision",
            "ordering_decision_lt_transformed",
        }
        assert float(got["phi0_eta"]) == 1.0
        assert got["ordering_half_lt_prob"] == "true"
        assert 0.5 < float(got["phi0_prob"]) < float(got["phi0_decision"])


class TestCurves:
    def test_zero_curve_and_line_rows(self, capsys, model_path):
        code, out, _ = run(
            capsys,
            [
                "curves",
                "--model",
                model_path,
                "--x2-min",
                "-1",
                "--x2-max",
                "1",
                "--steps",
                "3",
                "--outcome",
                "probability",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x2,root_x1,outcome,kind"
        rows = [line.split(",") for line in data_rows(out)]
        kinds = [r[3] for r in rows]
        assert kinds == ["zero_curve"] * 3 + ["same_sign_line"] * 3 + ["opposite_sign_line"] * 3

    def test_centered_model_opposite_lines_coincide_across_outcomes(self, capsys, model_path):
        """With a centered model (and threshold zero) all three outcomes'
        opposite-sign lines collapse to x1 + x2 = 0."""
        for outcome in ("log_odds", "probability", "decision"):
            _, out, _ = run(
                capsys,
                [
                    "curves",
                    "--model",
                    model_path,
                    "--x2-min",
                    "-2",
                    "--x2-max",
                    "2",
                    "--steps",
                    "5",
                    "--outcome",
                    outcome,
                ],
            )
            for row in data_rows(out):
                x2, root, _, kind = row.split(",")
                if kind == "opposite_sign_line":
                    assert float(root) == -float(x2)

    def test_explaining_feature_two(self, capsys, model_path):
        code, out, _ = run(
            capsys,
            [
                "curves",
                "--model",
                model_path,
                "--feature",
                "2",
                "--x2-min",
                "-1",
                "--x2-max",
                "1",
                "--steps",
                "3",
                "--outcome",
                "log_odds",
            ],
        )
        assert code == 0
        roots = [float(r.split(",")[1]) for r in data_rows(out) if r.endswith("zero_curve")]
        assert roots == [0.0, 0.0, 0.0]

    def test_json_payload_shape(self, capsys, model_path):
        code, out, _ = run(
            capsys,
            [
                "curves",
                "--model",
                model_path,
                "--x2-min",
                "-1",
                "--x2-max",
                "1",
                "--steps",
                "3",
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"curves", "meta"}
        assert all(
            set(c) == {"outcome", "feature", "grid", "roots", "lines"} for c in payload["curves"]
        )

    def test_half_bracket_is_input_error(self, capsys, model_path):
        code, _, _ = run(
            capsys,
            [
                "curves",
                "--model",
                model_path,
                "--x2-min",
                "-1",
                "--x2-max",
                "1",
                "--steps",
                "3",
                "--bracket-lo",
                "-2",
            ],
        )
        assert code == 2

    @pytest.mark.parametrize("bracket", [("-100", "-99"), ("-31", "-30.5")])
    def test_bracket_beyond_cap_still_finds_root(self, bracket):
        """A user bracket outside [-cap, cap] (cap = 30 for this model) only
        grows toward the cap, so the log-odds zero of phi1 = x1, at 0, is
        found. The run is a child process with a timeout because a bracket
        that collapses onto the cap would widen forever."""
        model = Path(__file__).resolve().parent.parent / "configs/paper/model_b0_1_s2_1.json"
        argv = [
            "curves", "--model", str(model), "--steps", "3", "--outcome", "log_odds",
            f"--bracket-lo={bracket[0]}", f"--bracket-hi={bracket[1]}",
        ]
        src = str(Path(lpm_shapley.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = "import sys; from lpm_shapley.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in data_rows(proc.stdout)]
        roots = [float(row[1]) for row in rows if row[3] == "zero_curve"]
        assert len(roots) == 3
        assert all(abs(r) <= 1e-10 for r in roots)

    def test_bad_feature_is_input_error(self, capsys, model_path):
        code, _, _ = run(
            capsys,
            ["curves", "--model", model_path, "--feature", "3", "--x2-min", "-1", "--x2-max", "1", "--steps", "3"],
        )
        assert code == 2


class TestGrid:
    def test_linear_score_attribution_equals_own_coordinate(self, capsys, model_path):
        """For a centered normalized model the score attribution of feature 1
        is exactly its own coordinate at every lattice point."""
        code, out, _ = run(
            capsys,
            [
                "grid",
                "--model",
                model_path,
                "--x1-min",
                "-1",
                "--x1-max",
                "1",
                "--x2-min",
                "-1",
                "--x2-max",
                "1",
                "--steps",
                "3",
                "--outcome",
                "log_odds",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,outcome,phi1"
        rows = [line.split(",") for line in data_rows(out)]
        assert len(rows) == 9
        for x1, _, _, phi1 in rows:
            assert float(phi1) == float(x1)

    def test_decision_attribution_jumps_across_boundary(self, capsys, model_path):
        """Adjacent lattice cells straddling the decision boundary show the
        attribution jump (about one half here)."""
        code, out, _ = run(
            capsys,
            [
                "grid",
                "--model",
                model_path,
                "--x1-min",
                "-0.01",
                "--x1-max",
                "0.01",
                "--x2-min",
                "0",
                "--x2-max",
                "0",
                "--steps",
                "2",
                "--outcome",
                "decision",
            ],
        )
        assert code == 2  # degenerate x2 range is rejected

    def test_decision_jump_visible_on_proper_grid(self, capsys, model_path):
        _, out, _ = run(
            capsys,
            [
                "grid",
                "--model",
                model_path,
                "--x1-min",
                "-0.01",
                "--x1-max",
                "0.01",
                "--x2-min",
                "-0.001",
                "--x2-max",
                "0.001",
                "--steps",
                "2",
                "--outcome",
                "decision",
            ],
        )
        by_x1 = {}
        for row in data_rows(out):
            x1, _, _, phi1 = row.split(",")
            by_x1.setdefault(float(x1), []).append(float(phi1))
        jump = min(by_x1[0.01]) - max(by_x1[-0.01])
        assert jump >= 0.4


class TestStudyCommands:
    def test_disagreement_csv_contract(self, capsys, study_path):
        code, out, err = run(capsys, ["disagree-study", "--config", study_path])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "expected_eta,b1s1,b2s2,pair,sign_pct,top_pct"
        pairs = [line.split(",")[3] for line in data_rows(out)]
        assert pairs == [
            "log_odds_vs_probability",
            "probability_vs_decision",
            "log_odds_vs_decision",
        ]
        assert lines[-1] == "# seed=77, # samples=4000"
        assert "seed=77" in err

    def test_rates_count_whole_samples(self, capsys, study_path):
        _, out, _ = run(capsys, ["disagree-study", "--config", study_path])
        for row in data_rows(out):
            for cell in row.split(",")[4:]:
                count = float(cell) * STUDY["n_samples"] / 100.0
                assert abs(count - round(count)) < 1e-9

    def test_importance_csv_contract(self, capsys, study_path):
        code, out, _ = run(capsys, ["importance-study", "--config", study_path])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "outcome,I1,I2,relative,excess"
        outcomes = [line.split(",")[0] for line in data_rows(out)]
        assert outcomes == ["log_odds", "probability", "decision"]
        log_odds = data_rows(out)[0].split(",")
        assert float(log_odds[-1]) == 0.0

    def test_seed_override_changes_results_and_footer(self, capsys, study_path):
        _, base, _ = run(capsys, ["disagree-study", "--config", study_path])
        _, other, err = run(capsys, ["disagree-study", "--config", study_path, "--seed", "78"])
        assert other.strip().endswith("# seed=78, # samples=4000")
        assert "seed=78" in err
        assert base != other

    def test_samples_override(self, capsys, study_path):
        _, out, _ = run(capsys, ["disagree-study", "--config", study_path, "--samples", "1000"])
        assert out.strip().endswith("# seed=77, # samples=1000")

    def test_byte_determinism_across_runs_and_threads(self, capsys, study_path):
        outs = []
        for threads in ("1", "4", "1"):
            _, out, _ = run(
                capsys, ["disagree-study", "--config", study_path, "--threads", threads]
            )
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        imps = []
        for threads in ("1", "4"):
            _, out, _ = run(
                capsys, ["importance-study", "--config", study_path, "--threads", threads]
            )
            imps.append(out)
        assert imps[0] == imps[1]

    def test_thread_env_variable_equivalent_to_flag(self, capsys, study_path, monkeypatch):
        _, flagged, _ = run(capsys, ["disagree-study", "--config", study_path, "--threads", "3"])
        monkeypatch.setenv("LPM_SHAPLEY_THREADS", "3")
        _, via_env, _ = run(capsys, ["disagree-study", "--config", study_path])
        assert flagged == via_env

    def test_fresh_seed_drawn_echoed_and_replayable(self, capsys, tmp_path):
        """Without a seed anywhere, each run draws a fresh one and prints it
        to stderr; replaying with --seed reproduces the bytes."""
        config = {k: v for k, v in STUDY.items() if k != "seed"}
        path = tmp_path / "unseeded.json"
        path.write_text(json.dumps(config))
        _, first_out, first_err = run(capsys, ["disagree-study", "--config", str(path)])
        _, second_out, second_err = run(capsys, ["disagree-study", "--config", str(path)])
        assert first_err != second_err  # different fresh seeds
        assert first_out != second_out  # footers differ at minimum
        seed = first_err.strip().split("seed=")[1]
        _, replay, _ = run(capsys, ["disagree-study", "--config", str(path), "--seed", seed])
        assert replay == first_out

    def test_degenerate_decision_cells_render_empty(self, capsys, tmp_path):
        config = {"expected_eta": 1.0, "scaled_sigmas": [0.02, 0.01], "n_samples": 2000, "seed": 5}
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(config))
        _, out, _ = run(capsys, ["disagree-study", "--config", str(path)])
        rows = {line.split(",")[3]: line.split(",")[4:] for line in data_rows(out)}
        assert rows["probability_vs_decision"] == ["", ""]
        assert rows["log_odds_vs_decision"] == ["", ""]
        assert all(cell for cell in rows["log_odds_vs_probability"])

    def test_json_mirror_carries_meta(self, capsys, study_path):
        _, out, _ = run(capsys, ["importance-study", "--config", study_path, "--format", "json"])
        payload = json.loads(out)
        assert payload["meta"] == {"seed": 77, "samples": 4000}
        assert set(payload["importance"]) == {"log_odds", "probability", "decision"}

    def test_bad_config_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"expected_eta": 0.0}))
        code, _, _ = run(capsys, ["disagree-study", "--config", str(path)])
        assert code == 2


class TestBaselineSweep:
    def test_sweep_rows(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"expected_eta": 1.0, "variances": [0.01, 1.0, 100.0]}))
        code, out, _ = run(capsys, ["baseline-sweep", "--config", str(path)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "variance,phi0_eta,phi0_eta_transformed,phi0_prob,phi0_decision"
        assert len(data_rows(out)) == 3
        assert lines[-1] == "# seed=none, # samples=none"
        probs = [float(r.split(",")[3]) for r in data_rows(out)]
        assert probs[0] > probs[1] > probs[2]

    def test_bad_variance_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"expected_eta": 1.0, "variances": [-1.0]}))
        code, _, _ = run(capsys, ["baseline-sweep", "--config", str(path)])
        assert code == 2


class TestMalformedInput:
    SWEEP = {"expected_eta": 1.0, "variances": [0.01, 1.0]}

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            ("disagree-study", "--config", dict(STUDY, scaled_sigmas=5)),
            ("disagree-study", "--config", dict(STUDY, expected_eta=None)),
            ("disagree-study", "--config", dict(STUDY, n_samples=None)),
            ("importance-study", "--config", dict(STUDY, seed=None)),
            ("baseline-sweep", "--config", dict(SWEEP, eta_star=None)),
            ("baseline-sweep", "--config", dict(SWEEP, variances=[None])),
            ("baseline", "--model", dict(MODEL, intercept=None)),
        ],
        ids=[
            "study-scaled_sigmas",
            "study-expected_eta",
            "study-n_samples",
            "study-seed",
            "sweep-eta_star",
            "sweep-variances",
            "model-intercept",
        ],
    )
    def test_malformed_value_is_input_error(self, capsys, tmp_path, command, flag, doc):
        """A config or model value of the wrong type is an input error (exit
        2 with an ``error:`` line), never a traceback."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, [command, flag, str(path)])
        assert code == 2
        assert any(line.startswith("error: ") for line in err.splitlines())


class TestOracleCheck:
    def test_agreement_passes(self, capsys, model_path):
        code, out, err = run(
            capsys,
            [
                "oracle-check",
                "--model",
                model_path,
                "--x",
                "0.5,-0.2",
                "--n",
                "100",
                "--samples",
                "1000",
                "--seed",
                "3",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "outcome,feature,closed_form,oracle_value,oracle_se,abs_error,tolerance,status"
        )
        rows = data_rows(out)
        assert len(rows) == 6  # 3 outcomes x 2 features
        assert all(row.endswith(",pass") for row in rows)
        assert "seed=3" in err

    def test_reports_failure_beyond_oracle_resolution(self, capsys, model_path):
        """A decision threshold twelve deviations out gives closed-form
        attributions around 2e-8 while every sampled decision is zero, so the
        check honestly reports disagreement and exits 1."""
        code, out, _ = run(
            capsys,
            [
                "oracle-check",
                "--model",
                model_path,
                "--x",
                "1,0.5",
                "--outcome",
                "decision",
                "--eta-star",
                "12",
                "--n",
                "100",
                "--samples",
                "1000",
                "--seed",
                "5",
            ],
        )
        assert code == 1
        assert all(row.endswith(",fail") for row in data_rows(out))

    def test_reproducible_given_seed(self, capsys, model_path):
        argv = [
            "oracle-check",
            "--model",
            model_path,
            "--x",
            "0.5,-0.2",
            "--n",
            "100",
            "--samples",
            "1000",
            "--seed",
            "3",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_too_many_features_rejected(self, capsys, tmp_path):
        m = 11
        model = {
            "intercept": 0.0,
            "coefficients": [1.0] * m,
            "means": [0.0] * m,
            "stddevs": [1.0] * m,
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(model))
        code, _, _ = run(
            capsys, ["oracle-check", "--model", str(path), "--x", ",".join(["0"] * m)]
        )
        assert code == 2

    def test_tiny_permutation_count_rejected(self, capsys, model_path):
        code, _, _ = run(
            capsys,
            ["oracle-check", "--model", model_path, "--x", "0,0", "--n", "10"],
        )
        assert code == 2


class TestOutputFile:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, model_path, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            ["explain", "--model", model_path, "--x", "0,0", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.splitlines()[0] == "outcome,baseline,phi_1,phi_2,prediction,residual"
        assert text.strip().endswith("# seed=none, # samples=none")

    def test_unwritable_out_is_output_error(self, capsys, model_path, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, _ = run(
            capsys,
            ["explain", "--model", model_path, "--x", "0,0", "--out", str(target)],
        )
        assert code == 3


class TestParser:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_two(self, capsys):
        assert main(["explain", "--x", "0,0"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
