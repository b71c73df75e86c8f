"""Command-line interface tests, driven in-process through main()."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantrate import cli, errors, load_preset
from quantrate.cli import main


def write_csv(tmp_path, name="toy.csv", n=90, seed=2):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        x = rng.standard_normal(3)
        label = "g" if x[0] + 0.5 * rng.standard_normal() > 0.3 else "b"
        lines.append(",".join(f"{v:.6f}" for v in x) + "," + label)
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def write_train_config(tmp_path, csv_path, **extra):
    config = {
        "data": {
            "path": str(csv_path),
            "label_column": -1,
            "positive_label_value": "g",
        },
        "standardize": True,
        "loss": {
            "objective": "p_at_r",
            "constraint": {
                "subset": "positives",
                "direction": "at_least",
                "target": 0.8,
            },
            "estimator": {"kind": "kernel", "bandwidth": 0.1},
        },
        "train": {
            "learning_rate": 0.01,
            "steps": 25,
            "seed": 11,
            "restarts": 2,
        },
    }
    config.update(extra)
    p = tmp_path / "train_config.json"
    p.write_text(json.dumps(config), encoding="utf-8")
    return p, config


def train_model(tmp_path, name="model.json"):
    csv_path = write_csv(tmp_path)
    config_path, config = write_train_config(tmp_path, csv_path)
    model_path = tmp_path / name
    code = main(["train", "--config", str(config_path), "--out",
                 str(model_path), "--quiet"])
    assert code == 0
    return model_path, config, csv_path


def test_train_writes_a_complete_model_file(tmp_path):
    model_path, config, _ = train_model(tmp_path)
    payload = json.loads(model_path.read_text())
    assert payload["schema"] == "quantrate.model.v1"
    assert len(payload["weights"]) == 3
    assert isinstance(payload["threshold"], float)
    assert payload["final_train_loss"] == payload["loss_trace"][-1]
    assert payload["restart_index"] in (0, 1)
    assert payload["seed"] == 11 + payload["restart_index"]
    assert payload["generator"] == "numpy-pcg64"
    assert payload["config"] == config
    # standardize: true stores the fitted affine transform
    assert len(payload["transform"]["mean"]) == 3
    assert len(payload["transform"]["std"]) == 3


def test_train_is_byte_deterministic(tmp_path):
    p1, _, _ = train_model(tmp_path, "m1.json")
    p2, _, _ = train_model(tmp_path, "m2.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_eval_report_counts_match_a_recount(tmp_path, capsys):
    model_path, config, csv_path = train_model(tmp_path)
    code = main(["eval", "--config", str(model_path), "--quiet"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "report"

    payload = json.loads(model_path.read_text())
    raw = [line.rsplit(",", 1) for line in
           csv_path.read_text().splitlines()]
    X = np.array([[float(v) for v in cells.split(",")] for cells, _ in raw])
    y = np.array([1 if label == "g" else -1 for _, label in raw])
    X = (X - np.array(payload["transform"]["mean"])) / np.array(
        payload["transform"]["std"])
    scores = X @ np.array(payload["weights"])
    predicted = scores > payload["threshold"]
    assert report["tp"] == int(np.count_nonzero(predicted & (y == 1)))
    assert report["fp"] == int(np.count_nonzero(predicted & (y == -1)))
    assert report["fn"] == int(np.count_nonzero(~predicted & (y == 1)))
    assert report["tn"] == int(np.count_nonzero(~predicted & (y == -1)))
    assert report["threshold"] == payload["threshold"]
    # the calibrated training constraint held: recall at least 0.8
    assert report["recall"] >= 0.8


def test_eval_point_metrics_and_grid(tmp_path, capsys):
    model_path, _, _ = train_model(tmp_path)
    assert main(["eval", "--config", str(model_path), "--metric", "p_at_rate",
                 "--level", "0.25", "--quiet"]) == 0
    at_rate = json.loads(capsys.readouterr().out)
    assert at_rate["metric"] == "p_at_rate"
    assert at_rate["level"] == 0.25
    assert 0.0 <= at_rate["value"] <= 1.0

    assert main(["eval", "--config", str(model_path), "--metric",
                 "p_at_recall", "--level", "0.9", "--quiet"]) == 0
    at_recall = json.loads(capsys.readouterr().out)
    assert 0.0 <= at_recall["value"] <= 1.0

    assert main(["eval", "--config", str(model_path), "--metric", "pr_auc",
                 "--grid", "0.5,1.0", "--quiet"]) == 0
    auc = json.loads(capsys.readouterr().out)
    assert auc["grid"] == [0.5, 1.0]
    assert 0.0 <= auc["value"] <= 1.0


def test_eval_missing_level_is_a_config_error(tmp_path, capsys):
    model_path, _, _ = train_model(tmp_path)
    code = main(["eval", "--config", str(model_path), "--metric", "p_at_rate",
                 "--quiet"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "config"
    assert "--level" in err["message"]
    code = main(["eval", "--config", str(model_path), "--metric", "pr_auc",
                 "--quiet"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"
    # a flag the metric ignores fails before the data loads
    (tmp_path / "toy.csv").unlink()
    for extra, flag in ((["--level", "0.5"], "--level"),
                        (["--metric", "p_at_rate", "--level", "0.5",
                          "--grid", "0.5,1.0"], "--grid")):
        code = main(["eval", "--config", str(model_path), *extra, "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "config"
        assert f"takes no {flag}" in err["message"]


def test_eval_out_writes_the_text_it_prints(tmp_path, capsys):
    model_path, _, _ = train_model(tmp_path)
    out = tmp_path / "eval.json"
    assert main(["eval", "--config", str(model_path), "--out", str(out),
                 "--quiet"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["metric"] == "report"
    assert out.read_text(encoding="utf-8") == printed


def test_eval_refuses_overflowing_scores_under_every_metric(tmp_path, capsys):
    # each weight alone is finite; the scores they give overflow
    model_path, _, _ = train_model(tmp_path)
    payload = json.loads(model_path.read_text())
    model_path.write_text(json.dumps(dict(payload, weights=[1e308] * 3)))
    for extra in ([], ["--metric", "p_at_rate", "--level", "0.3"],
                  ["--metric", "p_at_recall", "--level", "0.5"],
                  ["--metric", "pr_auc", "--grid", "0.5,1.0"]):
        assert main(["eval", "--config", str(model_path), *extra, "--quiet"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "config", "message": "scores must be finite"}


def test_eval_refuses_data_of_another_width_before_its_transform(tmp_path, capsys):
    # standardized or not, a 3-weight model refuses 4-feature data alike
    model_path, _, _ = train_model(tmp_path)
    payload = json.loads(model_path.read_text())
    wide = tmp_path / "wide.csv"
    wide.write_text("".join(f"{i},0.5,-1.0,2.0,{'gb'[i % 2]}\n" for i in range(40)))
    for transform in (payload["transform"], None):
        model_path.write_text(json.dumps(dict(payload, transform=transform)))
        argv = ["eval", "--config", str(model_path), "--data", str(wide), "--quiet"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "config",
            "message": "feature matrix (40, 4) incompatible with weight dim 3"}


def test_eval_refuses_a_transform_of_another_width(tmp_path, capsys):
    model_path, _, _ = train_model(tmp_path)
    payload = json.loads(model_path.read_text())
    mean, std = payload["transform"]["mean"], payload["transform"]["std"]
    for bad in ({"mean": mean[:2], "std": std}, {"mean": mean, "std": std + [1.0]}):
        model_path.write_text(json.dumps(dict(payload, transform=bad)))
        assert main(["eval", "--config", str(model_path), "--quiet"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "config"
        assert err["message"] == (f"model file transform has {len(bad['mean'])} means "
                                  f"and {len(bad['std'])} stds for 3 weights")


def test_overflow_leaves_stderr_empty_from_the_command_line(tmp_path):
    # numpy writes its warnings to the process's own stderr, which only a
    # fresh interpreter shows; the package's report goes to stdout
    model_path, config, _ = train_model(tmp_path)
    payload = json.loads(model_path.read_text())
    model_path.write_text(json.dumps(dict(payload, weights=[1e308] * 3)))
    config_path = tmp_path / "overflow.json"
    config["train"]["learning_rate"] = 1e308
    config_path.write_text(json.dumps(config))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    lab_path = tmp_path / "lab.json"
    lab_path.write_text(json.dumps(dict(load_preset("loss_deviation"), trials=100,
                                        batch_sizes=[50, 100], w_norm_bound=1e306)))
    for argv, kind, message in (
        (["eval", "--config", str(model_path)], "config", "scores must be finite"),
        (["train", "--config", str(config_path), "--out",
          str(tmp_path / "diverged.json")], "runtime", "training diverged by step "),
        (["concentration", "--config", str(lab_path), "--out", str(tmp_path / "lab")],
         "config", "deviations must be nonnegative and finite"),
    ):
        run = subprocess.run([sys.executable, "-m", "quantrate.cli", *argv, "--quiet"],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 1
        err = json.loads(run.stdout)["error"]
        assert err["kind"] == kind and err["message"].startswith(message), err
        assert run.stderr == ""
    assert not (tmp_path / "diverged.json").exists()
    assert not (tmp_path / "lab").exists()


def test_refusals_give_their_exact_messages(tmp_path, capsys):
    model_path, config, _ = train_model(tmp_path)
    payload = json.loads(model_path.read_text())
    for key, value, message in (
        ("schema", "quantrate.model.v0",
         "model file schema 'quantrate.model.v0' is not quantrate.model.v1"),
        ("threshold", None, "model file has no threshold; cannot build a report"),
    ):
        model_path.write_text(json.dumps(dict(payload, **{key: value})))
        assert main(["eval", "--config", str(model_path), "--quiet"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "config", "message": message}
    config["loss"]["estimator"] = {"kind": "bogus"}
    code, err, _ = run_config("train", config, tmp_path, capsys)
    assert code == 1 and err == {"kind": "config", "message": (
        "kind must be one of ['point', 'kernel', 'lower_mean', 'interval'], "
        "got 'bogus'")}
    command, config = valid_config("rate_table", tmp_path)
    config["taus"] = []
    code, err, _ = run_config(command, config, tmp_path, capsys)
    assert code == 1
    assert err == {"kind": "config", "message": "taus must be a nonempty list"}


def test_error_kinds(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.json"),
                 "--quiet"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "io"

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["train", "--config", str(broken), "--quiet"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,g\n3,4\n", encoding="utf-8")
    config_path, _ = write_train_config(tmp_path, ragged)
    assert main(["train", "--config", str(config_path), "--quiet"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "data"

    csv_path = write_csv(tmp_path)
    bad_path = tmp_path / "bad_target.json"
    _, config = write_train_config(tmp_path, csv_path)
    config["loss"]["constraint"]["target"] = 1.7
    bad_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(bad_path), "--quiet"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"


# the kind the command line reports for each error class of the package,
# entered by hand, so that a new class is given its kind on purpose
PACKAGE_KINDS = {
    errors.QuantrateError: "runtime",
    errors.InvalidSpec: "config",
    errors.DataError: "data",
    errors.DimensionError: "config",
    errors.UncalibratedError: "runtime",
    errors.EmptyInput: "config",
    errors.NonpositiveScale: "config",
    errors.DegenerateInterval: "config",
    errors.NoConstraintSubset: "data",
    errors.EmptyObjective: "data",
    errors.ConstraintBatchEmpty: "runtime",
    errors.BatchTooLarge: "config",
    errors.Diverged: "runtime",
    errors.ParseError: "data",
    errors.RaggedRows: "data",
    errors.UnknownLabel: "data",
    errors.NonMonotonicIndex: "data",
    errors.DegenerateSplit: "data",
    errors.SingleClass: "data",
}
# and for the Python errors main() catches besides the package's
PYTHON_KINDS = [
    (OSError("m"), "io"),
    (KeyError("m"), "config"),
    (ValueError("m"), "config"),
    (json.JSONDecodeError("m", "{", 1), "config"),
]


def test_every_error_class_has_its_kind(monkeypatch, capsys):
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)}
    assert defined == set(PACKAGE_KINDS)
    cases = [
        (cls("m", 1, 2) if issubclass(cls, errors.ParseError) else cls("m"), kind)
        for cls, kind in PACKAGE_KINDS.items()
    ] + PYTHON_KINDS
    for exc, kind in cases:
        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_concentration", fail)
        assert cli._error_kind(exc) == kind, type(exc)
        assert main(["concentration", "--config", "any", "--quiet"]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == kind


def test_overflowing_training_is_a_runtime_error(tmp_path, capsys):
    csv_path = write_csv(tmp_path)
    _, config = write_train_config(tmp_path, csv_path)
    config_path = tmp_path / "overflow.json"
    model_path = tmp_path / "model.json"
    config["train"]["learning_rate"] = 1e308
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(config_path), "--out",
                 str(model_path), "--quiet"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "runtime"
    assert "diverged" in err["message"]
    assert not model_path.exists()
    # growth that stays finite is not an error
    config["train"]["learning_rate"] = 1e6
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(config_path), "--out",
                 str(model_path), "--quiet"]) == 0


def test_overflowing_experiment_writes_no_results(tmp_path, capsys):
    csv_path = write_csv(tmp_path)
    config = {
        "kind": "rate_table",
        "name": "overflow",
        "seed": 3,
        "reps": 2,
        "taus": [0.2, 0.5],
        "weight_decays": [0.01, 0.1],
        "data": {"path": str(csv_path), "label_column": -1,
                 "positive_label_value": "g"},
        "split": {"train_fraction": 0.6},
        "estimator": {"kind": "kernel", "bandwidth": 0.1},
        "train": {"learning_rate": 1e308, "steps": 10, "restarts": 2},
        "logistic": {"learning_rate": 0.05, "steps": 20},
    }
    config_path = tmp_path / "overflow.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(config_path), "--out",
                 str(out_dir), "--quiet"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "runtime"
    assert "diverged" in err["message"]
    assert not out_dir.exists()


def test_a_worker_error_reports_as_at_one_job(tmp_path, capsys):
    config = {
        "kind": "recall_point",
        "name": "diverging",
        "seed": 77,
        "reps": 2,
        "recall_levels": [0.8],
        "weight_decays": [0.0, 0.1],
        "synthetic": {
            "n": 200,
            "components": [
                {"label": -1, "weight": 0.8, "mean": [0.0, 0.0], "sigma": 1.0},
                {"label": 1, "weight": 0.2, "mean": [2.5, 0.0], "sigma": 0.6},
            ],
        },
        "split": {"train_fraction": 0.5},
        "estimator": {"kind": "point"},
        # the decay term overflows the weights at step 2 of every rep
        "train": {"learning_rate": 1e300, "steps": 5},
        "logistic": {"learning_rate": 0.05, "steps": 5},
    }
    config_path = tmp_path / "diverging.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    reports = []
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        code = main(["experiment", "--config", str(config_path), "--out",
                     str(out_dir), "--jobs", str(jobs), "--quiet"])
        reports.append((code, json.loads(capsys.readouterr().out)["error"]))
        assert not out_dir.exists()
    assert reports[0][0] == 1
    assert reports[0][1]["kind"] == "runtime"
    assert "diverged" in reports[0][1]["message"]
    assert reports[1] == reports[0]


def test_invalid_invocations_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["flip"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["train", "--config", "x", "--seed", str(2**64)])
    assert info.value.code == 2
    # each command takes only the flags it reads
    for argv in (["train", "--jobs", "2"], ["eval", "--seed", "1"],
                 ["eval", "--jobs", "2"], ["concentration", "--data", "x"],
                 ["concentration", "--jobs", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv[:1] + ["--config", "x"] + argv[1:])
        assert info.value.code == 2
    capsys.readouterr()


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip()


def test_concentration_stability_outputs(tmp_path):
    config = {
        "kind": "estimator_stability",
        "n": 400,
        "batch_sizes": [20, 80],
        "trials": 100,
        "estimator": {"kind": "point"},
        "c": 0.8,
        "score_law": "uniform",
        "seed": 3,
    }
    config_path = tmp_path / "stab.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out1 = tmp_path / "out1"
    assert main(["concentration", "--config", str(config_path), "--out",
                 str(out1), "--quiet"]) == 0
    payload = json.loads((out1 / "report.json").read_text())
    assert payload["schema"] == "quantrate.concentration.v1"
    assert payload["kind"] == "estimator_stability"
    assert payload["config"] == config
    assert payload["report"]["batch_sizes"] == [20, 80]
    csv_lines = (out1 / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "b,mean_abs_dev,q95_abs_dev"
    assert len(csv_lines) == 3

    out2 = tmp_path / "out2"
    assert main(["concentration", "--config", str(config_path), "--out",
                 str(out2), "--quiet"]) == 0
    assert (out1 / "report.json").read_bytes() == (
        out2 / "report.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (
        out2 / "report.csv").read_bytes()


def test_a_flat_law_report_holds_no_nan(tmp_path):
    # constant scores never deviate, so the slope fit has no points: the
    # report writes null there, not NaN, which JSON does not hold
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    config_path = tmp_path / "flat.json"
    config_path.write_text(json.dumps(dict(STABILITY_CONFIG, score_law="constant")),
                           encoding="utf-8")
    assert main(["concentration", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=refuse)["report"]
    assert report["fitted_slope"] is None
    assert report["mean_abs_dev"] == [0.0, 0.0]


def test_concentration_convergence_outputs(tmp_path):
    config = {
        "kind": "convex_sgd_convergence",
        "synthetic": {
            "n": 60,
            "mean_separation": 2.0,
            "sigma": 1.0,
            "seed": 5,
            "positive_prior": 0.4,
        },
        "c": 0.8,
        "batch_size": 20,
        "t_grid": [3, 6],
        "trials": 1,
        "seed": 7,
    }
    config_path = tmp_path / "conv.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "conv_out"
    assert main(["concentration", "--config", str(config_path), "--out",
                 str(out), "--quiet"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["kind"] == "convex_sgd_convergence"
    assert payload["report"]["t_grid"] == [3, 6]
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "t,mean_excess"
    assert len(csv_lines) == 3


def test_experiment_command_files_and_determinism(tmp_path):
    config = {
        "kind": "recall_point",
        "name": "cli_tiny",
        "seed": 41,
        "reps": 2,
        "recall_levels": [0.8],
        "curve_grid": [0.5, 1.0],
        "weight_decays": [0.0],
        "synthetic": {
            "n": 300,
            "components": [
                {"label": -1, "weight": 0.8, "mean": [0.0, 0.0], "sigma": 1.0},
                {"label": 1, "weight": 0.2, "mean": [2.5, 0.0], "sigma": 0.6},
            ],
        },
        "split": {"train_fraction": 0.5},
        "estimator": {"kind": "point"},
        "train": {"learning_rate": 0.01, "steps": 15},
        "logistic": {"learning_rate": 0.05, "steps": 30, "momentum": 0.9},
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out1 = tmp_path / "exp1"
    out2 = tmp_path / "exp2"
    assert main(["experiment", "--config", str(config_path), "--out",
                 str(out1), "--quiet"]) == 0
    assert main(["experiment", "--config", str(config_path), "--out",
                 str(out2), "--quiet"]) == 0
    for name in ("results.json", "summary.csv", "pr_points.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_quiet_controls_the_stderr_note(tmp_path, capsys):
    csv_path = write_csv(tmp_path)
    config_path, _ = write_train_config(tmp_path, csv_path)
    model_path = tmp_path / "m.json"
    assert main(["train", "--config", str(config_path), "--out",
                 str(model_path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["train", "--config", str(config_path), "--out",
                 str(model_path)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    assert captured.out == ""


STABILITY_CONFIG = {
    "kind": "estimator_stability",
    "n": 400,
    "batch_sizes": [20, 80],
    "trials": 100,
    "estimator": {"kind": "point"},
    "c": 0.8,
    "score_law": "uniform",
    "seed": 3,
}


def misspelt_config(case, tmp_path):
    """(command, config, block): a valid config plus one stray key, and
    the block of the config that holds it."""
    if case == "momentun":
        _, config = write_train_config(tmp_path, write_csv(tmp_path))
        block = config["train"]
        block["momentun"] = 0.9
        return "train", config, block
    if case == "standardise":
        config = {
            "kind": "recall_point", "reps": 1, "recall_levels": [0.8],
            "curve_grid": [1.0], "weight_decays": [0.0], "standardise": True,
            "synthetic": {"n": 100, "components": [
                {"label": -1, "weight": 0.7, "mean": [0.0], "sigma": 1.0},
                {"label": 1, "weight": 0.3, "mean": [2.0], "sigma": 1.0}]},
            "split": {"train_fraction": 0.5}, "estimator": {"kind": "point"},
            "train": {"learning_rate": 0.1, "steps": 1},
            "logistic": {"learning_rate": 0.1, "steps": 1},
        }
        return "experiment", config, config
    if case == "bandwith":
        config = dict(STABILITY_CONFIG, estimator={"kind": "point",
                                                   "bandwith": 0.1})
        return "concentration", config, config["estimator"]
    if case == "trails":
        config = dict(STABILITY_CONFIG, trails=100)
        return "concentration", config, config
    config = {
        "kind": "convex_sgd_convergence", "c": 0.8, "batch_size": 20,
        "t_grid": [3], "trials": 1,
        "synthetic": {"n": 60, "mean_separation": 2.0, "sigma": 1.0,
                      "seed": 5, "prior": 0.4},
    }
    return "concentration", config, config["synthetic"]


@pytest.mark.parametrize(
    "case", ["momentun", "standardise", "bandwith", "trails", "prior"])
def test_unknown_config_keys_are_config_errors(tmp_path, capsys, case):
    command, config, block = misspelt_config(case, tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(config_path), "--out",
            str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "config"
    assert f"unknown keys ['{case}']" in err["message"]
    assert not (tmp_path / "out").exists()
    # without the stray key the same config runs
    del block[case]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(argv) == 0


def test_a_parameter_the_estimator_ignores_is_a_config_error(tmp_path, capsys):
    config = dict(STABILITY_CONFIG, estimator={"kind": "point", "bandwidth": 0.1})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["concentration", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "config" and "bandwidth" in err["message"]
    assert not (tmp_path / "out").exists()


def run_train(tmp_path, capsys, **train):
    """Exit code, stdout and the model payload of `train` on the
    write_train_config config with its train block updated."""
    _, config = write_train_config(tmp_path, write_csv(tmp_path))
    config["train"].update(train)
    config_path = tmp_path / "train_config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    model_path = tmp_path / "model.json"
    model_path.unlink(missing_ok=True)
    code = main(["train", "--config", str(config_path), "--out",
                 str(model_path), "--quiet"])
    payload = json.loads(model_path.read_text()) if model_path.exists() else None
    return code, capsys.readouterr().out, payload


@pytest.mark.parametrize("sizes", [
    {"batch_size": 10.0, "constraint_batch_size": 5},
    {"batch_size": 10, "constraint_batch_size": 5.0},
])
def test_integral_float_sizes_train_as_integers(tmp_path, capsys, sizes):
    code, _, payload = run_train(tmp_path, capsys, **sizes)
    assert code == 0
    code, _, expected = run_train(
        tmp_path, capsys, batch_size=10, constraint_batch_size=5)
    assert code == 0
    for field in ("weights", "threshold", "final_train_loss", "loss_trace"):
        assert payload[field] == expected[field]


@pytest.mark.parametrize("key, value", [
    ("batch_size", "10"),
    ("steps", [1]),
    ("steps", 10.5),
])
def test_non_integer_sizes_are_config_errors(tmp_path, capsys, key, value):
    code, out, payload = run_train(tmp_path, capsys, **{key: value})
    assert code == 1
    assert payload is None
    err = json.loads(out)["error"]
    assert err["kind"] == "config"
    assert key in err["message"]


def test_non_integer_list_entries_and_columns_are_config_errors(tmp_path, capsys):
    _, train = write_train_config(tmp_path, write_csv(tmp_path))
    train["data"]["label_column"] = 1.5
    convex = dict(misspelt_config("prior", tmp_path)[1], t_grid=["3"])
    del convex["synthetic"]["prior"]
    cases = (
        ("concentration", dict(STABILITY_CONFIG, batch_sizes=[20.5, 80]),
         "batch_sizes"),
        ("concentration", convex, "t_grid"),
        ("train", train, "label_column"),
    )
    for command, config, key in cases:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(config_path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "config" and key in err["message"]
        assert not (tmp_path / "out").exists()


def valid_config(document, tmp_path):
    """(command, config): a small valid config of each document kind."""
    csv_path = write_csv(tmp_path)
    if document == "train":
        return "train", write_train_config(tmp_path, csv_path)[1]
    experiment = {
        "split": {"train_fraction": 0.5}, "estimator": {"kind": "point"},
        "train": {"learning_rate": 0.1, "steps": 1},
        "logistic": {"learning_rate": 0.1, "steps": 1},
        "reps": 1, "weight_decays": [0.0],
    }
    synthetic = {"n": 200, "mean_separation": 2.0, "sigma": 1.0, "seed": 5}
    configs = {
        "rate_table": dict(experiment, kind="rate_table", taus=[0.3], data={
            "path": str(csv_path), "label_column": -1,
            "positive_label_value": "g"}),
        "recall_point": dict(experiment, kind="recall_point", recall_levels=[0.8],
                             synthetic={"n": 100, "components": [
                                 {"label": -1, "weight": 0.7, "mean": [0.0],
                                  "sigma": 1.0},
                                 {"label": 1, "weight": 0.3, "mean": [2.0],
                                  "sigma": 1.0}]}),
        "estimator_stability": json.loads(json.dumps(STABILITY_CONFIG)),
        "loss_uniform_deviation": {
            "kind": "loss_uniform_deviation", "synthetic": synthetic,
            "constraint": {"subset": "positives", "direction": "at_least",
                           "target": 0.8},
            "estimator": {"kind": "point"}, "batch_sizes": [20, 40],
            "trials": 100, "w_norm_bound": 1.0, "n_models": 2,
        },
        "convex_sgd_convergence": {
            "kind": "convex_sgd_convergence", "c": 0.8, "batch_size": 20,
            "t_grid": [3], "trials": 1, "synthetic": synthetic,
        },
    }
    command = "experiment" if document in ("rate_table", "recall_point") else (
        "concentration")
    return command, configs[document]


# (document, path to the block) -> the keys the block accepts, pinned
# because the keys come from record fields: a new field must not widen a
# block unseen
ALLOWED = {
    ("train", ()): ["data", "loss", "name", "standardize", "train"],
    ("train", ("data",)): [
        "delimiter", "format", "header", "label_column", "negative_label_value",
        "numeric_labels", "path", "positive_label_value"],
    ("train", ("loss",)): [
        "constraint", "estimator", "logloss_base", "objective", "penalize"],
    ("train", ("loss", "constraint")): ["direction", "indices", "subset", "target"],
    ("train", ("loss", "estimator")): ["bandwidth", "k1", "k2", "kind", "normalize"],
    ("train", ("train",)): [
        "batch_size", "constraint_batch_size", "eval_every", "init_scale",
        "learning_rate", "lr_decay", "momentum", "restarts", "seed", "steps",
        "weight_decay"],
    ("rate_table", ()): [
        "data", "estimator", "kind", "logistic", "name", "published", "reps",
        "seed", "split", "standardize", "taus", "train", "weight_decays"],
    ("rate_table", ("split",)): ["stratified", "train_fraction"],
    ("rate_table", ("train",)): [
        "batch_size", "constraint_batch_size", "eval_every", "init_scale",
        "learning_rate", "lr_decay", "momentum", "restarts", "steps"],
    ("rate_table", ("logistic",)): [
        "eval_every", "init_scale", "learning_rate", "lr_decay", "momentum", "steps"],
    ("recall_point", ()): [
        "curve_grid", "estimator", "kind", "logistic", "name", "published",
        "recall_levels", "reps", "seed", "split", "standardize", "synthetic",
        "train", "weight_decays"],
    ("recall_point", ("synthetic",)): ["components", "n"],
    ("recall_point", ("synthetic", "components", 0)): [
        "label", "mean", "sigma", "weight"],
    ("estimator_stability", ()): [
        "batch_sizes", "c", "estimator", "kind", "n", "name", "score_law", "seed",
        "trials"],
    ("loss_uniform_deviation", ()): [
        "batch_sizes", "constraint", "estimator", "kind", "n_models", "name", "seed",
        "synthetic", "trials", "w_norm_bound"],
    ("loss_uniform_deviation", ("synthetic",)): [
        "dim", "mean_separation", "n", "negative_scale", "positive_prior",
        "positive_scale", "seed", "sigma"],
    ("convex_sgd_convergence", ()): [
        "batch_size", "c", "kind", "name", "seed", "synthetic", "t_grid", "trials"],
}
# a valid value of each accepted key that the valid configs leave out
SAMPLES = {
    "name": "x", "seed": 3, "standardize": True, "published": None,
    "curve_grid": [1.0], "format": "delimited", "delimiter": ",", "header": False,
    "negative_label_value": "b", "numeric_labels": False, "logloss_base": 2.0,
    "penalize": "negatives", "indices": [0, 1], "normalize": True, "k1": 0.2,
    "k2": 0.8, "batch_size": None, "constraint_batch_size": None,
    "eval_every": 1, "init_scale": 0.01, "lr_decay": "constant", "momentum": 0.5,
    "weight_decay": 0.0, "stratified": True, "dim": 2, "negative_scale": 1.0,
    "positive_prior": 0.5, "positive_scale": 1.0, "restarts": 1,
}


def block_at(config, path):
    for step in path:
        config = config[step]
    return config


def run_config(command, config, tmp_path, capsys):
    """(exit code, error object or None, stderr) of command on config;
    asserts that a failed run wrote nothing."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"  # a fresh path
    code = main([command, "--config", str(config_path), "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    if code == 0:
        return code, None, captured.err
    assert not out.exists()
    return code, json.loads(captured.out)["error"], captured.err


def wrong_type(value):
    """A JSON value of another type: a string for a bool or a number, a
    number for a string, true for null, a string for a list and a list
    for an object."""
    if isinstance(value, (bool, int, float)):
        return json.dumps(value)
    if isinstance(value, str):
        return 7
    if value is None:
        return True
    return "x" if isinstance(value, list) else ["x"]


@pytest.mark.parametrize("document, path", list(ALLOWED))
def test_every_block_accepts_the_pinned_keys(tmp_path, capsys, document, path):
    command, config = valid_config(document, tmp_path)
    assert run_config(command, config, tmp_path, capsys)[0] == 0
    block_at(config, path)["zzz"] = 1
    code, err, _ = run_config(command, config, tmp_path, capsys)
    assert code == 1 and err["kind"] == "config"
    assert err["message"].endswith(f"allowed: {ALLOWED[document, path]}")


@pytest.mark.parametrize("document, path, key", [
    (document, path, key) for (document, path), keys in ALLOWED.items()
    for key in keys
])
def test_a_wrongly_typed_value_is_a_config_error(
    tmp_path, capsys, document, path, key
):
    command, config = valid_config(document, tmp_path)
    block = block_at(config, path)
    block[key] = wrong_type(block.get(key, SAMPLES.get(key)))
    code, err, stderr = run_config(command, config, tmp_path, capsys)
    assert code == 1 and err["kind"] == "config"
    assert re.search(rf"\b{key}\b", err["message"]), err["message"]
    assert "Traceback" not in stderr


@pytest.mark.parametrize("document, path, key, value", [
    ("train", ("loss", "estimator"), "normalize", "false"),
    ("estimator_stability", ("estimator",), "bandwidth", "0.05"),
    ("rate_table", ("train",), "learning_rate", True),
    ("rate_table", ("logistic",), "momentum", True),
    ("rate_table", ("split",), "stratified", "no"),
    ("train", (), "standardize", "no"),
    ("convex_sgd_convergence", (), "c", "0.9"),
    ("train", ("train",), "lr_decay", 7),
    ("convex_sgd_convergence", (), "c", 10**400),
    ("convex_sgd_convergence", (), "c", float("nan")),
])
def test_values_of_the_wrong_form_are_config_errors(
    tmp_path, capsys, document, path, key, value
):
    command, config = valid_config(document, tmp_path)
    if key == "bandwidth":
        config["estimator"] = {"kind": "kernel", "bandwidth": value}
    block_at(config, path)[key] = value
    code, err, _ = run_config(command, config, tmp_path, capsys)
    assert code == 1 and err["kind"] == "config"
    assert err["message"].startswith(f"{key} must be")


@pytest.mark.parametrize("document, path", [
    ("train", ("train",)), ("rate_table", ()), ("estimator_stability", ()),
    ("convex_sgd_convergence", ("synthetic",)),
])
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_a_seed_outside_u64_is_a_config_error(tmp_path, capsys, document, path, seed):
    command, config = valid_config(document, tmp_path)
    block_at(config, path)["seed"] = seed
    code, err, _ = run_config(command, config, tmp_path, capsys)
    assert code == 1 and err["kind"] == "config"
    assert err["message"] == f"seed must be an integer in [0, 2**64), got {seed!r}"
    block_at(config, path)["seed"] = 2**64 - 1
    assert run_config(command, config, tmp_path, capsys)[0] == 0


def test_a_data_block_takes_only_its_formats_keys(tmp_path, capsys):
    command, config = valid_config("rate_table", tmp_path)
    sparse = tmp_path / "toy.svm"
    rng = np.random.default_rng(4)
    sparse.write_text("".join(
        f"{1 if x[0] > 0.3 else -1} 1:{x[0]:.6f} 2:{x[1]:.6f}\n"
        for x in rng.standard_normal((60, 2))), encoding="utf-8")
    config["data"] = {"path": str(sparse), "format": "sparse"}
    assert run_config(command, config, tmp_path, capsys)[0] == 0
    for key, value in (("label_column", 7), ("header", "yes")):
        config["data"][key] = value
        code, err, _ = run_config(command, config, tmp_path, capsys)
        assert code == 1 and err["kind"] == "config"
        assert err["message"] == (
            f"data has unknown keys ['{key}']; allowed: ['format', 'path']")
        del config["data"][key]
    config["data"] = {"path": config["data"]["path"].replace("svm", "csv")}
    code, err, _ = run_config(command, config, tmp_path, capsys)
    assert err["message"] == (
        "data lacks keys ['label_column', 'positive_label_value']")
