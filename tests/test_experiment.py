"""Experiment runner tests on deliberately tiny configurations."""

import json
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from quantrate import (
    Diverged,
    InvalidSpec,
    load_preset,
    preset_names,
    published_rows,
    published_tables,
    run_experiment,
    write_results,
)
from quantrate.config import experiment_spec
from quantrate.experiment import load_experiment_dataset


def tiny_recall_config(**overrides):
    config = {
        "kind": "recall_point",
        "name": "tiny",
        "seed": 77,
        "reps": 2,
        "recall_levels": [0.8],
        "curve_grid": [0.5, 1.0],
        "weight_decays": [0.0, 0.1],
        "synthetic": {
            "n": 400,
            "components": [
                {"label": -1, "weight": 0.8, "mean": [0.0, 0.0], "sigma": 1.0},
                {"label": 1, "weight": 0.2, "mean": [2.5, 0.0], "sigma": 0.6},
            ],
        },
        "split": {"train_fraction": 0.5},
        "estimator": {"kind": "point"},
        "train": {"learning_rate": 0.01, "steps": 20},
        "logistic": {"learning_rate": 0.05, "steps": 40, "momentum": 0.9},
    }
    config.update(overrides)
    return config


def tiny_csv(tmp_path, n=120, seed=3, name="toy.csv"):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        x = rng.standard_normal(3)
        label = "g" if x[0] + 0.3 * rng.standard_normal() > 0.4 else "b"
        lines.append(",".join(f"{v:.6f}" for v in x) + "," + label)
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def tiny_rate_config(path):
    return {
        "kind": "rate_table",
        "name": "toy",
        "seed": 5,
        "reps": 2,
        "taus": [0.1, 0.3],
        "weight_decays": [0.01],
        "data": {
            "path": str(path),
            "label_column": -1,
            "positive_label_value": "g",
        },
        "split": {"train_fraction": 0.6},
        "estimator": {"kind": "kernel", "bandwidth": 0.1},
        "train": {"learning_rate": 0.01, "steps": 15},
        "logistic": {"learning_rate": 0.05, "steps": 30, "momentum": 0.9},
    }


def test_recall_point_aggregate_bookkeeping():
    result, elapsed = run_experiment(tiny_recall_config())
    assert result.kind == "recall_point"
    assert result.seed == 77
    assert elapsed >= 0.0
    # 2 methods x 1 level x 2 selection rules
    assert len(result.aggregates) == 4
    for a in result.aggregates:
        assert a.method in ("quantile", "logistic")
        assert a.selection in ("test", "train")
        assert len(a.per_rep) == 2
        values = np.asarray(a.per_rep)
        assert a.mean == float(values.mean())
        assert a.std == float(values.std(ddof=1))
        assert a.weight_decay in (0.0, 0.1)
    # curve: both methods sampled on the two-point recall grid
    assert len(result.curve) == 4
    assert {(p.method, p.level) for p in result.curve} == {
        ("quantile", 0.5), ("quantile", 1.0),
        ("logistic", 0.5), ("logistic", 1.0),
    }
    assert result.published == ()


def test_single_rep_std_is_zero():
    result, _ = run_experiment(tiny_recall_config(reps=1))
    assert all(a.std == 0.0 for a in result.aggregates)
    assert all(len(a.per_rep) == 1 for a in result.aggregates)


def test_run_is_deterministic_and_seed_overridable():
    r1, _ = run_experiment(tiny_recall_config())
    r2, _ = run_experiment(tiny_recall_config())
    assert r1.to_dict() == r2.to_dict()
    r3, _ = run_experiment(tiny_recall_config(), seed=78)
    assert r3.seed == 78
    assert r3.to_dict() != r1.to_dict()


def test_jobs_do_not_change_results():
    r1, _ = run_experiment(tiny_recall_config(), jobs=1)
    r2, _ = run_experiment(tiny_recall_config(), jobs=2)
    assert r1.to_dict() == r2.to_dict()
    assert multiprocessing.active_children() == []


def test_more_jobs_than_reps_runs_one_worker_per_rep():
    r1, _ = run_experiment(tiny_recall_config(reps=3), jobs=1)
    r8, _ = run_experiment(tiny_recall_config(reps=3), jobs=8)
    assert r1.to_dict() == r8.to_dict()
    assert multiprocessing.active_children() == []


def diverging_config():
    # the decay term (0.1 times the weights) overflows them at step 2
    config = tiny_recall_config()
    config["train"] = dict(config["train"], learning_rate=1e300)
    return config


def test_a_worker_error_matches_the_serial_error():
    messages = []
    for jobs in (1, 2):
        with pytest.raises(Diverged) as info:
            run_experiment(diverging_config(), jobs=jobs)
        assert type(info.value) is Diverged
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert "diverged" in messages[0]
    assert messages[0] == messages[1]


def test_a_serial_run_never_loads_the_process_pool():
    script = "\n".join([
        "import json, sys",
        "from quantrate import run_experiment",
        f"config = json.loads({json.dumps(tiny_recall_config())!r})",
        "run_experiment(config, jobs=1)",
        "run_experiment(dict(config, reps=1), jobs=2)",
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('concurrent.futures.', 'multiprocessing'))))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_config_validation():
    with pytest.raises(InvalidSpec, match="unknown experiment kind"):
        run_experiment({"kind": "spline"})
    with pytest.raises(InvalidSpec):
        run_experiment(tiny_recall_config(reps=0))
    with pytest.raises(InvalidSpec):
        run_experiment(tiny_recall_config(recall_levels=[0.0]))
    with pytest.raises(InvalidSpec):
        run_experiment(tiny_recall_config(weight_decays=[]))
    with pytest.raises(InvalidSpec):
        run_experiment(tiny_recall_config(weight_decays=[-0.1]))
    with pytest.raises(InvalidSpec, match="lacks keys"):
        bad = tiny_recall_config()
        del bad["logistic"]
        run_experiment(bad)
    with pytest.raises(InvalidSpec):
        run_experiment(tiny_recall_config(), seed=-1)
    with pytest.raises(InvalidSpec):
        run_experiment(tiny_recall_config(), jobs=0)


def test_rate_table_runs_from_a_csv(tmp_path):
    config = tiny_rate_config(tiny_csv(tmp_path))
    result, _ = run_experiment(config)
    assert result.kind == "rate_table"
    # 2 methods x 2 taus x 2 selections
    assert len(result.aggregates) == 8
    levels = {a.level for a in result.aggregates}
    assert levels == {0.1, 0.3}
    for a in result.aggregates:
        assert 0.0 <= a.mean <= 1.0
    # a tau of 1 is not a valid predicted-positive rate
    bad = tiny_rate_config(tiny_csv(tmp_path))
    bad["taus"] = [1.0]
    with pytest.raises(InvalidSpec, match="taus"):
        run_experiment(bad)
    # any rate below 1 is one, however close
    bad["taus"] = [0.9999995]
    assert experiment_spec(bad).levels == (0.9999995,)


def test_load_experiment_dataset_override(tmp_path):
    path = tiny_csv(tmp_path)
    config = tiny_rate_config(path)
    d = load_experiment_dataset(config, None)
    assert d.n == 120
    elsewhere = tiny_csv(tmp_path, n=40, seed=9, name="other.csv")
    d2 = load_experiment_dataset(config, str(elsewhere))
    assert d2.n == 40
    config["data"]["format"] = "parquet"
    with pytest.raises(InvalidSpec, match="unknown data format"):
        load_experiment_dataset(config, str(path))
    with pytest.raises(InvalidSpec, match="no dataset path"):
        load_experiment_dataset({"data": {"label_column": 0}}, None)


def test_write_results_files_and_rerun_bytes(tmp_path):
    config = tiny_recall_config(published="ionosphere")
    result, _ = run_experiment(config)
    paths = write_results(result, tmp_path / "out")
    names = [p.name for p in paths]
    assert names == ["results.json", "summary.csv", "pr_points.csv"]
    blob = {p.name: p.read_bytes() for p in paths}

    again, _ = run_experiment(config)
    paths2 = write_results(again, tmp_path / "out2")
    assert {p.name: p.read_bytes() for p in paths2} == blob

    parsed = json.loads(blob["results.json"].decode())
    assert parsed["kind"] == "recall_point"
    assert len(parsed["aggregates"]) == 4
    assert len(parsed["published"]) == len(published_rows("ionosphere"))

    lines = blob["summary.csv"].decode().splitlines()
    assert lines[0] == "method,level,mean,std,selection,weight_decay,source"
    computed = [l for l in lines[1:] if l.endswith(",computed")]
    published = [l for l in lines[1:] if l.endswith(",published")]
    assert len(computed) == 4
    assert len(published) == len(published_rows("ionosphere"))
    # published rows carry no selection or weight-decay cells
    assert all(l.split(",")[4] == "" and l.split(",")[5] == ""
               for l in published)

    curve_lines = blob["pr_points.csv"].decode().splitlines()
    assert curve_lines[0] == "method,level,mean,std"
    assert len(curve_lines) == 1 + len(parsed["curve"])


# Few logistic steps from a wide init make the logistic seed visible in
# the precisions, so these values pin every per-model seed stream.
GOLDEN_LOGISTIC = {"learning_rate": 0.05, "steps": 3, "init_scale": 1.0}

# (method, level, selection) -> (selected weight decay, per_rep);
# precisions are tp/k fractions, so they are exact across BLAS builds
GOLDEN_RATE_TABLE = {
    ("quantile", 0.1, "test"): (0.01, (1.0, 1.0)),
    ("quantile", 0.1, "train"): (0.01, (1.0, 1.0)),
    ("quantile", 0.3, "test"): (0.01, (0.9285714285714286, 0.9285714285714286)),
    ("quantile", 0.3, "train"): (0.5, (0.8571428571428571, 0.9285714285714286)),
    ("logistic", 0.1, "test"): (0.01, (1.0, 1.0)),
    ("logistic", 0.1, "train"): (0.01, (1.0, 1.0)),
    ("logistic", 0.3, "test"): (0.5, (1.0, 1.0)),
    ("logistic", 0.3, "train"): (0.01, (0.9285714285714286, 1.0)),
}
GOLDEN_RECALL_POINT = {
    ("quantile", 0.8, "test"): (0.0, (0.918918918918919, 0.7631578947368421)),
    ("quantile", 0.8, "train"): (0.0, (0.918918918918919, 0.7631578947368421)),
    ("quantile", 0.6, "test"): (0.0, (1.0, 0.9565217391304348)),
    ("quantile", 0.6, "train"): (0.1, (1.0, 0.8461538461538461)),
    ("logistic", 0.8, "test"): (0.0, (0.918918918918919, 0.7631578947368421)),
    ("logistic", 0.8, "train"): (0.0, (0.918918918918919, 0.7631578947368421)),
    ("logistic", 0.6, "test"): (0.0, (1.0, 0.9166666666666666)),
    ("logistic", 0.6, "train"): (0.0, (1.0, 0.9166666666666666)),
}
GOLDEN_RECALL_CURVE = [
    ("quantile", 0.5, 0.9090909090909092, 0.12856486930664496),
    ("quantile", 1.0, 0.675, 0.10606601717798214),
    ("logistic", 0.5, 0.9736842105263157, 0.03721614637823938),
    ("logistic", 1.0, 0.675, 0.10606601717798214),
]


def test_golden_per_rep_precisions_pin_the_seed_streams(tmp_path):
    config = tiny_rate_config(tiny_csv(tmp_path))
    config.update(weight_decays=[0.01, 0.5], logistic=GOLDEN_LOGISTIC)
    recall = tiny_recall_config(recall_levels=[0.8, 0.6],
                                logistic=GOLDEN_LOGISTIC)
    for config, golden in ((config, GOLDEN_RATE_TABLE),
                           (recall, GOLDEN_RECALL_POINT)):
        result, _ = run_experiment(config)
        assert {
            (a.method, a.level, a.selection): (a.weight_decay, a.per_rep)
            for a in result.aggregates
        } == golden
    assert [(p.method, p.level, p.mean, p.std)
            for p in result.curve] == GOLDEN_RECALL_CURVE


def test_published_tables_structure():
    tables = published_tables()["tables"]
    assert "ionosphere" in tables and "housing" in tables
    for table in tables:
        rows = published_rows(table)
        assert rows
        for row in rows:
            assert set(row) == {"method", "level", "mean", "std", "source"}
            assert row["source"] == "published"
            assert 0.0 <= row["mean"] <= 1.0
    with pytest.raises(InvalidSpec, match="no published table"):
        published_rows("nope")


def test_presets_load_and_reject_unknown_names():
    names = preset_names()
    assert "synthetic" in names and "ionosphere" in names
    for name in names:
        config = load_preset(name)
        assert isinstance(config, dict) and config
    # mutating a loaded copy must not leak into the next load
    config = load_preset("synthetic")
    config["seed"] = 1
    assert load_preset("synthetic")["seed"] != 1
    with pytest.raises(InvalidSpec, match="unknown preset"):
        load_preset("nope")
