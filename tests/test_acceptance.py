"""Acceptance gate: benchmark targets, scaling laws, property suites.

Each test pins the tolerances it was accepted under and prints the
measured numbers, so a regression shows both the bound and the value
that broke it.  The two UCI benchmarks skip with a reason when their
data files are absent; everything else runs self-contained.
"""

import json
import math
import re
import time
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from quantrate import (
    Dataset,
    DegenerateInterval,
    DegenerateSplit,
    LinearModel,
    QuantileEstimatorSpec,
    RateConstraint,
    SplitSpec,
    SurrogateLossSpec,
    SyntheticSpec,
    calibrate_threshold,
    estimate,
    estimator_stability,
    exact_quantile,
    generate_synthetic,
    load_preset,
    logloss,
    loss_gradient,
    loss_uniform_deviation,
    published_rows,
    run_experiment,
    split,
    surrogate_loss,
)
from quantrate.cli import main
from quantrate.config import estimator_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
IONOSPHERE = REPO_ROOT / "data" / "ionosphere.data"
HOUSING = REPO_ROOT / "data" / "housing.data"


def aggregates_by_level(result, method, selection="test"):
    return {a.level: a for a in result.aggregates
            if a.method == method and a.selection == selection}


def test_synthetic_preset_beats_the_logistic_baseline():
    result, elapsed = run_experiment(load_preset("synthetic"))
    quantile = aggregates_by_level(result, "quantile")[0.9]
    logistic = aggregates_by_level(result, "logistic")[0.9]
    print(f"precision@recall0.9 quantile={quantile.mean:.4f} "
          f"logistic={logistic.mean:.4f} "
          f"ratio={quantile.mean / logistic.mean:.2f} "
          f"elapsed={elapsed:.1f}s")
    assert quantile.mean >= 0.30
    assert logistic.mean <= 0.20
    assert quantile.mean >= 1.8 * logistic.mean
    assert elapsed <= 120.0


@pytest.mark.skipif(
    not IONOSPHERE.exists(),
    reason="data/ionosphere.data not present; place the 351-row UCI "
    "ionosphere file there to run this benchmark",
)
def test_ionosphere_preset_hits_published_precision():
    result, elapsed = run_experiment(
        load_preset("ionosphere"), data_path=str(IONOSPHERE)
    )
    computed = aggregates_by_level(result, "quantile")
    reference = {
        row["level"]: row["mean"]
        for row in published_rows("ionosphere")
        if row["method"] == "quantile_three_starts"
    }
    for tau in sorted(reference):
        print(f"tau={tau}: mean={computed[tau].mean:.3f} "
              f"published={reference[tau]:.2f}")
    print(f"elapsed={elapsed:.1f}s")
    assert computed[0.01].mean >= 0.85
    assert computed[0.05].mean >= 0.85
    for tau, published_mean in reference.items():
        assert abs(computed[tau].mean - published_mean) <= 0.10
    assert elapsed <= 900.0


@pytest.mark.skipif(
    not HOUSING.exists(),
    reason="data/housing.data not present; place the 506-row UCI housing "
    "file there to run this benchmark",
)
def test_housing_preset_keeps_quantile_above_logistic():
    result, elapsed = run_experiment(
        load_preset("housing"), data_path=str(HOUSING)
    )
    quantile = aggregates_by_level(result, "quantile")
    logistic = aggregates_by_level(result, "logistic")
    for tau in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06):
        print(f"tau={tau}: quantile={quantile[tau].mean:.3f} "
              f"logistic={logistic[tau].mean:.3f}")
        assert quantile[tau].mean >= logistic[tau].mean
    print(f"elapsed={elapsed:.1f}s")
    assert elapsed <= 900.0


def run_stability_preset(name):
    config = load_preset(name)
    started = time.perf_counter()
    report = estimator_stability(
        n=int(config["n"]),
        batch_sizes=config["batch_sizes"],
        trials=int(config["trials"]),
        estimator_spec=estimator_spec(config["estimator"]),
        c=float(config["c"]),
        score_law=str(config["score_law"]),
        seed=int(config["seed"]),
    )
    return report, time.perf_counter() - started


def test_estimator_stability_scales_like_root_batch():
    for name in ("stability_kernel", "stability_interval"):
        report, elapsed = run_stability_preset(name)
        print(f"{name}: slope={report.fitted_slope:.4f} "
              f"dev(50)={report.mean_abs_dev[0]:.5f} "
              f"dev(12800)={report.mean_abs_dev[-1]:.5f} "
              f"elapsed={elapsed:.1f}s")
        assert -0.65 <= report.fitted_slope <= -0.35
        assert report.mean_abs_dev[-1] < report.mean_abs_dev[0]
        assert elapsed <= 300.0


def test_loss_deviation_scales_like_root_batch():
    config = load_preset("loss_deviation")
    dataset = generate_synthetic(SyntheticSpec(**config["synthetic"]))
    started = time.perf_counter()
    report = loss_uniform_deviation(
        dataset=dataset,
        constraint=RateConstraint(**config["constraint"]),
        estimator_spec=estimator_spec(config["estimator"]),
        batch_sizes=config["batch_sizes"],
        trials=int(config["trials"]),
        w_norm_bound=float(config["w_norm_bound"]),
        n_models=int(config["n_models"]),
        seed=int(config["seed"]),
    )
    elapsed = time.perf_counter() - started
    print(f"loss_deviation: slope={report.fitted_slope:.4f} "
          f"elapsed={elapsed:.1f}s")
    assert -0.65 <= report.fitted_slope <= -0.35
    assert elapsed <= 300.0


def test_property_lower_mean_never_exceeds_point():
    rng = np.random.default_rng(41)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        scores = rng.standard_normal(n) * rng.uniform(0.5, 5.0)
        if rng.random() < 0.3:
            scores = np.round(scores)  # force ties
        c = float(rng.uniform(0.0, 1.0))
        lower = estimate(QuantileEstimatorSpec(kind="lower_mean"), scores, c)
        point = estimate(QuantileEstimatorSpec(kind="point"), scores, c)
        if not lower.value <= point.value + 1e-12:
            violations += 1
    print(f"lower_mean<=point violations: {violations}/1000")
    assert violations == 0


def test_property_lower_mean_loss_is_midpoint_convex():
    rng = np.random.default_rng(42)
    lower = QuantileEstimatorSpec(kind="lower_mean")
    violations = 0
    for _ in range(1000):
        n_pos = int(rng.integers(2, 12))
        n_neg = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 5))
        X = rng.standard_normal((n_pos + n_neg, dim)) * 2.0
        y = np.concatenate([np.ones(n_pos, dtype=int),
                            -np.ones(n_neg, dtype=int)])
        d = Dataset(X, y)
        c = float(rng.uniform(0.05, 1.0))
        spec = SurrogateLossSpec(
            objective="p_at_r",
            constraint=RateConstraint("positives", "at_least", c),
            estimator=lower,
        )
        w1 = rng.standard_normal(dim) * 3.0
        w2 = rng.standard_normal(dim) * 3.0
        l1 = surrogate_loss(LinearModel(w1), d, spec).value
        l2 = surrogate_loss(LinearModel(w2), d, spec).value
        mid = surrogate_loss(LinearModel((w1 + w2) / 2.0), d, spec).value
        if not mid <= (l1 + l2) / 2.0 + 1e-9:
            violations += 1
    print(f"midpoint convexity violations: {violations}/1000")
    assert violations == 0


def test_property_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    kinds = [
        QuantileEstimatorSpec(kind="point"),
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.2),
        QuantileEstimatorSpec(kind="lower_mean"),
        QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
    ]
    objectives = ["p_at_r", "p_at_ppr_fp", "p_at_ppr_tp"]
    violations = 0
    worst = 0.0
    done = 0
    while done < 200:
        est = kinds[done % 4]
        objective = objectives[done % 3]
        n_pos = int(rng.integers(5, 15))
        n_neg = int(rng.integers(5, 15))
        dim = int(rng.integers(2, 5))
        X = rng.standard_normal((n_pos + n_neg, dim)) * 1.5
        y = np.concatenate([np.ones(n_pos, dtype=int),
                            -np.ones(n_neg, dtype=int)])
        d = Dataset(X, y)
        c = float(rng.uniform(0.1, 0.9))
        w = rng.standard_normal(dim)
        if objective == "p_at_r":
            constraint = RateConstraint("positives", "at_least", c)
        else:
            constraint = RateConstraint("all", "at_least", c)
        spec = SurrogateLossSpec(objective=objective, constraint=constraint,
                                 estimator=est)
        sub_scores = (X @ w)[y == 1] if objective == "p_at_r" else X @ w
        gaps = np.diff(np.sort(sub_scores))
        if gaps.size and gaps.min() < 1e-4:
            continue  # redraw: the difference would straddle a sort tie
        g = loss_gradient(LinearModel(w), d, spec)
        fd = np.empty(dim)
        for j in range(dim):
            eps = 1e-6 * max(1.0, abs(w[j]))
            wp = w.copy()
            wp[j] += eps
            wm = w.copy()
            wm[j] -= eps
            fd[j] = (surrogate_loss(LinearModel(wp), d, spec).value
                     - surrogate_loss(LinearModel(wm), d, spec).value
                     ) / (2 * eps)
        rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
        worst = max(worst, rel)
        if rel > 1e-4:
            violations += 1
        done += 1
    print(f"gradient violations: {violations}/200, worst rel {worst:.2e}")
    assert violations == 0


def test_property_calibration_is_exhaustively_maximal():
    # every multiset of up to 12 scores over a 5-value alphabet, against
    # a brute-force scan of all candidate thresholds
    alphabet = (-1.5, -0.25, 0.3, 0.31, 2.0)
    bad_least = 0
    bad_most = 0
    below_start = 0
    checked = 0
    for n in range(1, 13):
        c_grid = sorted({i / 20 for i in range(21)}
                        | {k / n for k in range(n + 1)})
        levels = [(c, RateConstraint("all", "at_least", c),
                   RateConstraint("all", "at_most", c)) for c in c_grid]
        for combo in combinations_with_replacement(alphabet, n):
            s = np.array(combo)
            distinct = list(np.unique(s))
            candidates = distinct + [float(np.nextafter(s.min(), -np.inf))]
            for c, at_least, at_most in levels:
                checked += 1
                theta = calibrate_threshold(s, at_least)
                feasible = [t for t in candidates
                            if np.count_nonzero(s > t) / n >= c]
                if not feasible or theta != max(feasible):
                    bad_least += 1
                theta2 = calibrate_threshold(s, at_most)
                feasible2 = [t for t in distinct
                             if np.count_nonzero(s > t) / n <= c]
                if (np.count_nonzero(s > theta2) / n > c
                        or theta2 != min(feasible2)):
                    bad_most += 1
                if theta2 < exact_quantile(s, 1.0 - c):
                    below_start += 1
    print(f"exhaustive calibration: {checked} cases, "
          f"at_least bad {bad_least}, at_most bad {bad_most}, "
          f"at_most below the exact quantile {below_start}")
    assert checked == 168727
    assert bad_least == 0
    assert bad_most == 0
    assert below_start == 0


def edge_targets(n):
    """Each k/n for k = 0..n and its two float neighbours inside [0, 1]."""
    targets = set()
    for k in range(n + 1):
        c = k / n
        targets.update((np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)))
    return sorted(float(c) for c in targets if 0.0 <= c <= 1.0)


def largest_k(n, c):
    """max{k : k/n <= c}, counting the k in 0..n whose k/n is <= c."""
    return int(np.count_nonzero(np.arange(n + 1) / n <= c)) - 1


def test_property_every_count_rule_is_k_over_n():
    # calibration, the interval window and split sizes on n samples at
    # every edge target, against brute-force scans of the literal k/n
    # comparison.  n stops at 50, which keeps this near 2 s: to n = 200
    # the sweep takes about 26 s on a 2-core x86-64 host, 18 s in split.
    for n in range(1, 51):
        s = np.arange(float(n))
        candidates = np.append(s, np.nextafter(0.0, -np.inf))
        rates = np.count_nonzero(s > candidates[:, None], axis=1) / n
        targets = edge_targets(n)
        for c in targets:
            theta = calibrate_threshold(s, RateConstraint("all", "at_least", c))
            assert np.count_nonzero(s > theta) / n >= c
            assert theta == candidates[rates >= c].max()
            theta = calibrate_threshold(s, RateConstraint("all", "at_most", c))
            assert np.count_nonzero(s > theta) / n <= c
            assert theta == s[rates[:n] <= c].min()
        inner = [c for c in targets if 0.0 < c < 1.0]
        for k1, k2 in zip(inner, inner[1:]):
            lo, hi = largest_k(n, k1), largest_k(n, k2)
            spec = QuantileEstimatorSpec(kind="interval", k1=k1, k2=k2)
            if hi <= lo:
                with pytest.raises(DegenerateInterval):
                    estimate(spec, s, 0.5)
            else:
                support = estimate(spec, s, 0.5).support
                assert list(support) == list(range(lo, hi))
        if n < 2:
            continue
        d = Dataset(s[:, None], np.where(s % 3 == 0, 1, -1))
        n_pos = d.positive_indices().size
        for c in inner:
            size = largest_k(n, c)
            for stratified in (False, True):
                spec = SplitSpec(c, seed=0, stratified=stratified)
                if not 1 <= size < n:
                    with pytest.raises(DegenerateSplit):
                        split(d, spec)
                    continue
                train, _ = split(d, spec)
                assert train.n == size
                if stratified:
                    positives = train.positive_indices().size
                    assert positives == largest_k(n_pos, c)


def test_property_surrogate_dominates_the_violation_count():
    rng = np.random.default_rng(44)
    kinds = [
        QuantileEstimatorSpec(kind="point"),
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.2),
        QuantileEstimatorSpec(kind="lower_mean"),
        QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
    ]
    violations = 0
    for i in range(500):
        est = kinds[i % 4]
        objective = ["p_at_r", "p_at_ppr_fp", "p_at_ppr_tp"][i % 3]
        n_pos = int(rng.integers(4, 14))
        n_neg = int(rng.integers(4, 14))
        dim = int(rng.integers(1, 4))
        X = rng.standard_normal((n_pos + n_neg, dim)) * 2.0
        y = np.concatenate([np.ones(n_pos, dtype=int),
                            -np.ones(n_neg, dtype=int)])
        d = Dataset(X, y)
        c = float(rng.uniform(0.1, 0.9))
        base = float(rng.choice([2.0, math.e, 10.0]))
        if objective == "p_at_r":
            constraint = RateConstraint("positives", "at_least", c)
            sub_rows, pen_rows, sign = y == 1, y == -1, 1.0
        elif objective == "p_at_ppr_fp":
            constraint = RateConstraint("all", "at_least", c)
            sub_rows, pen_rows, sign = np.ones(y.size, bool), y == -1, 1.0
        else:
            constraint = RateConstraint("all", "at_least", c)
            sub_rows, pen_rows, sign = np.ones(y.size, bool), y == 1, -1.0
        spec = SurrogateLossSpec(objective=objective, constraint=constraint,
                                 estimator=est, logloss_base=base)
        w = rng.standard_normal(dim)
        value = surrogate_loss(LinearModel(w), d, spec).value
        scores = X @ w
        q = estimate(est, scores[sub_rows], 1.0 - c).value
        count = int(np.count_nonzero(sign * (scores[pen_rows] - q) > 0))
        if not value >= count * logloss(0.0, base) - 1e-9:
            violations += 1
    print(f"dominance violations: {violations}/500")
    assert violations == 0


def test_property_normalized_estimators_are_affine_equivariant():
    rng = np.random.default_rng(45)
    specs = [
        QuantileEstimatorSpec(kind="point"),
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.15),
        QuantileEstimatorSpec(kind="lower_mean"),
        QuantileEstimatorSpec(kind="interval", k1=0.2, k2=0.8),
    ]
    violations = 0
    worst = 0.0
    for i in range(500):
        spec = specs[i % 4]
        n = int(rng.integers(5, 40))
        scores = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        if rng.random() < 0.3:
            scores = np.round(scores * 2) / 2
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        c = float(rng.uniform(0.0, 1.0))
        q0 = estimate(spec, scores, c).value
        q1 = estimate(spec, a * scores + b, c).value
        err = abs(q1 - (a * q0 + b)) / max(1.0, abs(a * q0 + b))
        worst = max(worst, err)
        if err > 1e-12:
            violations += 1
    print(f"equivariance violations: {violations}/500, worst {worst:.2e}")
    assert violations == 0


def test_reruns_reproduce_output_files_byte_for_byte(tmp_path):
    rng = np.random.default_rng(6)
    lines = []
    for _ in range(80):
        x = rng.standard_normal(3)
        label = "g" if x[0] + 0.4 * rng.standard_normal() > 0.3 else "b"
        lines.append(",".join(f"{v:.6f}" for v in x) + "," + label)
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    train_config = {
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
            "steps": 30,
            "seed": 19,
            "restarts": 2,
        },
    }
    config_path = tmp_path / "train.json"
    config_path.write_text(json.dumps(train_config), encoding="utf-8")
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    assert main(["train", "--config", str(config_path), "--out", str(m1),
                 "--quiet"]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(m2),
                 "--quiet"]) == 0
    assert m1.read_bytes() == m2.read_bytes()

    out1 = tmp_path / "exp1"
    out2 = tmp_path / "exp2"
    assert main(["experiment", "--config", "synthetic", "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["experiment", "--config", "synthetic", "--out", str(out2),
                 "--quiet"]) == 0
    for name in ("results.json", "summary.csv", "pr_points.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_the_readme_quick_start_runs(capsys):
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    precision, recall, rate = map(float, capsys.readouterr().out.split())
    # calibrated on the data it reports on, so the recall floor holds
    assert recall >= 0.9
    assert 0.0 < precision <= 1.0 and 0.0 < rate <= 1.0
