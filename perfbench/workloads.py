"""The four benchmark workloads and their seeded inputs.

Each workload is a closed loop of calls into quantrate's public API:
the next call starts when the previous one returns.  ``setup`` builds
the inputs from the benchmark seed and loads the preset; ``run`` makes
one timed call with a per-call seed and returns the bytes a user would
get, the work done, and the result figures the output checks read.

Why these four: quantrate's cost is many tiny numpy calls, and each
planned optimisation helps one call pattern and can hurt another.

* rate_table_iono351: 60 kernel-estimator models per repetition at
  n of about 105; per-call overhead dominates.
* recall_synthetic: the same trainer at n of about 5000 with two models
  per repetition; arithmetic in the loss dominates and the --jobs
  thread pool pays.
* loss_deviation: 35 050 lower_mean estimates at n from 50 to 20 000
  and no training; the estimator's sort dominates.
* convex_minibatch: the trainer's minibatch and random-draw path and
  the surrogate_loss dispatch.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import quantrate
from quantrate import concentration, data, experiment, presets

# sub-stream tags for numpy SeedSequence, so input and call seeds differ
_DATA_STREAM = 0
_CALL_STREAM = 1

# Shape of the UCI ionosphere file: 351 rows, 34 features, 126 "b".
IONO_ROWS = 351
IONO_FEATURES = 34
IONO_POSITIVES = 126
# Fixed population structure; only the rows drawn from it follow the
# seed, so the class overlap (and the test precision) is the same kind
# of problem on every seed.
_IONO_STRUCTURE_SEED = 351
_IONO_SHIFT = 0.4
_IONO_SIGMA_G = 0.35
_IONO_SIGMA_B = 0.42
_IONO_B_FIRST_COLUMN_ONE = 0.92


def derive_seed(seed: int, stream: int, index: int = 0) -> int:
    """A 32-bit seed for one input stream or one call of a run."""
    return int(np.random.SeedSequence((seed, stream, index)).generate_state(1)[0])


def call_seed(seed: int, index: int) -> int:
    return derive_seed(seed, _CALL_STREAM, index)


def write_ionosphere(path: Path, seed: int) -> None:
    """Write a seeded 351x34 ionosphere-shaped file with g/b labels.

    Like the UCI file: the first column is binary, the second is
    constant 0, the rest lie in [-1, 1] at five decimals, and the label
    is the last column.  "b" rows are wider spread and shifted along a
    fixed direction; the overlap is soft enough that precision at the
    preset's rates falls between about 0.5 and 1.0.
    """
    fixed = np.random.default_rng(_IONO_STRUCTURE_SEED)
    width = IONO_FEATURES - 2
    direction = fixed.standard_normal(width)
    direction /= np.linalg.norm(direction)
    center = fixed.uniform(-0.3, 0.6, width)

    rng = np.random.default_rng(derive_seed(seed, _DATA_STREAM))
    is_b = np.zeros(IONO_ROWS, dtype=bool)
    is_b[rng.permutation(IONO_ROWS)[:IONO_POSITIVES]] = True
    first = np.where(is_b, rng.random(IONO_ROWS) < _IONO_B_FIRST_COLUMN_ONE, True)
    noise = rng.standard_normal((IONO_ROWS, width))
    sigma = np.where(is_b, _IONO_SIGMA_B, _IONO_SIGMA_G)[:, None]
    shift = np.where(is_b, _IONO_SHIFT, 0.0)[:, None]
    rest = np.clip(center + sigma * noise + shift * direction, -1.0, 1.0)

    lines = []
    for one, row, b in zip(first, rest, is_b):
        cells = ["1" if one else "0", "0"] + [f"{v:.5f}" for v in row]
        cells.append("b" if b else "g")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Outcome:
    """What one call produced: output bytes, work done, result figures."""

    output: bytes
    units: int
    figures: Dict[str, float]
    problems: List[str]


@dataclass
class Workload:
    name: str
    unit: str
    setup: Callable[[int, Path], dict]
    shrink: Callable[[dict], dict]
    run: Callable[[dict, dict, int, Path], Outcome]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# -- experiment workloads ---------------------------------------------------


def _experiment_steps(config: dict) -> int:
    """Quantile plus logistic model-steps of one run, from the config."""
    levels = config.get("taus") or config.get("recall_levels")
    decays = len(config["weight_decays"])
    quantile = (
        len(levels) * decays * int(config["train"].get("restarts", 1))
        * int(config["train"]["steps"])
    )
    logistic = decays * int(config["logistic"]["steps"])
    return int(config["reps"]) * (quantile + logistic)


def _run_experiment(ctx: dict, config: dict, sub_seed: int, out_dir: Path) -> Outcome:
    result, _ = experiment.run_experiment(
        config, data_path=ctx.get("data_path"), seed=sub_seed, jobs=ctx["jobs"]
    )
    paths = experiment.write_results(result, out_dir)
    output = b"".join(p.read_bytes() for p in paths)
    output += json.dumps(result.to_dict(), sort_keys=True).encode()

    problems = []
    for a in result.aggregates:
        if not _finite(a.per_rep + (a.mean, a.std)):
            problems.append(f"non-finite aggregate {a.method}@{a.level}")
        if not all(0.0 <= v <= 1.0 for v in a.per_rep):
            problems.append(f"precision outside [0, 1] in {a.method}@{a.level}")
    selected = [
        a.mean
        for a in result.aggregates
        if a.method == experiment.METHOD_QUANTILE and a.selection == "test"
    ]
    return Outcome(
        output=output,
        units=_experiment_steps(config),
        figures={"test_precision": float(np.mean(selected))},
        problems=problems,
    )


def _setup_iono(seed: int, workdir: Path) -> dict:
    path = workdir / "ionosphere.data"
    write_ionosphere(path, seed)
    config = presets.load_preset("ionosphere")
    config["reps"] = 1
    return {"config": config, "data_path": str(path), "jobs": 1}


def _shrink_iono(config: dict) -> dict:
    small = copy.deepcopy(config)
    small["taus"] = [0.05, 0.19]
    small["weight_decays"] = [0.01]
    small["train"].update(steps=10, eval_every=10, restarts=1)
    small["logistic"].update(steps=10, eval_every=10)
    return small


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _setup_synthetic(seed: int, workdir: Path) -> dict:
    # The preset as shipped: recall_point draws its own mixture per
    # repetition from the experiment seed each call receives.
    config = presets.load_preset("synthetic")
    return {"config": config, "jobs": min(2, nproc())}


def _shrink_synthetic(config: dict) -> dict:
    small = copy.deepcopy(config)
    small["synthetic"]["n"] = 600
    small["reps"] = 2
    small["train"].update(steps=10, eval_every=10, restarts=1)
    small["logistic"].update(steps=10, eval_every=10)
    return small


# -- concentration workloads ------------------------------------------------


def _synthetic_dataset(config: dict, seed: int):
    block = dict(config["synthetic"], seed=derive_seed(seed, _DATA_STREAM))
    return data.generate_synthetic(data.SyntheticSpec(**block))


def _setup_loss_deviation(seed: int, workdir: Path) -> dict:
    # Half the preset's 200 trials (the lab's minimum is 100), so that a
    # run holds several calls; batch sizes and the 50 models per trial
    # are as shipped.
    config = presets.load_preset("loss_deviation")
    config["trials"] = 100
    return {"config": config, "dataset": _synthetic_dataset(config, seed)}


def _shrink_loss_deviation(config: dict) -> dict:
    small = copy.deepcopy(config)
    small.update(batch_sizes=[50, 100], n_models=3)
    return small


def _run_loss_deviation(ctx: dict, config: dict, sub_seed: int, out_dir: Path) -> Outcome:
    report = concentration.loss_uniform_deviation(
        dataset=ctx["dataset"],
        constraint=quantrate.RateConstraint(**config["constraint"]),
        estimator_spec=quantrate.QuantileEstimatorSpec(**config["estimator"]),
        batch_sizes=config["batch_sizes"],
        trials=int(config["trials"]),
        w_norm_bound=float(config["w_norm_bound"]),
        n_models=int(config["n_models"]),
        seed=sub_seed,
    )
    slope = report.fitted_slope
    problems = []
    if not (math.isfinite(slope) and slope < 0.0):
        problems.append(f"fitted slope {slope} is not finite and negative")
    if not _finite(report.mean_abs_dev + report.q95_abs_dev):
        problems.append("non-finite deviation")
    evaluations = int(config["n_models"]) * (
        1 + len(config["batch_sizes"]) * int(config["trials"])
    )
    return Outcome(
        output=json.dumps(report.to_dict(), sort_keys=True).encode(),
        units=evaluations,
        figures={"slope_gap": abs(slope + 0.5)},
        problems=problems,
    )


def _setup_convex(seed: int, workdir: Path) -> dict:
    config = presets.load_preset("convex_convergence")
    return {"config": config, "dataset": _synthetic_dataset(config, seed)}


def _shrink_convex(config: dict) -> dict:
    small = copy.deepcopy(config)
    small.update(t_grid=[10, 20], trials=2)
    return small


def _run_convex(ctx: dict, config: dict, sub_seed: int, out_dir: Path) -> Outcome:
    report = concentration.convex_sgd_convergence(
        dataset=ctx["dataset"],
        c=float(config["c"]),
        batch_size=int(config["batch_size"]),
        t_grid=config["t_grid"],
        trials=int(config["trials"]),
        seed=sub_seed,
    )
    problems = []
    if not _finite(report.mean_excess + (report.ref_loss,)):
        problems.append("non-finite excess loss")
    return Outcome(
        output=json.dumps(report.to_dict(), sort_keys=True).encode(),
        units=int(config["trials"]) * sum(int(t) for t in config["t_grid"]),
        figures={"excess_loss": report.mean_excess[-1]},
        problems=problems,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rate_table_iono351", "model-steps",
            _setup_iono, _shrink_iono, _run_experiment,
        ),
        Workload(
            "recall_synthetic", "model-steps",
            _setup_synthetic, _shrink_synthetic, _run_experiment,
        ),
        Workload(
            "loss_deviation", "estimator evaluations",
            _setup_loss_deviation, _shrink_loss_deviation, _run_loss_deviation,
        ),
        Workload(
            "convex_minibatch", "model-steps",
            _setup_convex, _shrink_convex, _run_convex,
        ),
    )
}
