"""Microseconds per model-step: quantile trainer against logistic baseline.

    python tools/step_cost.py

Builds one repetition of the ionosphere preset on the 351x34 file that
perfbench generates at seed 1: the preset's stratified 30% training
split, standardized (105 rows, 34 features).  Then it times, each as
the fastest of 7 calls:

* quantile K=60: one lockstep_train call of the preset's 20 models
  (5 levels x 4 decays), which trains their 3 restarts each as 60 rows
  of 300 full-batch steps;
* quantile K=4: the 4 decays at the first level, one restart each;
* quantile K=1: one sgd_train call per decay at the first level, summed;
* logistic K=4: the preset's 4 logistic fits (500 steps), in one
  lockstep_logistic_train call;
* logistic K=1: one logistic_train call per decay, summed.

Each time is divided by the call's model-steps (rows x steps).  It
also times one `estimators._row_weights` call at the two quantile
shapes, the preset's kernel estimator on the (K, 105) score rows of K
seeded models at their levels (K=4 and K=60), as the fastest of 7 runs
of 100 calls.

It also times one value call of the loss-deviation lab at the
`loss_deviation` preset's largest batch: `losses._row_values` on 50
models' seeded scores at b = 3200, with 2240 penalized rows (a strided
view, as the lab gathers them) and the whole batch as the subset, at
the preset's estimator and level, as the fastest of 7 runs of 20 calls.
perfbench books this path to `concentration`, so it has no layer of
its own there.

It also counts package calls per loop step, a figure that host noise
cannot blur: the `call` and `c_call` profile events whose caller is a
quantrate frame, in a 20-step lockstep_train call less those in a
10-step one, over 10 (steps 11-20 less steps 1-10; each run evaluates
its loss once, after its last step, follows an uncounted run and
starts with `_sorted_table` cleared).  It counts the K=4 models above
at full batch with each estimator kind, the kernel models at K=1 and
K=60 too, and 10 lower-mean rows of the convex lab's minibatch
training on its preset's data: batches of 50 and constraint batches
of 50 drawn from each row's own queues.  It counts the logistic fits
at K=1 and K=4 the same way, over lockstep_logistic_train steps.  A
count that grows with K is a per-row call in the loop.  Python 3.11
counts a list comprehension as a call; later versions inline it, and
operators such as `a + b` make no event.

The last line is one JSON object with the eight figures in
microseconds, the quantile/logistic ratio at K=4 (the cost of the rate
constraint over the unconstrained loss on the same data and K), the
training split's rows and features, and the nine counts of calls per
step.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import write_ionosphere  # noqa: E402
from quantrate import (  # noqa: E402
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    baseline,
    estimators,
    generate_synthetic,
)
from quantrate import presets  # noqa: E402
from quantrate.config import concentration_spec, estimator_spec, experiment_spec  # noqa: E402
from quantrate.data import split, standardize  # noqa: E402
from quantrate.experiment import load_experiment_dataset  # noqa: E402
from quantrate.losses import _row_values  # noqa: E402
from quantrate.train import lockstep_train, sgd_train  # noqa: E402

SEED, REPEATS, CALLS, LAB_CALLS = 1, 7, 100, 20
LAB_PENALIZED = 2240  # the negatives of a b = 3200 batch at positive prior 0.3
PARTITION_KINDS = (  # beside the preset's kernel
    QuantileEstimatorSpec(kind="point"),
    QuantileEstimatorSpec(kind="lower_mean"),
    QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
)


def fastest(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def package_calls(call) -> int:
    """The call and c_call events of call() whose caller is a quantrate
    frame, with the kernel's table cache cleared first."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        caller = frame.f_back if event == "call" else frame
        if event in ("call", "c_call") and caller is not None:
            count += caller.f_globals.get("__name__", "").startswith("quantrate")

    estimators._sorted_table.cache_clear()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def calls_per_step(dataset, models, train=lockstep_train) -> float:
    """Package calls per loop step of train(dataset, models), models
    being (loss spec or weight decay, config) pairs: steps 11-20 of a
    20-step call less steps 1-10 of a 10-step one, each counted after an
    uncounted call, which fills the record types' caches."""
    counts = []
    for steps in (10, 20):
        rows = [(m, replace(c, steps=steps, eval_every=20)) for m, c in models]
        train(dataset, rows)
        counts.append(package_calls(lambda: train(dataset, rows)))
    return (counts[1] - counts[0]) / 10


def ionosphere():
    """The preset's spec and its standardized training split at SEED."""
    config = presets.load_preset("ionosphere")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ionosphere.data"
        write_ionosphere(path, SEED)
        dataset = load_experiment_dataset(config, str(path))
    spec = experiment_spec(config)
    train_set, test_set = split(dataset, replace(spec.split, seed=SEED))
    return spec, standardize(train_set, test_set)[0]


def full_batch_calls(train_set, first_level) -> dict:
    """calls_per_step of the K=4 models at each estimator kind."""
    return {
        estimator.kind.value: calls_per_step(train_set, [
            (replace(loss, estimator=estimator), c) for loss, c in first_level])
        for estimator in (first_level[0][0].estimator, *PARTITION_KINDS)
    }


def scaling_calls(train_set, models, first_level, fits) -> dict:
    """calls_per_step of the preset's kernel models at K=1 and K=60, full
    batch, and of its logistic fits at K=1 and K=4."""
    logistic = baseline.lockstep_logistic_train
    return {
        "kernel_k1": calls_per_step(train_set, first_level[:1]),
        "kernel_k60": calls_per_step(train_set, models),
        "logistic_k1": calls_per_step(train_set, fits[:1], logistic),
        "logistic_k4": calls_per_step(train_set, fits, logistic),
    }


def minibatch_calls() -> float:
    """calls_per_step of the convex lab's minibatch rows: 10 trials of
    lower-mean recall training with batches of 50 on its preset's data."""
    lab = presets.load_preset("convex_convergence")
    _, args = concentration_spec(lab, None)
    dataset = generate_synthetic(args["dataset"])
    loss = SurrogateLossSpec(
        objective="p_at_r",
        constraint=RateConstraint("positives", "at_least", args["c"]),
        estimator=QuantileEstimatorSpec(kind="lower_mean"),
    )
    config = TrainConfig(learning_rate=0.01, steps=20, seed=0, momentum=0.0,
                         batch_size=args["batch_size"],
                         constraint_batch_size=args["batch_size"],
                         lr_decay="inv_sqrt")
    return calls_per_step(dataset, [(loss, replace(config, seed=trial))
                                    for trial in range(args["trials"])])


def preset_models(spec):
    """The preset's 20 quantile models, and its 4 at the first level with
    one restart each."""
    models = [
        (
            SurrogateLossSpec(
                objective="p_at_ppr_fp",
                constraint=RateConstraint("all", "at_least", level),
                estimator=spec.estimator,
            ),
            replace(spec.train, seed=1000 * li + 10 * wi, weight_decay=wd),
        )
        for li, level in enumerate(spec.levels)
        for wi, wd in enumerate(spec.weight_decays)
    ]
    return models, [(loss, replace(c, restarts=1))
                    for loss, c in models[:len(spec.weight_decays)]]


def logistic_fits(spec):
    """The preset's 4 logistic (weight decay, config) fits of a repetition."""
    return [(wd, replace(spec.logistic, seed=wi))
            for wi, wd in enumerate(spec.weight_decays)]


def main() -> int:
    spec, train_set = ionosphere()
    models, first_level = preset_models(spec)
    rows = len(models) * spec.train.restarts
    fits = logistic_fits(spec)
    q_steps, l_steps = spec.train.steps, spec.logistic.steps
    us = {
        "quantile_k60_us_per_model_step": fastest(
            lambda: lockstep_train(train_set, models)
        ) / (rows * q_steps),
        "quantile_k4_us_per_model_step": fastest(
            lambda: lockstep_train(train_set, first_level)
        ) / (len(first_level) * q_steps),
        "quantile_k1_us_per_model_step": sum(
            fastest(lambda: sgd_train(train_set, loss, c)) for loss, c in first_level
        ) / (len(first_level) * q_steps),
        "logistic_k4_us_per_model_step": fastest(
            lambda: baseline.lockstep_logistic_train(train_set, fits)
        ) / (len(fits) * l_steps),
        "logistic_k1_us_per_model_step": sum(
            fastest(lambda: baseline.logistic_train(train_set, wd, c))
            for wd, c in fits
        ) / (len(fits) * l_steps),
    }
    for group in (first_level, models):
        levels = np.array([1.0 - loss.constraint.target
                           for loss, c in group for _ in range(c.restarts)])
        W = np.random.default_rng(SEED).standard_normal((levels.size, train_set.dim))
        scores = W @ train_set.features.T
        us[f"kernel_weights_k{levels.size}_us_per_call"] = fastest(
            lambda: [estimators._row_weights(spec.estimator, scores, levels)
                     for _ in range(CALLS)]
        ) / CALLS
    lab = presets.load_preset("loss_deviation")
    lab_spec = estimator_spec(lab["estimator"])
    lab_level = 1.0 - lab["constraint"]["target"]
    lab_scores = np.random.default_rng(SEED).standard_normal(
        (max(lab["batch_sizes"]), lab["n_models"]))
    pen_rows = lab_scores[:LAB_PENALIZED].T
    sub_rows = np.ascontiguousarray(lab_scores.T)
    us["lab_value_us_per_call"] = fastest(
        lambda: [_row_values(pen_rows, sub_rows, 1.0, lab_level, lab_spec, math.log(2.0))
                 for _ in range(LAB_CALLS)]
    ) / LAB_CALLS
    figures = {name: round(seconds * 1e6, 3) for name, seconds in us.items()}
    figures["quantile_over_logistic_k4"] = round(
        us["quantile_k4_us_per_model_step"] / us["logistic_k4_us_per_model_step"], 3
    )
    figures["rows"], figures["features"] = train_set.n, train_set.dim
    for kind, calls in full_batch_calls(train_set, first_level).items():
        figures[f"{kind}_k4_calls_per_step"] = calls
    for name, calls in scaling_calls(train_set, models, first_level, fits).items():
        figures[f"{name}_calls_per_step"] = calls
    figures["minibatch_lower_mean_k10_calls_per_step"] = minibatch_calls()
    print(json.dumps(figures, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
