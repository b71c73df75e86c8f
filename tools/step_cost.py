"""Microseconds per model-step: quantile trainer against logistic baseline.

    python tools/step_cost.py

Builds one repetition of the ionosphere preset on the 351x34 file that
perfbench generates at seed 1: the preset's stratified 30% training
split, standardized (105 rows, 34 features).  Then it times, each as
the fastest of 7 calls:

* quantile K=60: one lockstep_train call of the preset's 60 models
  (5 levels x 4 decays x 3 restarts, 300 full-batch steps);
* quantile K=4: the 4 decays at the first level, one restart;
* logistic K=4: the preset's 4 logistic fits (500 steps), in one
  lockstep_logistic_train call;
* logistic K=1: one logistic_train call per decay, summed.

Each time is divided by the call's model-steps (models x steps).  The
last line is one JSON object with the four figures in microseconds
and the quantile/logistic ratio at K=4, the cost of the rate
constraint over the unconstrained loss on the same data and K.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import write_ionosphere  # noqa: E402
from quantrate import RateConstraint, SurrogateLossSpec, baseline  # noqa: E402
from quantrate import presets  # noqa: E402
from quantrate.config import experiment_spec  # noqa: E402
from quantrate.data import split, standardize  # noqa: E402
from quantrate.experiment import load_experiment_dataset  # noqa: E402
from quantrate.train import lockstep_train  # noqa: E402

SEED, REPEATS = 1, 7


def fastest(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    config = presets.load_preset("ionosphere")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ionosphere.data"
        write_ionosphere(path, SEED)
        dataset = load_experiment_dataset(config, str(path))
    spec = experiment_spec(config)
    train_set, test_set = split(dataset, replace(spec.split, seed=SEED))
    train_set, _, _ = standardize(train_set, test_set)

    models = [
        (
            SurrogateLossSpec(
                objective="p_at_ppr_fp",
                constraint=RateConstraint("all", "at_least", level),
                estimator=spec.estimator,
            ),
            replace(spec.train, seed=1000 * li + 10 * wi + r, weight_decay=wd,
                    restarts=1),
        )
        for li, level in enumerate(spec.levels)
        for wi, wd in enumerate(spec.weight_decays)
        for r in range(spec.train.restarts)
    ]
    per_level = len(spec.weight_decays) * spec.train.restarts
    first_level = models[:per_level:spec.train.restarts]
    fits = [(wd, replace(spec.logistic, seed=wi))
            for wi, wd in enumerate(spec.weight_decays)]
    q_steps, l_steps = spec.train.steps, spec.logistic.steps
    us = {
        "quantile_k60_us_per_model_step": fastest(
            lambda: lockstep_train(train_set, models)
        ) / (len(models) * q_steps),
        "quantile_k4_us_per_model_step": fastest(
            lambda: lockstep_train(train_set, first_level)
        ) / (len(first_level) * q_steps),
        "logistic_k4_us_per_model_step": fastest(
            lambda: baseline.lockstep_logistic_train(train_set, fits)
        ) / (len(fits) * l_steps),
        "logistic_k1_us_per_model_step": sum(
            fastest(lambda: baseline.logistic_train(train_set, wd, c))
            for wd, c in fits
        ) / (len(fits) * l_steps),
    }
    figures = {name: round(seconds * 1e6, 3) for name, seconds in us.items()}
    figures["quantile_over_logistic_k4"] = round(
        us["quantile_k4_us_per_model_step"] / us["logistic_k4_us_per_model_step"], 3
    )
    figures["rows"], figures["features"] = train_set.n, train_set.dim
    print(json.dumps(figures, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
