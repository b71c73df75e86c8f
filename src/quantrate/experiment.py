"""Desk-scale comparison experiments: quantile training vs logistic.

Two experiment kinds share one loop and one result schema:

* rate_table: repeated stratified splits of a loaded dataset; per split
  the quantile method trains one model per (tau, weight decay) on the
  false-positive-side rate objective and logistic regression trains one
  model per weight decay; precision at predicted-positive rate tau is
  recorded on both sides of the split.
* recall_point: repeated draws of a pinned synthetic mixture; methods
  train toward precision at a recall floor and are scored with
  precision_at_recall on the held-out half.

The weight decay is selected per (method, level) two ways and both are
reported: "test" picks the decay with the best mean test metric (the
protocol the published comparison tables use), "train" picks by the
mean train metric.  Aggregates are mean and sample standard deviation
(ddof=1; a single repetition reports 0) over repetitions at the
selected decay.

Every repetition derives its seeds from the experiment seed through
named streams (data.seed_of), so repetitions can run in worker
processes (--jobs) without affecting any output byte.  Wall-clock
timing is returned to the caller for console display and never
written to result files.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baseline import lockstep_logistic_train, with_bias
from .config import ExperimentSpec, data_source, experiment_spec, run_seed
from .data import generate_mixture, seed_of, split, standardize
from .errors import InvalidSpec
from .metrics import precision_at_rate, precision_at_recall
from .presets import published_rows
from .train import best_restart, lockstep_train, restart_models
from .types import Dataset, RateConstraint, SurrogateLossSpec, plain

METHOD_QUANTILE = "quantile"
METHOD_LOGISTIC = "logistic"


@dataclass(frozen=True)
class MethodAggregate:
    """One method's metric distribution at one level, one selection rule."""

    method: str
    level: float
    selection: str
    weight_decay: float
    per_rep: Tuple[float, ...]
    mean: float
    std: float


@dataclass(frozen=True)
class CurvePoint:
    """Plot-ready aggregated curve sample."""

    method: str
    level: float
    mean: float
    std: float


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    name: str
    seed: int
    config: dict
    aggregates: Tuple[MethodAggregate, ...]
    curve: Tuple[CurvePoint, ...]
    published: Tuple[dict, ...]

    def to_dict(self) -> dict:
        return plain(self)


def _std(values: np.ndarray) -> float:
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1))


def load_experiment_dataset(config: dict, data_path: Optional[str]) -> Dataset:
    """Load the dataset a config's data block names, honoring a path override."""
    load, args = data_source(config, data_path)
    return load(**args)


def _best_decay(metric: np.ndarray) -> int:
    """Index of the weight decay with the best mean over the repetitions
    of a (reps, n_decays) metric; ties go to the lowest index."""
    return int(np.argmax(metric.mean(axis=0)))


def _select_and_aggregate(
    method: str,
    levels: Sequence[float],
    test_metric: np.ndarray,
    train_metric: np.ndarray,
    weight_decays: Sequence[float],
) -> List[MethodAggregate]:
    """Pick a weight decay per level under both protocols (see _best_decay)
    and aggregate; metric arrays are (reps, n_levels, n_decays)."""
    out = []
    for li, level in enumerate(levels):
        for selection, source in (("test", test_metric), ("train", train_metric)):
            wi = _best_decay(source[:, li])
            per_rep = test_metric[:, li, wi]
            out.append(
                MethodAggregate(
                    method=method,
                    level=float(level),
                    selection=selection,
                    weight_decay=float(weight_decays[wi]),
                    per_rep=tuple(float(v) for v in per_rep),
                    mean=float(per_rep.mean()),
                    std=_std(per_rep),
                )
            )
    return out


def _one_rep(spec: ExperimentSpec, dataset: Optional[Dataset], seed: int, rep: int):
    """One repetition's metric values and curves; a module-level function
    of picklable arguments, so a worker process can run it.

    Per kind: the objective and its constraint subset, the metric, and
    the seed tags.  rate_table seeds the split, logistic and quantile
    models with (seed, rep), (seed, rep, wi) and (seed, rep, li, wi);
    recall_point draws its mixture with (seed, rep) and tags the rest
    (seed, rep, 0), (seed, rep, 1, wi) and (seed, rep, 2, li, wi).
    A repetition's quantile models, every (level, decay, restart), and
    its logistic fits, one per decay, train in one lockstep call each;
    a (level, decay) cell keeps the restart multi_restart_train picks.

    Returns values[method, side, level, decay] with sides (test, train)
    and curves[method, decay, grid point], which follow the first level.
    """
    if spec.kind == "rate_table":
        metric, objective, subset = precision_at_rate, "p_at_ppr_fp", "all"
        split_tag, logistic_tag, quantile_tag = (), (), ()
    else:
        metric, objective, subset = precision_at_recall, "p_at_r", "positives"
        split_tag, logistic_tag, quantile_tag = (0,), (1,), (2,)
    levels, decays, grid = spec.levels, spec.weight_decays, spec.curve_grid
    restarts = spec.train.restarts
    if dataset is None:
        dataset = generate_mixture(
            spec.components, spec.n_samples, seed_of(seed, rep)
        )
    split_spec = replace(spec.split, seed=seed_of(seed, rep, *split_tag))
    train_set, test_set = split(dataset, split_spec)
    if spec.standardize:
        train_set, test_set, _ = standardize(train_set, test_set)
    sides = (test_set, train_set)
    values = np.empty((2, 2, len(levels), len(decays)))
    curves = np.empty((2, len(decays), len(grid)))
    # every (level, decay, restart) model of the repetition in one
    # call, restarts innermost
    models = [
        model
        for li, level in enumerate(levels)
        for wi, wd in enumerate(decays)
        for model in restart_models(
            SurrogateLossSpec(
                objective=objective,
                constraint=RateConstraint(subset, "at_least", level),
                estimator=spec.estimator,
            ),
            replace(
                spec.train,
                seed=seed_of(seed, rep, *quantile_tag, li, wi),
                weight_decay=wd,
            ),
        )
    ]
    trained = lockstep_train(train_set, models)
    logistic = lockstep_logistic_train(train_set, [
        (wd, replace(spec.logistic, seed=seed_of(seed, rep, *logistic_tag, wi)))
        for wi, wd in enumerate(decays)])
    for wi, lmodel in enumerate(logistic):
        logistic_scores = [lmodel.scores(with_bias(s.features)) for s in sides]
        for li, level in enumerate(levels):
            cell = (li * len(decays) + wi) * restarts
            fitted = best_restart(trained[cell : cell + restarts])
            quantile_scores = [fitted.model.scores(s) for s in sides]
            for m, scores in enumerate((quantile_scores, logistic_scores)):
                for si, side in enumerate(sides):
                    values[m, si, li, wi] = metric(scores[si], side.labels, level)
                if li == 0:
                    curves[m, wi] = [
                        metric(scores[0], test_set.labels, g) for g in grid
                    ]
    return values, curves


def _map_reps(fn, calls: List[tuple], jobs: int) -> list:
    """[fn(*args) for args in calls], on min(jobs, len(calls)) worker
    processes when that is more than one.

    Results, and the first exception, come back in call order.  Linux
    workers fork; elsewhere they start the platform's default way, so
    fn must be a module-level function of picklable arguments.  Every
    worker has exited when this returns or raises; calls not yet
    started when one raises are cancelled.
    """
    workers = min(jobs, len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    # loaded only here: a serial run never imports the pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker starts with numpy and quantrate loaded; spawned
    # ones import them again, which took recall_point's 3-rep preset
    # from about 0.37 to 0.88 s a call on a 2-core host
    method = "fork" if sys.platform.startswith("linux") else None
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context(method)
    )
    try:
        futures = [pool.submit(fn, *args) for args in calls]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run(
    spec: ExperimentSpec,
    config: dict,
    dataset: Optional[Dataset],
    seed: int,
    jobs: int,
) -> ExperimentResult:
    """The experiment loop shared by both kinds: the repetitions (see
    _one_rep), then selection and aggregation."""
    levels, decays, grid = spec.levels, spec.weight_decays, spec.curve_grid
    methods = (METHOD_QUANTILE, METHOD_LOGISTIC)
    reps = _map_reps(
        _one_rep, [(spec, dataset, seed, rep) for rep in range(spec.reps)], jobs
    )
    # values[rep, method, side, level, decay]; curves[rep, method, decay, point]
    values = np.stack([v for v, _ in reps])
    curves = np.stack([c for _, c in reps])

    aggregates = []
    for m, method in enumerate(methods):
        aggregates += _select_and_aggregate(
            method, levels, values[:, m, 0], values[:, m, 1], decays
        )
    if spec.kind == "rate_table":
        curve = [
            CurvePoint(a.method, a.level, a.mean, a.std)
            for a in aggregates
            if a.selection == "test"
        ]
    else:
        curve = []
        for m, method in enumerate(methods):
            wi = _best_decay(values[:, m, 0, 0])  # test selection, first level
            for gi, g in enumerate(grid):
                points = curves[:, m, wi, gi]
                curve.append(
                    CurvePoint(method, float(g), float(points.mean()), _std(points))
                )
    return ExperimentResult(
        kind=spec.kind,
        name=spec.name,
        seed=seed,
        config=config,
        aggregates=tuple(aggregates),
        curve=tuple(curve),
        published=tuple(published_rows(spec.published)) if spec.published else (),
    )


def run_experiment(
    config: dict,
    data_path: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
) -> Tuple[ExperimentResult, float]:
    """Run one experiment config; returns (result, elapsed seconds).

    The elapsed time is for console reporting only; nothing time-based
    enters the result, so identical configs and seeds reproduce output
    files byte-for-byte.
    """
    used_seed = run_seed(config, seed)
    if jobs < 1:
        raise InvalidSpec("jobs must be positive")
    started = time.perf_counter()
    spec = experiment_spec(config)
    dataset = None
    if spec.kind == "rate_table":
        dataset = load_experiment_dataset(config, data_path)
    result = _run(spec, config, dataset, used_seed, jobs)
    return result, time.perf_counter() - started


def format_number(value) -> str:
    """A CSV cell: shortest round-trip repr for floats, str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def json_text(payload) -> str:
    """A JSON output file: sorted keys, indent 2, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_text(rows) -> str:
    """A CSV output file: one line of format_number cells per row."""
    return "".join(",".join(map(format_number, row)) + "\n" for row in rows)


def write_files(out_dir, texts: dict) -> List[Path]:
    """Write each named text into out_dir, made if missing; returns the
    written paths in order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in texts]


def write_results(result: ExperimentResult, out_dir) -> List[Path]:
    """Serialize an ExperimentResult to results.json, summary.csv, and
    pr_points.csv inside out_dir; returns the written paths.

    JSON uses sorted keys and CSV floats use shortest-round-trip repr,
    so reruns of a deterministic experiment match byte-for-byte.
    """
    summary = ["method,level,mean,std,selection,weight_decay,source".split(",")]
    for a in result.aggregates:
        cells = [a.method, a.level, a.mean, a.std, a.selection, a.weight_decay]
        summary.append(cells + ["computed"])
    for row in result.published:
        cells = [float(row[k]) for k in ("level", "mean", "std")]
        summary.append([str(row["method"])] + cells + ["", "", "published"])
    curve = ["method,level,mean,std".split(",")] + [
        [p.method, p.level, p.mean, p.std] for p in result.curve
    ]
    return write_files(out_dir, {
        "results.json": json_text(result.to_dict()),
        "summary.csv": csv_text(summary),
        "pr_points.csv": csv_text(curve),
    })
