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
named SeedSequence tuples, so repetitions can run concurrently (--jobs)
without affecting any output byte.  Wall-clock timing is returned to
the caller for console display and never written to result files.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baseline import logistic_train, with_bias
from .config import ExperimentSpec, config_value, experiment_spec
from .data import generate_mixture, load_delimited, load_sparse, split, standardize
from .errors import InvalidSpec
from .metrics import precision_at_rate, precision_at_recall
from .presets import published_rows
from .train import multi_restart_train
from .types import Dataset, RateConstraint, SurrogateLossSpec

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
        return {
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "config": self.config,
            "aggregates": [
                dict(asdict(a), per_rep=list(a.per_rep)) for a in self.aggregates
            ],
            "curve": [asdict(p) for p in self.curve],
            "published": list(self.published),
        }


def _seed_from(*parts: int) -> int:
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1)[0])


def _std(values: np.ndarray) -> float:
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1))


def load_experiment_dataset(config: dict, data_path: Optional[str]) -> Dataset:
    """Load the dataset a rate_table config names, honoring a path override."""
    block = config.get("data", {})
    path = data_path or block.get("path")
    if not path:
        raise InvalidSpec(
            "no dataset path: set data.path in the config or pass --data"
        )
    form = block.get("format", "delimited")
    if form == "sparse":
        return load_sparse(path)
    if form != "delimited":
        raise InvalidSpec(f"unknown data format {form!r}")
    return load_delimited(
        path,
        label_column=config_value("label_column", block["label_column"]),
        positive_label_value=str(block["positive_label_value"]),
        delimiter=block.get("delimiter", ","),
        header=bool(block.get("header", False)),
        negative_label_value=block.get("negative_label_value"),
        numeric_labels=bool(block.get("numeric_labels", False)),
    )


def _select_and_aggregate(
    method: str,
    levels: Sequence[float],
    test_metric: np.ndarray,
    train_metric: np.ndarray,
    weight_decays: Sequence[float],
) -> List[MethodAggregate]:
    """Pick a weight decay per level under both protocols and aggregate.

    Metric arrays are (reps, n_levels, n_decays); argmax ties resolve
    to the lowest grid index.
    """
    out = []
    for li, level in enumerate(levels):
        for selection, source in (("test", test_metric), ("train", train_metric)):
            wi = int(np.argmax(source[:, li, :].mean(axis=0)))
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


def _run(
    spec: ExperimentSpec,
    config: dict,
    dataset: Optional[Dataset],
    seed: int,
    jobs: int,
) -> ExperimentResult:
    """The experiment loop shared by both kinds.

    Per kind: the objective and its constraint subset, the metric, and
    the seed tags.  rate_table seeds the split, logistic and quantile
    models with (seed, rep), (seed, rep, wi) and (seed, rep, li, wi);
    recall_point draws its mixture with (seed, rep) and tags the rest
    (seed, rep, 0), (seed, rep, 1, wi) and (seed, rep, 2, li, wi).
    """
    if spec.kind == "rate_table":
        metric, objective, subset = precision_at_rate, "p_at_ppr_fp", "all"
        split_tag, logistic_tag, quantile_tag = (), (), ()
    else:
        metric, objective, subset = precision_at_recall, "p_at_r", "positives"
        split_tag, logistic_tag, quantile_tag = (0,), (1,), (2,)
    levels, decays, grid = spec.levels, spec.weight_decays, spec.curve_grid
    methods = (METHOD_QUANTILE, METHOD_LOGISTIC)
    # values[rep, method, side, level, decay] with sides (test, train);
    # curves[rep, method, decay, grid point] follow the first level
    values = np.empty((spec.reps, 2, 2, len(levels), len(decays)))
    curves = np.empty((spec.reps, 2, len(decays), len(grid)))

    def one_rep(rep: int):
        data = dataset
        if data is None:
            data = generate_mixture(
                spec.components, spec.n_samples, _seed_from(seed, rep)
            )
        split_spec = replace(spec.split, seed=_seed_from(seed, rep, *split_tag))
        train_set, test_set = split(data, split_spec)
        if spec.standardize:
            train_set, test_set, _ = standardize(train_set, test_set)
        sides = (test_set, train_set)
        rep_values = np.empty(values.shape[1:])
        rep_curves = np.empty(curves.shape[1:])
        for wi, wd in enumerate(decays):
            lconfig = replace(
                spec.logistic, seed=_seed_from(seed, rep, *logistic_tag, wi)
            )
            lmodel = logistic_train(train_set, wd, lconfig)
            logistic_scores = [with_bias(s.features) @ lmodel.weights for s in sides]
            for li, level in enumerate(levels):
                loss_spec = SurrogateLossSpec(
                    objective=objective,
                    constraint=RateConstraint(subset, "at_least", level),
                    estimator=spec.estimator,
                )
                cfg = replace(
                    spec.train,
                    seed=_seed_from(seed, rep, *quantile_tag, li, wi),
                    weight_decay=wd,
                )
                fitted = multi_restart_train(train_set, loss_spec, cfg)
                quantile_scores = [fitted.model.scores(s) for s in sides]
                for m, scores in enumerate((quantile_scores, logistic_scores)):
                    for si, side in enumerate(sides):
                        rep_values[m, si, li, wi] = metric(
                            scores[si], side.labels, level
                        )
                    if li == 0:
                        rep_curves[m, wi] = [
                            metric(scores[0], test_set.labels, g) for g in grid
                        ]
        return rep, rep_values, rep_curves

    for rep, rep_values, rep_curves in _map_reps(one_rep, spec.reps, jobs):
        values[rep], curves[rep] = rep_values, rep_curves

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
            wi = int(np.argmax(values[:, m, 0, 0, :].mean(axis=0)))
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


def _map_reps(fn, reps: int, jobs: int):
    if jobs <= 1:
        for rep in range(reps):
            yield fn(rep)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, range(reps))


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
    if seed is None:
        seed = config.get("seed", 0)
    used_seed = config_value("seed", seed)
    if used_seed < 0:
        raise InvalidSpec("seed must be nonnegative")
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


def write_results(result: ExperimentResult, out_dir) -> List[Path]:
    """Serialize an ExperimentResult to results.json, summary.csv, and
    pr_points.csv inside out_dir; returns the written paths.

    JSON uses sorted keys and CSV floats use shortest-round-trip repr,
    so reruns of a deterministic experiment match byte-for-byte.
    """
    summary = ["method,level,mean,std,selection,weight_decay,source"]
    for a in result.aggregates:
        cells = [a.method, a.level, a.mean, a.std, a.selection, a.weight_decay]
        summary.append(",".join(map(format_number, cells + ["computed"])))
    for row in result.published:
        cells = [float(row[k]) for k in ("level", "mean", "std")]
        cells = [str(row["method"])] + cells + ["", "", "published"]
        summary.append(",".join(map(format_number, cells)))
    curve = ["method,level,mean,std"] + [
        ",".join(map(format_number, (p.method, p.level, p.mean, p.std)))
        for p in result.curve
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in (
        ("results.json", json.dumps(result.to_dict(), sort_keys=True, indent=2)),
        ("summary.csv", "\n".join(summary)),
        ("pr_points.csv", "\n".join(curve)),
    ):
        path = out / name
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(path)
    return paths
