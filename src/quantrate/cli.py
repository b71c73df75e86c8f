"""Command-line front end: train, eval, experiment, concentration.

All machine-readable output (results, reports, error objects) is JSON
on stdout or in files; progress and timing notes go to stderr and are
suppressed by --quiet.  Exit codes: 0 success, 1 any runtime, config,
data, or io error (an {"error": {"kind", "message"}} object is printed
to stdout), 2 invalid command-line invocation.

Model files use the schema "quantrate.model.v1" and echo their full
training config plus the feature transform, so evaluation can rebuild
the exact scoring pipeline from the file alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import (
    convex_sgd_convergence,
    estimator_stability,
    loss_uniform_deviation,
)
from .config import concentration_spec, train_spec
from .data import GENERATOR_NAME, generate_synthetic, standardize
from .errors import (
    DegenerateSplit,
    InvalidSpec,
    ParseError,
    QuantrateError,
    RaggedRows,
    SingleClass,
    UnknownLabel,
)
from .experiment import (
    format_number,
    load_experiment_dataset,
    run_experiment,
    write_results,
)
from .metrics import (
    calibrate_threshold,
    evaluate,
    pr_auc,
    precision_at_rate,
    precision_at_recall,
)
from .presets import load_preset, preset_names
from .train import multi_restart_train
from .types import Dataset, LinearModel, constraint_indices

MODEL_SCHEMA = "quantrate.model.v1"
CONCENTRATION_SCHEMA = "quantrate.concentration.v1"

_DATA_ERRORS = (ParseError, RaggedRows, UnknownLabel, DegenerateSplit, SingleClass)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _load_config(path_or_name: str) -> dict:
    if path_or_name in preset_names():
        return load_preset(path_or_name)
    with open(path_or_name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(payload: dict, out_path) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    return text


def cmd_train(args) -> int:
    config = _load_config(args.config)
    loss_spec, train_cfg = train_spec(config, args.seed)
    dataset = load_experiment_dataset(config, args.data)
    transform = None
    if config.get("standardize", False):
        # fit on the whole provided set; splits are the experiment
        # runner's business, cmd_train trains on what it is given
        dataset, _, transform = standardize(dataset, dataset)
    started = time.perf_counter()
    result = multi_restart_train(dataset, loss_spec, train_cfg)
    sub = constraint_indices(dataset, loss_spec.constraint)
    scores = result.model.scores(dataset)[sub]
    threshold = calibrate_threshold(scores, loss_spec.constraint)
    elapsed = time.perf_counter() - started
    payload = {
        "schema": MODEL_SCHEMA,
        "weights": [float(v) for v in result.model.weights],
        "threshold": threshold,
        "final_train_loss": result.final_train_loss,
        "loss_trace": list(result.loss_trace),
        "restart_index": result.restart_index,
        "seed": result.seed_used,
        "generator": GENERATOR_NAME,
        "transform": None
        if transform is None
        else {
            "mean": [float(v) for v in transform.mean],
            "std": [float(v) for v in transform.std],
        },
        "config": config,
    }
    out = args.out or "model.json"
    _dump_json(payload, out)
    _note(args, f"wrote {out} ({elapsed:.2f}s)")
    return 0


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != MODEL_SCHEMA:
        raise InvalidSpec(
            f"model file schema {payload.get('schema')!r} is not {MODEL_SCHEMA}"
        )
    return payload


def _model_scores(payload: dict, dataset: Dataset) -> np.ndarray:
    features = dataset.features
    if payload.get("transform"):
        mean = np.asarray(payload["transform"]["mean"], dtype=np.float64)
        std = np.asarray(payload["transform"]["std"], dtype=np.float64)
        features = (features - mean) / std
    weights = np.asarray(payload["weights"], dtype=np.float64)
    model = LinearModel(weights)
    return model.scores(features)


def cmd_eval(args) -> int:
    payload = _load_model(args.config)
    dataset = load_experiment_dataset(payload["config"], args.data)
    scores = _model_scores(payload, dataset)
    if args.metric == "report":
        if payload.get("threshold") is None:
            raise InvalidSpec("model file has no threshold; cannot build a report")
        # score once (with the stored transform), then count through a
        # 1-d identity model so the report path sees the same numbers
        probe = LinearModel([1.0], threshold=float(payload["threshold"]))
        report = evaluate(probe, Dataset(scores[:, None], dataset.labels))
        result = dict(report.to_dict(), metric="report")
    elif args.metric in ("p_at_rate", "p_at_recall"):
        if args.level is None:
            raise InvalidSpec(f"metric {args.metric} needs --level")
        metric = precision_at_rate
        if args.metric == "p_at_recall":
            metric = precision_at_recall
        result = {
            "metric": args.metric,
            "level": args.level,
            "value": metric(scores, dataset.labels, args.level),
        }
    else:
        grid = [float(v) for v in (args.grid or "").split(",") if v != ""]
        if not grid:
            raise InvalidSpec("pr_auc needs --grid, e.g. --grid 0.2,0.4,0.6,0.8,1.0")
        result = {
            "metric": "pr_auc",
            "grid": grid,
            "value": pr_auc(scores, dataset.labels, grid),
        }
    text = _dump_json(result, args.out)
    sys.stdout.write(text)
    return 0


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    result, elapsed = run_experiment(
        config, data_path=args.data, seed=args.seed, jobs=args.jobs
    )
    out_dir = args.out or f"{result.name}_results"
    paths = write_results(result, out_dir)
    _note(
        args,
        f"experiment {result.name}: {len(result.aggregates)} aggregate rows "
        f"in {elapsed:.2f}s -> " + ", ".join(str(p) for p in paths),
    )
    return 0


def _evaluate_concentration(config: dict, seed_override):
    kind, kwargs = concentration_spec(config, seed_override)
    if "dataset" in kwargs:
        kwargs["dataset"] = generate_synthetic(kwargs["dataset"])
    harness = {
        "estimator_stability": estimator_stability,
        "loss_uniform_deviation": loss_uniform_deviation,
        "convex_sgd_convergence": convex_sgd_convergence,
    }[kind]
    report = harness(**kwargs)
    if kind == "convex_sgd_convergence":
        rows = [["t", "mean_excess"]] + [
            [t, e] for t, e in zip(report.t_grid, report.mean_excess)
        ]
    else:
        rows = _deviation_rows(report)
    return kind, report, rows


def _deviation_rows(report):
    header = [["b", "mean_abs_dev", "q95_abs_dev"]]
    return header + [
        [b, m, q]
        for b, m, q in zip(
            report.batch_sizes, report.mean_abs_dev, report.q95_abs_dev
        )
    ]


def cmd_concentration(args) -> int:
    config = _load_config(args.config)
    started = time.perf_counter()
    kind, report, rows = _evaluate_concentration(config, args.seed)
    elapsed = time.perf_counter() - started
    out_dir = Path(args.out or "concentration_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CONCENTRATION_SCHEMA,
        "kind": kind,
        "config": config,
        "report": report.to_dict(),
    }
    json_path = out_dir / "report.json"
    _dump_json(payload, json_path)
    csv_path = out_dir / "report.csv"
    csv_lines = [",".join(map(format_number, row)) for row in rows]
    csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    _note(args, f"{kind}: wrote {json_path} and {csv_path} ({elapsed:.2f}s)")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="config file or preset name")
    sub.add_argument("--data", help="dataset path override")
    sub.add_argument("--out", help="output file or directory")
    sub.add_argument("--seed", type=_seed_value, help="seed override (u64)")
    sub.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiment repetitions (at most reps)",
    )
    sub.add_argument("--quiet", action="store_true", help="suppress progress notes")


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrate",
        description=(
            "Train and evaluate rate-constrained linear classifiers via "
            "quantile-substitution surrogate losses."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    train_p = commands.add_parser("train", help="train one model from a config")
    _add_common(train_p)
    train_p.set_defaults(fn=cmd_train)

    eval_p = commands.add_parser("eval", help="evaluate a trained model file")
    _add_common(eval_p)
    eval_p.add_argument(
        "--metric",
        choices=["report", "p_at_rate", "p_at_recall", "pr_auc"],
        default="report",
    )
    eval_p.add_argument("--level", type=float, help="tau or recall level")
    eval_p.add_argument("--grid", help="comma-separated recall grid for pr_auc")
    eval_p.set_defaults(fn=cmd_eval)

    exp_p = commands.add_parser(
        "experiment", help="run a preset or custom experiment"
    )
    _add_common(exp_p)
    exp_p.set_defaults(fn=cmd_experiment)

    conc_p = commands.add_parser(
        "concentration", help="run a concentration-scaling harness"
    )
    _add_common(conc_p)
    conc_p.set_defaults(fn=cmd_concentration)
    return parser


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, (FileNotFoundError, PermissionError, IsADirectoryError, OSError)):
        return "io"
    if isinstance(exc, _DATA_ERRORS):
        return "data"
    if isinstance(exc, (InvalidSpec, json.JSONDecodeError, KeyError, ValueError)):
        return "config"
    return "runtime"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (QuantrateError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        kind = _error_kind(exc)
        message = str(exc) or exc.__class__.__name__
        sys.stdout.write(
            json.dumps({"error": {"kind": kind, "message": message}}) + "\n"
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
