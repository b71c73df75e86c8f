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

from . import __version__, concentration
from .config import _object, check_keys, concentration_spec, read_seed, train_spec
from .data import GENERATOR_NAME, StandardizeTransform, generate_synthetic, standardize
from .errors import DataError, InvalidSpec, QuantrateError
from .experiment import (
    csv_text,
    json_text,
    load_experiment_dataset,
    run_experiment,
    write_files,
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
from .types import Dataset, LinearModel, constraint_indices, typed_array

MODEL_SCHEMA = "quantrate.model.v1"
CONCENTRATION_SCHEMA = "quantrate.concentration.v1"


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _load_config(path_or_name: str) -> dict:
    if path_or_name in preset_names():
        return load_preset(path_or_name)
    with open(path_or_name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_train(args) -> int:
    config = _load_config(args.config)
    loss_spec, train_cfg, standardize_data = train_spec(config, args.seed)
    dataset = load_experiment_dataset(config, args.data)
    transform = None
    if standardize_data:
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
    Path(out).write_text(json_text(payload), encoding="utf-8")
    _note(args, f"wrote {out} ({elapsed:.2f}s)")
    return 0


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = _object(json.load(fh), "model file")
    if payload.get("schema") != MODEL_SCHEMA:
        raise InvalidSpec(
            f"model file schema {payload.get('schema')!r} is not {MODEL_SCHEMA}"
        )
    # any key may be present; weights and config must be
    check_keys(payload, payload, "model file", ("weights", "config"))
    return payload


def _model_scores(payload: dict, dataset: Dataset):
    """The data and its scores as the model file's weights and transform see them."""
    model, transform = LinearModel(payload["weights"]), payload.get("transform")
    if transform is not None:
        check_keys(transform, (), "transform", ("mean", "std"))
        mean, std = (typed_array(transform[k], f"transform {k}") for k in ("mean", "std"))
        if not mean.shape == std.shape == model.weights.shape:
            raise InvalidSpec(f"model file transform has {mean.size} means and "
                              f"{std.size} stds for {model.weights.size} weights")
        dataset = Dataset(StandardizeTransform(mean, std).apply(model._matrix(dataset)),
                          dataset.labels)
    return dataset, model.scores(dataset)


def cmd_eval(args) -> int:
    if args.level is not None and args.metric not in ("p_at_rate", "p_at_recall"):
        raise InvalidSpec(f"metric {args.metric} takes no --level")
    if args.grid is not None and args.metric != "pr_auc":
        raise InvalidSpec(f"metric {args.metric} takes no --grid")
    payload = _load_model(args.config)
    dataset, scores = _model_scores(
        payload, load_experiment_dataset(payload["config"], args.data))
    if args.metric == "report":
        if payload.get("threshold") is None:
            raise InvalidSpec("model file has no threshold; cannot build a report")
        model = LinearModel(payload["weights"], payload["threshold"])
        result = dict(evaluate(model, dataset).to_dict(), metric="report")
    elif args.metric in ("p_at_rate", "p_at_recall"):
        if args.level is None:
            raise InvalidSpec(f"metric {args.metric} needs --level")
        metric = precision_at_recall if args.metric == "p_at_recall" else precision_at_rate
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
    text = json_text(result)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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


def cmd_concentration(args) -> int:
    config = _load_config(args.config)
    started = time.perf_counter()
    kind, kwargs = concentration_spec(config, args.seed)
    if "dataset" in kwargs:
        kwargs["dataset"] = generate_synthetic(kwargs["dataset"])
    report = getattr(concentration, kind)(**kwargs)
    elapsed = time.perf_counter() - started
    payload = {
        "schema": CONCENTRATION_SCHEMA,
        "kind": kind,
        "config": config,
        "report": report.to_dict(),
    }
    json_path, csv_path = write_files(args.out or "concentration_out", {
        "report.json": json_text(payload),
        "report.csv": csv_text(report.rows()),
    })
    _note(args, f"{kind}: wrote {json_path} and {csv_path} ({elapsed:.2f}s)")
    return 0


def _add_common(sub: argparse.ArgumentParser, data: bool, seed: bool) -> None:
    """--config, --out and --quiet, plus --data and --seed where the
    command reads them."""
    sub.add_argument("--config", required=True, help="config file or preset name")
    if data:
        sub.add_argument("--data", help="dataset path override")
    sub.add_argument("--out", help="output file or directory")
    if seed:
        sub.add_argument("--seed", type=u64, help="seed override (u64)")
    sub.add_argument("--quiet", action="store_true", help="suppress progress notes")


def u64(text: str) -> int:
    """A --seed value; argparse names this function in its error."""
    return read_seed(int(text))


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
    _add_common(train_p, data=True, seed=True)
    train_p.set_defaults(fn=cmd_train)

    eval_p = commands.add_parser("eval", help="evaluate a trained model file")
    _add_common(eval_p, data=True, seed=False)
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
    _add_common(exp_p, data=True, seed=True)
    exp_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the tasks, two per repetition",
    )
    exp_p.set_defaults(fn=cmd_experiment)

    conc_p = commands.add_parser(
        "concentration", help="run a concentration-scaling harness"
    )
    _add_common(conc_p, data=False, seed=True)
    conc_p.set_defaults(fn=cmd_concentration)
    return parser


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, OSError):
        return "io"
    if isinstance(exc, DataError):
        return "data"
    if isinstance(exc, (KeyError, ValueError)):
        return "config"
    return "runtime"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (QuantrateError, OSError, KeyError, ValueError) as exc:
        kind = _error_kind(exc)
        message = str(exc) or exc.__class__.__name__
        sys.stdout.write(
            json.dumps({"error": {"kind": kind, "message": message}}) + "\n"
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
