"""The JSON config format: one parser per block, unknown keys rejected.

Every command reads its config through these functions.  A block
accepts exactly the keys some code path reads; any other key is a
config error, so a typo such as "bandwith" fails loudly instead of
being ignored.  A missing optional key takes the default of the record
the block builds (TrainConfig, QuantileEstimatorSpec, ...), so each
default lives in one place.  Every document may carry a "name" label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .data import MixtureComponent, SplitSpec, SyntheticSpec
from .errors import InvalidSpec
from .types import QuantileEstimatorSpec, RateConstraint, SurrogateLossSpec, TrainConfig

_DATA_KEYS = (
    "path", "format", "label_column", "positive_label_value", "delimiter",
    "header", "negative_label_value", "numeric_labels",
)
# optional keys of a logistic block; an experiment's train block adds
# the batch sizes and restarts, a train command's also its weight decay
# (an experiment sets every model's decay from its grid)
_LOGISTIC_KEYS = ("momentum", "init_scale", "eval_every", "lr_decay")
_TRAIN_KEYS = _LOGISTIC_KEYS + ("batch_size", "constraint_batch_size", "restarts")
_DEFAULT_CURVE_GRID = [round(0.1 * k, 1) for k in range(1, 11)]


def _integer(value) -> int:
    """An integer, or a float with an integral value such as 10.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidSpec(f"must be an integer, got {value!r}")


def _integer_or_full(value) -> Optional[int]:
    """A batch size: an integer, or None for the full batch."""
    return None if value is None else _integer(value)


def _integers(values) -> list:
    """A list of integers, such as batch sizes or step counts."""
    return [_integer(v) for v in values]


# how a present value is read, by key; keys not listed pass through
_CONVERT = {
    "learning_rate": float, "steps": _integer, "momentum": float,
    "weight_decay": float, "restarts": _integer, "init_scale": float,
    "eval_every": _integer, "lr_decay": str, "normalize": bool,
    "batch_size": _integer_or_full, "constraint_batch_size": _integer_or_full,
    "label": _integer, "weight": float, "sigma": float,
    "train_fraction": float, "stratified": bool, "n": _integer,
    "trials": _integer, "c": float, "score_law": str, "w_norm_bound": float,
    "n_models": _integer, "seed": _integer, "dim": _integer, "reps": _integer,
    "label_column": _integer, "batch_sizes": _integers, "t_grid": _integers,
    "indices": lambda v: tuple(v) if v else None,
}


def config_value(key: str, value, read=None):
    """A present config value read by read, or the way its key is read;
    a value of the wrong type is a config error naming the key."""
    try:
        return (read or _CONVERT.get(key, _same))(value)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"{key} {exc}") from None


# concentration kind -> its required keys, all passed to the harness
_CONCENTRATION_KEYS = {
    "estimator_stability": (
        "n", "batch_sizes", "trials", "estimator", "c", "score_law"),
    "loss_uniform_deviation": (
        "synthetic", "constraint", "estimator", "batch_sizes", "trials",
        "w_norm_bound", "n_models",
    ),
    "convex_sgd_convergence": ("synthetic", "c", "batch_size", "t_grid", "trials"),
}


def _same(value):
    return value


def check_keys(block, optional: Iterable[str], where: str, required=()) -> dict:
    """The block, once it is an object with every required key and no
    key outside required + optional."""
    if not isinstance(block, dict):
        raise InvalidSpec(f"{where} must be a JSON object")
    allowed = set(optional) | set(required)
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise InvalidSpec(
            f"{where} has unknown keys {unknown}; allowed: {sorted(allowed)}"
        )
    missing = [k for k in required if k not in block]
    if missing:
        raise InvalidSpec(f"{where} lacks keys {missing}")
    return block


def _record(record, block, where: str, required, optional=(), **fixed):
    check_keys(block, optional, where, required)
    values = {k: config_value(k, v) for k, v in block.items()}
    return record(**fixed, **values)


def estimator_spec(block) -> QuantileEstimatorSpec:
    return _record(
        QuantileEstimatorSpec, block, "estimator", ("kind",),
        ("bandwidth", "normalize", "k1", "k2"),
    )


def rate_constraint(block) -> RateConstraint:
    return _record(
        RateConstraint, block, "constraint",
        ("subset", "direction", "target"), ("indices",),
    )


def train_config(
    block, seed: int, where: str = "train", keys=_TRAIN_KEYS + ("weight_decay",)
) -> TrainConfig:
    """A train block whose optional keys are keys."""
    return _record(
        TrainConfig, block, where, ("learning_rate", "steps"), keys, seed=seed
    )


def _synthetic_spec(block) -> SyntheticSpec:
    return _record(
        SyntheticSpec, block, "synthetic",
        ("n", "mean_separation", "sigma", "seed"),
        ("positive_prior", "dim", "positive_scale", "negative_scale"),
    )


def train_spec(
    config: dict, seed: Optional[int]
) -> Tuple[SurrogateLossSpec, TrainConfig]:
    """Loss and trainer settings of a `train` command config; a given
    seed overrides the train block's own."""
    check_keys(config, ("name", "data", "standardize"), "train config",
               ("loss", "train"))
    check_keys(config.get("data", {}), _DATA_KEYS, "data")
    loss = check_keys(
        config["loss"], ("logloss_base", "penalize"), "loss",
        ("objective", "constraint", "estimator"),
    )
    block = dict(check_keys(
        config["train"], ("seed", "weight_decay") + _TRAIN_KEYS, "train",
        ("learning_rate", "steps"),
    ))
    own_seed = block.pop("seed", None)
    if seed is None:
        seed = own_seed
    if seed is None:
        raise InvalidSpec("train config needs a seed (or pass --seed)")
    loss_spec = SurrogateLossSpec(**dict(
        loss,
        constraint=rate_constraint(loss["constraint"]),
        estimator=estimator_spec(loss["estimator"]),
    ))
    return loss_spec, train_config(block, config_value("seed", seed))


def concentration_spec(config: dict, seed: Optional[int]) -> Tuple[str, dict]:
    """(harness name, its keyword arguments) for a concentration config.

    A synthetic block comes back as the SyntheticSpec under "dataset".
    """
    kind = config.get("kind")
    if kind not in _CONCENTRATION_KEYS:
        raise InvalidSpec(f"unknown concentration kind {kind!r}")
    required = _CONCENTRATION_KEYS[kind]
    check_keys(config, ("kind", "name", "seed"), f"{kind} config", required)
    parse = {
        "estimator": estimator_spec,
        "constraint": rate_constraint,
        "synthetic": _synthetic_spec,
        # the convex harness's minibatch is never the full batch
        "batch_size": lambda v: config_value("batch_size", v, _integer),
    }
    renamed = {"estimator": "estimator_spec", "synthetic": "dataset"}
    args = {
        renamed.get(k, k): (
            parse[k](config[k]) if k in parse else config_value(k, config[k])
        )
        for k in required
    }
    if seed is None:
        seed = config.get("seed", 0)
    args["seed"] = config_value("seed", seed)
    return kind, args


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed experiment config.

    split, train and logistic carry seed 0; the runner sets each
    model's seed, and the quantile models' weight decay, from the grid.
    """

    kind: str
    name: str
    levels: Tuple[float, ...]
    weight_decays: Tuple[float, ...]
    reps: int
    split: SplitSpec
    standardize: bool
    estimator: QuantileEstimatorSpec
    train: TrainConfig
    logistic: TrainConfig
    published: Optional[str]
    curve_grid: Tuple[float, ...] = ()
    components: Tuple[MixtureComponent, ...] = ()
    n_samples: int = 0


def _levels(values, hi: float, what: str) -> Tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        raise InvalidSpec(f"{what} list is empty")
    if any(not (0.0 < v <= hi) for v in out):
        raise InvalidSpec(f"every {what} must lie in (0.0, {hi}]")
    return out


def experiment_spec(config: dict) -> ExperimentSpec:
    """Parse a rate_table or recall_point experiment config."""
    kind = config.get("kind")
    if kind == "rate_table":
        levels_key, hi, what = "taus", 0.999999, "tau"
        own, optional = (), ("data",)
    elif kind == "recall_point":
        levels_key, hi, what = "recall_levels", 1.0, "recall level"
        own, optional = ("synthetic",), ("curve_grid",)
    else:
        raise InvalidSpec(f"unknown experiment kind {kind!r}")
    check_keys(
        config,
        optional + ("kind", "name", "seed", "standardize", "published"),
        f"{kind} experiment config",
        own + (levels_key, "weight_decays", "split", "estimator", "train",
               "logistic", "reps"),
    )
    if kind == "rate_table":
        check_keys(config.get("data", {}), _DATA_KEYS, "data")
    levels = _levels(config[levels_key], hi, what)
    decays = tuple(float(v) for v in config["weight_decays"])
    if not decays or any(v < 0 for v in decays):
        raise InvalidSpec("weight_decays must be nonnegative and nonempty")
    reps = config_value("reps", config["reps"])
    if reps < 1:
        raise InvalidSpec("reps must be positive")
    mixture = {}
    if kind == "recall_point":
        grid = config.get("curve_grid", _DEFAULT_CURVE_GRID)
        synth = check_keys(config["synthetic"], (), "synthetic", ("components", "n"))
        mixture = dict(
            curve_grid=_levels(grid, 1.0, "curve recall level"),
            components=tuple(
                _record(MixtureComponent, b, "mixture component",
                        ("label", "weight", "mean", "sigma"))
                for b in synth["components"]
            ),
            n_samples=config_value("n", synth["n"]),
        )
    return ExperimentSpec(
        kind=kind,
        name=str(config.get("name", kind)),
        levels=levels,
        weight_decays=decays,
        reps=reps,
        split=_record(SplitSpec, config["split"], "split",
                      ("train_fraction",), ("stratified",), seed=0),
        standardize=bool(config.get("standardize", kind == "rate_table")),
        estimator=estimator_spec(config["estimator"]),
        train=train_config(config["train"], 0, "train", _TRAIN_KEYS),
        logistic=train_config(config["logistic"], 0, "logistic", _LOGISTIC_KEYS),
        published=config.get("published") or None,
        **mixture,
    )
