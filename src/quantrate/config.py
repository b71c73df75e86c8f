"""The JSON config format: one parser per block, unknown keys rejected.

Only these functions read a config value.  Most blocks fill a record
(TrainConfig, QuantileEstimatorSpec, ...) or a function's parameters
(load_delimited, the concentration harnesses), and take their keys,
types and defaults from its fields: a field without a default is a
required key, one with a default an optional key, and each value is
read as the form of the field's type by the records' own rule
(types.typed), after the few rules JSON adds (see _json).  Any other
key is a config error, so a typo such as "bandwith" fails loudly
instead of being ignored.  Every document may carry a "name" label.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, is_dataclass
from typing import Callable, Iterable, Optional, Tuple

from . import concentration, data
from .data import MixtureComponent, SplitSpec, SyntheticSpec
from .errors import InvalidSpec
from .types import QuantileEstimatorSpec, SurrogateLossSpec, TrainConfig
from .types import check_fraction, signature, typed

_DEFAULT_CURVE_GRID = [round(0.1 * k, 1) for k in range(1, 11)]
# the parameter tables of the loaders and labs, from the functions as
# imported: a wrapper bound in their modules later, such as perfbench's
# tracer, runs when they are called by name but has no signature to read
_LOADERS = {"delimited": data.load_delimited, "sparse": data.load_sparse}
_HARNESSES = {f.__name__: f for f in (
    concentration.estimator_stability, concentration.loss_uniform_deviation,
    concentration.convex_sgd_convergence)}
# TrainConfig fields a logistic block may not set: the fit has no
# restarts or minibatches, and the runner sets every decay from the grid
_NOT_LOGISTIC = ("weight_decay", "batch_size", "constraint_batch_size", "restarts")
# harness parameter -> (its config key, the type that key reads as)
_HARNESS_KEYS = {"estimator_spec": ("estimator", QuantileEstimatorSpec),
                 "dataset": ("synthetic", SyntheticSpec)}


def _json(hint, value, key: str):
    """What JSON adds to a value's form (see types.typed): an object fills
    a record, a number must be finite and reads as an int where one is
    wanted if its value is integral, and a seed is in [0, 2**64)."""
    if is_dataclass(hint):
        return _record(hint, value, key)
    number = type(value) in (int, float)
    if key == "seed" and not (number and value % 1 == 0 and 0 <= value < 2**64):
        raise InvalidSpec(f"seed must be an integer in [0, 2**64), got {value!r}")
    if number and not abs(value) <= sys.float_info.max:
        raise InvalidSpec(f"{key} must be a finite number, got {value!r}")
    return int(value) if number and hint is int and value % 1 == 0 else value


def _read(hint, value, key: str):
    """value read as the JSON form of the type hint, else a config error
    naming key: the record's own form, after what _json adds."""
    return typed(hint, value, key, _json)


def read_seed(value) -> int:
    """A seed, from any document or the command line: a u64."""
    return _read(int, value, "seed")


def _object(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise InvalidSpec(f"{where} must be a JSON object")
    return block


def check_keys(block, optional: Iterable[str], where: str, required=()) -> dict:
    """The block, once it is an object with every required key and no
    key outside required + optional."""
    allowed = set(optional) | set(required)
    unknown = sorted(set(_object(block, where)) - allowed)
    if unknown:
        raise InvalidSpec(
            f"{where} has unknown keys {unknown}; allowed: {sorted(allowed)}"
        )
    missing = [k for k in required if k not in block]
    if missing:
        raise InvalidSpec(f"{where} lacks keys {missing}")
    return block


def _values(target, block, where: str, skip=(), extra=()) -> dict:
    """The block's value for each field of target but skip, read as the
    field's type.  The block may also hold the keys extra, which the
    caller reads."""
    fields = {k: f for k, f in signature(target).items() if k not in skip}
    check_keys(
        block, [k for k, (_, req) in fields.items() if not req] + list(extra),
        where, [k for k, (_, req) in fields.items() if req],
    )
    return {k: _read(fields[k][0], v, k) for k, v in block.items() if k in fields}


def _record(target, block, where: str, omit=(), **fixed):
    """target built from the fixed values and the block's; the block may
    not set the fields omit names, which keep their defaults."""
    return target(**fixed, **_values(target, block, where, tuple(fixed) + omit))


def _document(config, where: str, required, optional=(), name: str = "") -> str:
    """A whole config's "name" label, once its keys are checked."""
    check_keys(config, optional + ("name",), where, required)
    return _read(str, config.get("name", name), "name")


def estimator_spec(block) -> QuantileEstimatorSpec:
    return _record(QuantileEstimatorSpec, block, "estimator")


def train_config(block, seed: int, where: str = "train", omit=()) -> TrainConfig:
    """A train block; omit names the fields it may not set."""
    return _record(TrainConfig, block, where, omit, seed=seed)


def data_source(
    config: dict, data_path: Optional[str] = None, need_path: bool = True
) -> Tuple[Callable, dict]:
    """(loader, its keyword arguments) for a config's data block: path,
    format and the loader's parameters.  A given data_path overrides the
    block's path; with need_path false a missing one is no error."""
    block = _object(_object(config, "config").get("data", {}), "data")
    form = _read(str, block.get("format", "delimited"), "format")
    if form not in _LOADERS:
        raise InvalidSpec(f"unknown data format {form!r}")
    path = _read(Optional[str], block.get("path"), "path")
    if need_path and not (data_path or path):
        raise InvalidSpec("no dataset path: set data.path in the config or pass --data")
    load = _LOADERS[form]
    args = _values(load, block, "data", ("path",), ("path", "format"))
    return getattr(data, load.__name__), dict(args, path=data_path or path)


def train_spec(
    config: dict, seed: Optional[int]
) -> Tuple[SurrogateLossSpec, TrainConfig, bool]:
    """Loss and trainer settings of a `train` command config, and whether
    to standardize the data; a given seed overrides the train block's."""
    _document(config, "train config", ("loss", "train"), ("data", "standardize"))
    if "data" in config:
        data_source(config, need_path=False)
    block = _object(config["train"], "train")
    if seed is None and "seed" not in block:
        raise InvalidSpec("train config needs a seed (or pass --seed)")
    seed = run_seed(block, seed)
    train = _values(TrainConfig, block, "train", ("seed",), ("seed",))
    return (
        _record(SurrogateLossSpec, config["loss"], "loss"),
        TrainConfig(seed=seed, **train),
        _read(bool, config.get("standardize", False), "standardize"),
    )


def run_seed(config: dict, seed: Optional[int] = None) -> int:
    """The seed a config, or a train block, runs with: a given seed, else
    its own, else 0; its own is read either way."""
    own = read_seed(_object(config, "config").get("seed", 0))
    return own if seed is None else read_seed(seed)


def concentration_spec(config: dict, seed: Optional[int]) -> Tuple[str, dict]:
    """(harness name, its keyword arguments) for a concentration config,
    whose keys are the harness's parameters; a synthetic block comes back
    as the SyntheticSpec under "dataset"."""
    kind = _object(config, "config").get("kind")
    if not (isinstance(kind, str) and kind in _HARNESSES):
        raise InvalidSpec(f"unknown concentration kind {kind!r}")
    keys = {
        name: _HARNESS_KEYS.get(name, (name, hint))
        for name, (hint, _) in signature(_HARNESSES[kind]).items()
        if name != "seed"
    }
    _document(config, f"{kind} config", tuple(k for k, _ in keys.values()),
              ("kind", "seed"))
    args = {name: _read(hint, config[key], key) for name, (key, hint) in keys.items()}
    return kind, dict(args, seed=run_seed(config, seed))


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


def _levels(values: Tuple[float, ...], key: str, open_top=False) -> Tuple[float, ...]:
    if not values:
        raise InvalidSpec(f"{key} must be a nonempty list")
    return tuple(check_fraction(v, key, open_top) for v in values)


def experiment_spec(config: dict) -> ExperimentSpec:
    """Parse a rate_table or recall_point experiment config."""
    kind = _object(config, "config").get("kind")
    if kind == "rate_table":
        levels_key, open_top = "taus", True
        own, optional = (), ("data",)
    elif kind == "recall_point":
        levels_key, open_top = "recall_levels", False
        own, optional = ("synthetic",), ("curve_grid",)
    else:
        raise InvalidSpec(f"unknown experiment kind {kind!r}")
    name = _document(
        config, f"{kind} experiment config",
        own + (levels_key, "weight_decays", "split", "estimator", "train",
               "logistic", "reps"),
        optional + ("kind", "seed", "standardize", "published"), kind,
    )
    fields = signature(ExperimentSpec)

    def read(field, key=None, block=config, default=None):
        key = key or field
        return _read(fields[field][0], block.get(key, default), key)

    if "data" in config:
        data_source(config, need_path=False)
    decays = read("weight_decays")
    if not decays or any(v < 0 for v in decays):
        raise InvalidSpec("weight_decays must be nonnegative and nonempty")
    reps = read("reps")
    if reps < 1:
        raise InvalidSpec("reps must be positive")
    mixture = {}
    if kind == "recall_point":
        synth = check_keys(config["synthetic"], (), "synthetic", ("components", "n"))
        mixture = dict(
            curve_grid=_levels(read("curve_grid", default=_DEFAULT_CURVE_GRID),
                               "curve_grid"),
            components=read("components", block=synth),
            n_samples=read("n_samples", "n", synth),
        )
    return ExperimentSpec(
        kind=kind,
        name=name,
        levels=_levels(read("levels", levels_key), levels_key, open_top),
        weight_decays=decays,
        reps=reps,
        split=_record(SplitSpec, config["split"], "split", seed=0),
        standardize=read("standardize", default=kind == "rate_table"),
        estimator=estimator_spec(config["estimator"]),
        train=train_config(config["train"], 0, omit=("weight_decay",)),
        logistic=train_config(config["logistic"], 0, "logistic", _NOT_LOGISTIC),
        published=read("published"),
        **mixture,
    )
