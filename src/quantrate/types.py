"""Core records: datasets, models, constraints, estimator and loss specs.

Conventions used throughout the package:

* labels live in {-1, +1};
* a linear model scores x as w . x with no implicit bias;
* a prediction is positive iff score > threshold (strictly);
* a rate constraint bounds the fraction of a sample subset predicted
  positive, from below (at_least) or above (at_most).

Every input record reads each field in the form of its annotation
(typed_fields, the rule the config reader applies too), then checks its
ranges: a value of another form is an InvalidSpec naming the field.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
import operator
import typing
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionError,
    EmptyInput,
    InvalidSpec,
    NoConstraintSubset,
    NonpositiveScale,
)


def check_fraction(value, name: str, open_top: bool = False) -> float:
    """value as a float in (0, 1], or in (0, 1) when open_top is set;
    otherwise InvalidSpec naming it."""
    value = typed(float, value, name)
    if not (0.0 < value < 1.0 or (value == 1.0 and not open_top)):
        top = ")" if open_top else "]"
        raise InvalidSpec(f"{name} must lie in (0, 1{top}, got {value}")
    return value


@functools.cache
def _form(hint) -> tuple:
    """(the form, the classes of its values, the value in it or None for
    the value as it is) of a plain type hint: an enum takes the values of
    its members, a record its instances, and no type but bool a bool."""
    if issubclass(hint, enum.Enum):
        return f"one of {[m.value for m in hint]}", str, {m.value: m for m in hint}.get
    return {
        bool: ("true or false", np.bool_, bool),
        int: ("an integer", (int, np.integer), operator.index),
        float: ("a number", (int, float, np.integer, np.floating), float),
        str: ("a string", str, None),
    }.get(hint, (f"a {hint.__name__}", hint, None))


def typed(hint, value, name: str, pre=None):
    """value in the form of the type hint (see _form), else InvalidSpec
    naming it; Optional takes None, and a Tuple or Sequence a list, a
    tuple or a 1-d array, as a tuple.  pre, if given, first maps each
    value of a plain hint, given the hint and name (JSON's rules)."""
    if not isinstance(hint, type):  # Optional[X], Tuple[X, ...] or Sequence[X]
        inner = typing.get_args(hint)[0]
        if typing.get_origin(hint) is typing.Union:
            return None if value is None else typed(inner, value, name, pre)
        if isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1:
            return tuple(typed(inner, v, name, pre) for v in value)
        raise InvalidSpec(f"{name} must be a list, got {value!r}")
    value = value if pre is None else pre(hint, value, name)
    if type(value) is hint:
        return value
    want, kinds, form = _form(hint)
    if isinstance(value, kinds) and not isinstance(value, bool):
        out = value if form is None else form(value)
        if out is not None:  # None: no member of the enum has the string
            return out
    raise InvalidSpec(f"{name} must be {want}, got {value!r}")


def typed_array(value, name: str, shape_ok=None, wrong_shape: str = "",
                integers: bool = False) -> np.ndarray:
    """value as a finite float64 array, or int64 if integers: int, uint or
    float entries (no floats if integers, no bool in a list), any if it is
    empty, in a shape shape_ok accepts, if given; else InvalidSpec naming
    it, or wrong_shape.  A float64 array comes back as it is, not copied."""
    want, kinds = ("integers", "iu") if integers else ("numbers", "iuf")
    try:
        a = np.asarray(value)
    except ValueError:  # rows of unequal lengths
        raise InvalidSpec(f"{name} must be {want}, got unequal rows") from None
    if not isinstance(value, np.ndarray) and a.dtype.kind in kinds and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(value, object).flat):
        a = a.astype(bool)  # refused below: numpy reads [1, True] as numbers
    if a.size and a.dtype.kind not in kinds:
        raise InvalidSpec(f"{name} must be {want}, got {a.dtype.name} values")
    if shape_ok is not None and not shape_ok(a.shape):
        raise InvalidSpec(wrong_shape)
    if a.dtype.kind == "f" and not np.isfinite(a).all():  # a sum warns on inf - inf
        raise InvalidSpec(f"{name} must be finite")
    return a.astype(np.int64 if integers else np.float64, copy=False)


def plus_minus_one(labels, n: int, per: str) -> np.ndarray:
    """The n labels, each -1 or +1, as a new int64 array; per names their rows."""
    y = typed_array(labels, "labels", lambda s: s == (n,),
                    f"labels must be one per {per}")
    if not (np.abs(y) == 1.0).all():
        raise InvalidSpec("labels must be -1 or +1")
    return y.astype(np.int64)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def signature(target) -> dict:
    """name -> (type hint, required) of each field of a record or
    parameter of a function; required means it has no default."""
    hints = typing.get_type_hints(target)
    return {
        name: (hints.get(name), p.default is p.empty)
        for name, p in inspect.signature(target).parameters.items()
    }


def check_seed(value) -> int:
    """value as a seed, a nonnegative integer (see typed); else InvalidSpec."""
    if (seed := typed(int, value, "seed")) < 0:
        raise InvalidSpec("seed must be a nonnegative integer")
    return seed


def typed_fields(record) -> None:
    """Sets each field of a frozen record to its value in the form of its
    annotation (see typed), as configs read it, and a seed by check_seed."""
    for name, (hint, _) in signature(type(record)).items():
        value = getattr(record, name)
        if name == "seed":
            object.__setattr__(record, name, check_seed(value))
        elif type(value) is not hint:
            object.__setattr__(record, name, typed(hint, value, name))


def plain(record) -> dict:
    """A record's fields as JSON holds them: nested records as dicts,
    tuples as lists."""
    return asdict(record, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items
    })


class Subset(str, enum.Enum):
    """Which samples a rate constraint ranges over."""

    ALL = "all"
    POSITIVES = "positives"
    NEGATIVES = "negatives"
    INDICES = "indices"


class Direction(str, enum.Enum):
    AT_LEAST = "at_least"
    AT_MOST = "at_most"


class EstimatorKind(str, enum.Enum):
    POINT = "point"
    KERNEL = "kernel"
    LOWER_MEAN = "lower_mean"
    INTERVAL = "interval"


class Objective(str, enum.Enum):
    """Built-in surrogate objectives.

    P_AT_R penalizes negatives above the positive-score quantile
    (precision at a recall floor).  P_AT_PPR_FP / P_AT_PPR_TP penalize
    false positives / missed true positives around the all-score
    quantile (precision at a predicted-positive-rate floor).  GENERIC
    penalizes a caller-chosen side around the constraint subset's
    quantile.
    """

    P_AT_R = "p_at_r"
    P_AT_PPR_FP = "p_at_ppr_fp"
    P_AT_PPR_TP = "p_at_ppr_tp"
    GENERIC = "generic"


class Penalize(str, enum.Enum):
    NEGATIVES = "negatives"
    POSITIVES = "positives"


class Dataset:
    """Feature matrix plus {-1,+1} labels, immutable once built."""

    def __init__(self, features, labels):
        features = typed_array(features, "features", lambda s: len(s) == 2,
                               "features must be a 2-d array")
        if features.shape[0] == 0:
            raise EmptyInput("dataset needs at least one sample")
        self.features = _frozen(features.copy())
        self.labels = _frozen(plus_minus_one(labels, len(features), "sample"))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def positive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    def negative_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == -1)

    def take(self, indices) -> "Dataset":
        """The rows at indices, unchecked: this set's checks cover them."""
        idx = typed_array(indices, "indices", integers=True)
        if idx.ndim != 1 or idx.size == 0:  # refused as a new Dataset is
            return Dataset(self.features[idx], self.labels[idx])
        subset = object.__new__(Dataset)
        subset.features = _frozen(self.features[idx])
        subset.labels = _frozen(self.labels[idx])
        return subset


@dataclass(frozen=True)
class LinearModel:
    """Linear scorer f(x) = w . x with an optional decision threshold."""

    weights: np.ndarray
    threshold: Optional[float] = None

    def __post_init__(self):
        w = typed_array(self.weights, "weights", lambda s: len(s) == 1 and s[0] > 0,
                        "weights must be a nonempty 1-d vector")
        object.__setattr__(self, "weights", _frozen(w.copy()))
        typed_fields(self)

    def _matrix(self, X) -> np.ndarray:
        """The rows of a Dataset, whose features passed the rule when it was
        built, or of a matrix; DimensionError unless one column per weight."""
        X = X.features if isinstance(X, Dataset) else typed_array(X, "features")
        if X.ndim != 2 or X.shape[1] != self.weights.shape[0]:
            raise DimensionError(f"feature matrix {X.shape} incompatible with "
                                 f"weight dim {self.weights.shape[0]}")
        return X

    def scores(self, dataset_or_matrix) -> np.ndarray:
        """X @ w of _matrix's rows X; inf or nan is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            return typed_array(self._matrix(dataset_or_matrix) @ self.weights, "scores")


@dataclass(frozen=True)
class RateConstraint:
    """Bound on the positive-prediction rate over a subset.

    The rate is |{i in A : f(x_i) > theta}| / |A|, with a strict
    inequality, and the constraint reads rate >= target (at_least) or
    rate <= target (at_most).
    """

    subset: Subset
    direction: Direction
    target: float
    indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        typed_fields(self)
        if not 0.0 <= self.target <= 1.0:
            raise InvalidSpec(f"target rate {self.target} outside [0, 1]")
        if self.subset is Subset.INDICES:
            if not self.indices:
                raise InvalidSpec("subset 'indices' needs an index list")
            if len(set(self.indices)) < len(self.indices) or min(self.indices) < 0:
                raise InvalidSpec("indices must be unique and nonnegative")
        elif self.indices is not None:
            raise InvalidSpec("indices given but subset is not 'indices'")


def constraint_indices(dataset: Dataset, constraint: RateConstraint) -> np.ndarray:
    """Positions of the constraint subset within the dataset.

    Raises NoConstraintSubset when the selection is empty.
    """
    if constraint.subset is Subset.ALL:
        idx = np.arange(dataset.n)
    elif constraint.subset is Subset.POSITIVES:
        idx = dataset.positive_indices()
    elif constraint.subset is Subset.NEGATIVES:
        idx = dataset.negative_indices()
    else:
        idx = np.asarray(constraint.indices, dtype=np.int64)
        if idx.size and idx.max() >= dataset.n:
            raise InvalidSpec(
                f"constraint index {idx.max()} out of range for n={dataset.n}"
            )
    if idx.size == 0:
        raise NoConstraintSubset(
            f"subset {constraint.subset.value!r} selects no samples"
        )
    return idx


@dataclass(frozen=True)
class QuantileEstimatorSpec:
    """Which empirical quantile stand-in to use, plus its parameters.

    kind=point      exact order statistic (one-hot weights)
    kind=kernel     Gaussian-kernel smoothed order statistics; bandwidth
                    required; normalize=True divides weights by their sum,
                    normalize=False by N (the paper's estimator)
    kind=lower_mean mean of the k smallest scores (convex relaxation)
    kind=interval   mean of the order statistics between levels k1 and k2

    A parameter that the kind does not read must keep its default.
    """

    kind: EstimatorKind
    bandwidth: Optional[float] = None
    normalize: bool = True
    k1: Optional[float] = None
    k2: Optional[float] = None

    def __post_init__(self):
        typed_fields(self)
        reads = {EstimatorKind.KERNEL: ("bandwidth", "normalize"),
                 EstimatorKind.INTERVAL: ("k1", "k2")}.get(self.kind, ())
        unread = [f.name for f in fields(self)[1:]
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise InvalidSpec(f"the {self.kind.value} estimator does not read {unread}")
        if self.kind is EstimatorKind.KERNEL:
            if self.bandwidth is None or not 0 < self.bandwidth < math.inf:
                raise NonpositiveScale(
                    f"kernel bandwidth must be finite and > 0, got {self.bandwidth}"
                )
        if self.kind is EstimatorKind.INTERVAL:
            if self.k1 is None or self.k2 is None:
                raise InvalidSpec("interval estimator needs k1 and k2")
            if not (0.0 < self.k1 < self.k2 < 1.0):
                raise InvalidSpec(
                    f"interval levels must satisfy 0 < k1 < k2 < 1, "
                    f"got k1={self.k1}, k2={self.k2}"
                )


@dataclass(frozen=True)
class SurrogateLossSpec:
    """A differentiable objective: quantile estimator + logloss penalty.

    penalize selects the penalized side for the generic objective; the
    named objectives fix their own side and take only the default.
    """

    objective: Objective
    constraint: RateConstraint
    estimator: QuantileEstimatorSpec
    logloss_base: float = 2.0
    penalize: Penalize = Penalize.NEGATIVES

    def __post_init__(self):
        typed_fields(self)
        named = self.objective is not Objective.GENERIC
        if named and self.penalize is not Penalize.NEGATIVES:
            raise InvalidSpec(f"the {self.objective.value} objective does not read penalize")
        if not 1.0 < self.logloss_base < math.inf:
            raise InvalidSpec(
                f"logloss base must be finite and exceed 1, got {self.logloss_base}"
            )
        if self.objective is Objective.P_AT_R:
            if (
                self.constraint.subset is not Subset.POSITIVES
                or self.constraint.direction is not Direction.AT_LEAST
            ):
                raise InvalidSpec(
                    "p_at_r requires an at_least constraint on positives"
                )
            check_fraction(self.constraint.target, "target rate")
        elif self.objective in (Objective.P_AT_PPR_FP, Objective.P_AT_PPR_TP):
            if self.constraint.subset is not Subset.ALL:
                raise InvalidSpec(
                    f"{self.objective.value} requires the constraint subset "
                    "to be all samples"
                )
            check_fraction(self.constraint.target, "target rate", open_top=True)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the stochastic trainer.

    batch_size / constraint_batch_size of None mean full batch; a full
    constraint batch means "intersect the minibatch with the subset"
    (which collapses to the whole subset under full-batch descent).  A
    set constraint_batch_size takes consecutive slices of a reshuffled
    queue over the subset, as batch_size does over the dataset.
    """

    learning_rate: float
    steps: int
    seed: int
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: Optional[int] = None
    constraint_batch_size: Optional[int] = None
    restarts: int = 1
    init_scale: float = 0.01
    eval_every: int = 1
    lr_decay: str = "constant"

    def __post_init__(self):
        typed_fields(self)
        if not 0 <= self.learning_rate < math.inf:
            raise InvalidSpec("learning_rate must be nonnegative and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidSpec("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise InvalidSpec("weight_decay must be nonnegative and finite")
        if self.steps < 1:
            raise InvalidSpec("steps must be at least 1")
        if self.restarts < 1:
            raise InvalidSpec("restarts must be at least 1")
        if not 0 < self.init_scale < math.inf:
            raise NonpositiveScale("init_scale must be positive and finite")
        for name in ("batch_size", "constraint_batch_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise InvalidSpec(f"{name} must be at least 1 or full")
        if self.eval_every < 1:
            raise InvalidSpec("eval_every must be at least 1")
        if self.lr_decay not in ("constant", "inv_sqrt"):
            raise InvalidSpec("lr_decay must be 'constant' or 'inv_sqrt'")

    def lr_at(self, t: int) -> float:
        """Step size of step t (1-based) under lr_decay."""
        if self.lr_decay == "inv_sqrt":
            return self.learning_rate / math.sqrt(t)
        return self.learning_rate


@dataclass(frozen=True)
class TrainResult:
    model: LinearModel
    final_train_loss: float
    loss_trace: Tuple[float, ...]
    restart_index: int
    seed_used: int


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts and rates at a fixed threshold.

    precision is None when nothing was predicted positive.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    precision: Optional[float]
    recall: float
    rate: float
    threshold: float

    def to_dict(self) -> dict:
        return asdict(self)
