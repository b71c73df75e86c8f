"""Every package error survives pickling, as it must to leave a worker
process, and each refusal of a library call raises its class with a
message that names the rule."""

import inspect
import math
import pickle

import numpy as np
import pytest

from quantrate import (
    Dataset,
    LinearModel,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    SyntheticSpec,
    TrainConfig,
    errors,
    estimator_stability,
    generate_synthetic,
    logloss,
    loss_uniform_deviation,
    pr_points,
    sgd_train,
)
from quantrate.types import constraint_indices

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.QuantrateError)
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    args = ("m", 1, 2) if issubclass(cls, errors.ParseError) else ("m",)
    original = cls(*args)
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert getattr(copy, "row", None) == getattr(original, "row", None)
    assert getattr(copy, "col", None) == getattr(original, "col", None)


def _positive_first():
    """40 synthetic rows, 11 of them positive, a positive one first."""
    data = generate_synthetic(SyntheticSpec(
        n=40, mean_separation=2.0, sigma=1.0, seed=1, positive_prior=0.3))
    order = np.argsort(-data.labels, kind="stable")
    return Dataset(data.features[order], data.labels[order])


def _train_on_an_empty_window():
    """SGD whose constraint batches of 5 hold no order statistic of the
    interval window (0.41, 0.49]."""
    spec = SurrogateLossSpec(
        "p_at_r", RateConstraint("positives", "at_least", 0.8),
        QuantileEstimatorSpec("interval", k1=0.41, k2=0.49))
    config = TrainConfig(learning_rate=0.1, steps=3, seed=0, constraint_batch_size=5)
    return sgd_train(_positive_first(), spec, config)


REFUSALS = {
    "logloss_base_inf": (
        lambda: SurrogateLossSpec(
            "p_at_r", RateConstraint("positives", "at_least", 0.8),
            QuantileEstimatorSpec("point"), logloss_base=math.inf),
        errors.InvalidSpec, "logloss base must be finite and exceed 1, got inf"),
    "logloss_inf": (
        lambda: logloss(1.0, math.inf),
        errors.InvalidSpec, "logloss base must be finite and exceed 1, got inf"),
    "bandwidth_inf": (
        lambda: QuantileEstimatorSpec("kernel", bandwidth=math.inf),
        errors.NonpositiveScale, "kernel bandwidth must be finite and > 0, got inf"),
    "pr_labels_shape": (
        lambda: pr_points([0.1, 0.2, 0.3], [1, -1], [0.5]),
        errors.InvalidSpec, "labels must be one per score"),
    "batch_size_zero": (
        lambda: estimator_stability(50, (0, 10), 100, QuantileEstimatorSpec("point"),
                                    0.5, "uniform", 1),
        errors.InvalidSpec, "batch_sizes must be positive integers"),
    "batch_misses_subset": (
        lambda: loss_uniform_deviation(
            _positive_first(),
            RateConstraint("indices", "at_least", 0.5, indices=(0,)),
            QuantileEstimatorSpec("point"), (1,), 100, 1.0, 1, 0),
        errors.ConstraintBatchEmpty,
        "batch size 1 kept missing the constraint subset or the penalized side"),
    "synthetic_dim_zero": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=0, dim=0),
        errors.InvalidSpec, "dim must be positive"),
    "synthetic_seed_negative": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=-1),
        errors.InvalidSpec, "seed must be a nonnegative integer"),
    "dataset_1d_features": (
        lambda: Dataset([1.0, 2.0], [1, -1]),
        errors.InvalidSpec, "features must be a 2-d array"),
    "weights_2d": (
        lambda: LinearModel([[1.0, 2.0]]),
        errors.InvalidSpec, "weights must be a nonempty 1-d vector"),
    "weights_empty": (
        lambda: LinearModel([]),
        errors.InvalidSpec, "weights must be a nonempty 1-d vector"),
    "weights_nan": (
        lambda: LinearModel([1.0, math.nan]),
        errors.InvalidSpec, "weights must be finite"),
    "scores_width": (
        lambda: LinearModel([1.0, 2.0]).scores(np.zeros((3, 3))),
        errors.DimensionError,
        "feature matrix (3, 3) incompatible with weight dim 2"),
    "indices_missing": (
        lambda: RateConstraint("indices", "at_least", 0.5),
        errors.InvalidSpec, "subset 'indices' needs an index list"),
    "indices_repeated": (
        lambda: RateConstraint("indices", "at_least", 0.5, indices=(1, 1)),
        errors.InvalidSpec, "indices must be unique and nonnegative"),
    "indices_negative": (
        lambda: RateConstraint("indices", "at_least", 0.5, indices=(2, -1)),
        errors.InvalidSpec, "indices must be unique and nonnegative"),
    "indices_on_all": (
        lambda: RateConstraint("all", "at_least", 0.5, indices=(0,)),
        errors.InvalidSpec, "indices given but subset is not 'indices'"),
    "index_out_of_range": (
        lambda: constraint_indices(
            Dataset(np.zeros((3, 1)), [1, -1, 1]),
            RateConstraint("indices", "at_least", 0.5, indices=(0, 5))),
        errors.InvalidSpec, "constraint index 5 out of range for n=3"),
    "restarts_zero": (
        lambda: TrainConfig(learning_rate=0.1, steps=1, seed=0, restarts=0),
        errors.InvalidSpec, "restarts must be at least 1"),
    "constraint_batch_zero": (
        lambda: TrainConfig(learning_rate=0.1, steps=1, seed=0,
                            constraint_batch_size=0),
        errors.InvalidSpec, "constraint_batch_size must be at least 1 or full"),
    # finite weights: the trainer passes the estimator's refusal on as it is
    "empty_interval_in_training": (
        _train_on_an_empty_window,
        errors.DegenerateInterval,
        "window (0.41, 0.49] selects no order statistics for n=5"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals_name_their_rule(case):
    call, cls, message = REFUSALS[case]
    with pytest.raises(errors.QuantrateError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message
