"""Every package error survives pickling, as it must to leave a worker
process, and each refusal of a library call raises its class with a
message that names the rule."""

import dataclasses
import functools
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from quantrate import (
    Dataset,
    LinearModel,
    MixtureComponent,
    QuantileEstimatorSpec,
    RateConstraint,
    SplitSpec,
    StandardizeTransform,
    SurrogateLossSpec,
    SyntheticSpec,
    TrainConfig,
    calibrate_threshold,
    convex_sgd_convergence,
    errors,
    estimate,
    estimator_stability,
    evaluate,
    generate_mixture,
    generate_synthetic,
    logistic_train,
    logloss,
    loss_gradient,
    loss_uniform_deviation,
    pr_points,
    precision_at_rate,
    rate,
    sgd_train,
    surrogate_loss,
)
from quantrate.cli import _model_scores
from quantrate.experiment import json_text
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


def _config(**changes):
    """A one-step TrainConfig with the given fields changed."""
    return TrainConfig(**dict(dict(learning_rate=0.1, steps=1, seed=0), **changes))


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
    "w_norm_bound_inf": (
        lambda: loss_uniform_deviation(
            _positive_first(), RateConstraint("positives", "at_least", 0.8),
            QuantileEstimatorSpec("point"), (10,), 100, math.inf, 1, 0),
        errors.InvalidSpec, "w_norm_bound must be nonnegative and finite"),
    "synthetic_n_fractional": (
        lambda: SyntheticSpec(n=10.5, mean_separation=1.0, sigma=1.0, seed=0),
        errors.InvalidSpec, "n must be an integer, got 10.5"),
    "synthetic_dim_fractional": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=0, dim=2.5),
        errors.InvalidSpec, "dim must be an integer, got 2.5"),
    "synthetic_seed_fractional": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=1.5),
        errors.InvalidSpec, "seed must be an integer, got 1.5"),
    "synthetic_separation_inf": (
        lambda: SyntheticSpec(n=10, mean_separation=math.inf, sigma=1.0, seed=0),
        errors.NonpositiveScale, "mean_separation must be positive and finite"),
    "synthetic_sigma_inf": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=math.inf, seed=0),
        errors.NonpositiveScale, "sigma must be positive and finite"),
    "mixture_n_fractional": (
        lambda: generate_mixture([MixtureComponent(1, 1.0, (0.0,), 1.0)], 10.5, 0),
        errors.InvalidSpec, "n must be an integer, got 10.5"),
    "split_seed_fractional": (
        lambda: SplitSpec(0.5, seed=1.5),
        errors.InvalidSpec, "seed must be an integer, got 1.5"),
    "train_steps_fractional": (
        lambda: _config(steps=2.5),
        errors.InvalidSpec, "steps must be an integer, got 2.5"),
    "train_restarts_fractional": (
        lambda: _config(restarts=1.5),
        errors.InvalidSpec, "restarts must be an integer, got 1.5"),
    "train_batch_size_fractional": (
        lambda: _config(batch_size=10.5),
        errors.InvalidSpec, "batch_size must be an integer, got 10.5"),
    "train_constraint_batch_size_fractional": (
        lambda: _config(constraint_batch_size=2.5),
        errors.InvalidSpec, "constraint_batch_size must be an integer, got 2.5"),
    "train_eval_every_fractional": (
        lambda: _config(eval_every=1.5),
        errors.InvalidSpec, "eval_every must be an integer, got 1.5"),
    "train_seed_fractional": (
        lambda: _config(seed=1.5),
        errors.InvalidSpec, "seed must be an integer, got 1.5"),
    "train_learning_rate_inf": (
        lambda: _config(learning_rate=math.inf),
        errors.InvalidSpec, "learning_rate must be nonnegative and finite"),
    "train_weight_decay_inf": (
        lambda: _config(weight_decay=math.inf),
        errors.InvalidSpec, "weight_decay must be nonnegative and finite"),
    "train_init_scale_inf": (
        lambda: _config(init_scale=math.inf),
        errors.NonpositiveScale, "init_scale must be positive and finite"),
    "logistic_decay_negative": (
        lambda: logistic_train(_positive_first(), -5.0, _config()),
        errors.InvalidSpec, "weight_decay must be nonnegative and finite"),
    "logistic_decay_nan": (
        lambda: logistic_train(_positive_first(), math.nan, _config()),
        errors.InvalidSpec, "weight_decay must be nonnegative and finite"),
    "logistic_decay_inf": (
        lambda: logistic_train(_positive_first(), math.inf, _config()),
        errors.InvalidSpec, "weight_decay must be nonnegative and finite"),
    # finite weights: the trainer passes the estimator's refusal on as it is
    "empty_interval_in_training": (
        _train_on_an_empty_window,
        errors.DegenerateInterval,
        "window (0.41, 0.49] selects no order statistics for n=5"),
    # a value of the wrong form, which a record once kept or coerced
    "estimator_normalize_string": (
        lambda: QuantileEstimatorSpec("kernel", bandwidth=0.1, normalize="false"),
        errors.InvalidSpec, "normalize must be true or false, got 'false'"),
    "split_stratified_string": (
        lambda: SplitSpec(0.5, seed=1, stratified="no"),
        errors.InvalidSpec, "stratified must be true or false, got 'no'"),
    "indices_fractional": (
        lambda: RateConstraint("indices", "at_least", 0.5, indices=(1.5, 2)),
        errors.InvalidSpec, "indices must be an integer, got 1.5"),
    "train_steps_bool": (
        lambda: _config(steps=True),
        errors.InvalidSpec, "steps must be an integer, got True"),
    "train_learning_rate_string": (
        lambda: _config(learning_rate="0.1"),
        errors.InvalidSpec, "learning_rate must be a number, got '0.1'"),
    "estimator_kind_unknown": (
        lambda: QuantileEstimatorSpec("bogus"),
        errors.InvalidSpec,
        "kind must be one of ['point', 'kernel', 'lower_mean', 'interval'], got 'bogus'"),
    "logistic_decay_string": (
        lambda: logistic_train(_positive_first(), "0.5", _config()),
        errors.InvalidSpec, "weight_decay must be a number, got '0.5'"),
    # mixture and generator values a config refuses
    "mixture_weight_inf": (
        lambda: generate_mixture([MixtureComponent(1, math.inf, (1.0,), 1.0),
                                  MixtureComponent(-1, 1.0, (-1.0,), 1.0)], 10, 0),
        errors.InvalidSpec, "component weight must be positive and finite"),
    "mixture_sigma_inf": (
        lambda: generate_mixture([MixtureComponent(1, 1.0, (1.0,), math.inf)], 10, 0),
        errors.NonpositiveScale, "component sigma must be positive and finite"),
    "mixture_mean_nan": (
        lambda: generate_mixture([MixtureComponent(1, 1.0, (0.0, math.nan), 1.0)], 10, 0),
        errors.InvalidSpec, "component mean must be finite"),
    "mixture_mean_inf": (
        lambda: MixtureComponent(1, 1.0, (-math.inf,), 1.0),
        errors.InvalidSpec, "component mean must be finite"),
    "mixture_seed_fractional": (
        lambda: generate_mixture([MixtureComponent(1, 1.0, (0.0,), 1.0)], 10, 1.5),
        errors.InvalidSpec, "seed must be an integer, got 1.5"),
    "synthetic_positive_scale_inf": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=0,
                              positive_scale=math.inf),
        errors.NonpositiveScale, "positive_scale must be positive and finite"),
    "synthetic_negative_scale_inf": (
        lambda: SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=0,
                              negative_scale=math.inf),
        errors.NonpositiveScale, "negative_scale must be positive and finite"),
}


# Every array argument is read by one rule (types.typed_array): numbers
# only, finite, refused with the argument's name.  Each call below
# passes its argument two entries of a form the rule refuses.
_X2 = np.zeros((2, 1))
_POINT = QuantileEstimatorSpec("point")
ARRAY_ARGUMENTS = {
    "features": ("features", lambda e: Dataset([[e[0]], [e[1]]], [1, -1])),
    "labels": ("labels", lambda e: Dataset(_X2, e)),
    "indices": ("indices", lambda e: Dataset(_X2, [1, -1]).take(e)),
    "weights": ("weights", lambda e: LinearModel(e)),
    "scored_matrix": ("features", lambda e: LinearModel([1.0]).scores([[e[0]], [e[1]]])),
    "scores": ("scores", lambda e: estimate(_POINT, e, 0.5)),
    "levels": ("quantile levels", lambda e: estimate(_POINT, np.zeros((3, 2)), e)),
    "metric_labels": ("labels", lambda e: precision_at_rate([0.3, 0.1], e, 0.5)),
    "recall_grid": ("recall grid", lambda e: pr_points([0.3, 0.1], [1, -1], e)),
    "standardized": ("features", lambda e: StandardizeTransform(
        np.zeros(1), np.ones(1)).apply([[e[0]], [e[1]]])),
    "model_transform": ("transform mean", lambda e: _model_scores(
        {"weights": [1.0], "transform": {"mean": e, "std": [1.0]}},
        Dataset(_X2, [1, -1]))),
}
# two entries of each refused form, and the name numpy gives their dtype
WRONG_ENTRIES = {
    "string": (["1", "-1"], "str64"),
    "bool": ([True, False], "bool"),
    "object": ([None, 1], "object"),
}
for _arg, (_name, _call) in ARRAY_ARGUMENTS.items():
    _want = "integers" if _arg == "indices" else "numbers"
    for _form, (_entries, _dtype) in WRONG_ENTRIES.items():
        REFUSALS[f"array_{_arg}_{_form}"] = (
            functools.partial(_call, _entries), errors.InvalidSpec,
            f"{_name} must be {_want}, got {_dtype} values")
# a two-class set and a loss whose subset, the positive row, a model
# of weights [1e308, 1e308] scores at inf
_THREE = Dataset([[1, 1], [1, -1], [-1, -1]], [1, -1, -1])
_P_AT_R = SurrogateLossSpec("p_at_r", RateConstraint("positives", "at_least", 0.8), _POINT)
REFUSALS.update({
    "array_labels_fractional": (
        lambda: Dataset(_X2, [1.5, -1]),
        errors.InvalidSpec, "labels must be -1 or +1"),
    "array_indices_fractional": (
        lambda: Dataset(_X2, [1, -1]).take([1.5]),
        errors.InvalidSpec, "indices must be integers, got float64 values"),
    "array_weights_ragged": (
        lambda: LinearModel([[1.0], [1.0, 2.0]]),
        errors.InvalidSpec, "weights must be numbers, got unequal rows"),
    "array_rate_string_scores": (
        lambda: rate(["1", "2"], 1.5),
        errors.InvalidSpec, "scores must be numbers, got str32 values"),
    "array_calibrate_bool_scores": (
        lambda: calibrate_threshold([True, False], RateConstraint("all", "at_least", 0.5)),
        errors.InvalidSpec, "scores must be numbers, got bool values"),
    "array_pr_points_string_labels": (
        lambda: pr_points([0.3, 0.1, 0.2], ["1", "-1", "1"], [0.5]),
        errors.InvalidSpec, "labels must be numbers, got str64 values"),
    "array_precision_string_labels": (
        lambda: precision_at_rate([0.3, 0.1, 0.2], ["1", "-1", "1"], 0.5),
        errors.InvalidSpec, "labels must be numbers, got str64 values"),
    # these once warned "invalid value encountered in cast" / "in reduce"
    "array_labels_nan": (
        lambda: Dataset(_X2, [math.nan, -1]),
        errors.InvalidSpec, "labels must be finite"),
    "array_scores_inf_minus_inf": (
        lambda: estimate(_POINT, [math.inf, -math.inf], 0.5),
        errors.InvalidSpec, "scores must be finite"),
    # finite weights whose scores overflow: once counted, or refused
    # only after numpy's "overflow encountered in matmul"
    "evaluate_overflowing_scores": (
        lambda: evaluate(LinearModel([1e308, 1e308], 0.0),
                         Dataset([[1, 1], [1, -1], [-1, -1]], [1, -1, -1])),
        errors.InvalidSpec, "scores must be finite"),
    "scores_overflow": (
        lambda: LinearModel([1e308, 1e308]).scores([[1.0, 1.0]]),
        errors.InvalidSpec, "scores must be finite"),
    "surrogate_loss_overflowing_scores": (
        lambda: surrogate_loss(LinearModel([1e308, 1e308]), _THREE, _P_AT_R),
        errors.InvalidSpec, "scores must be finite"),
    "loss_gradient_overflowing_scores": (
        lambda: loss_gradient(LinearModel([1e308, 1e308]), _THREE, _P_AT_R),
        errors.InvalidSpec, "scores must be finite"),
    # finite scores whose losses overflow: once written out as NaN and
    # Infinity deviations
    "deviation_lab_overflowing_losses": (
        lambda: loss_uniform_deviation(
            _positive_first(), RateConstraint("positives", "at_least", 0.8),
            QuantileEstimatorSpec("point"), (10,), 100, 1e308, 3, 0),
        errors.InvalidSpec, "deviations must be nonnegative and finite"),
    # numpy reads a list that mixes bools and numbers as numbers
    "array_weights_int_and_bool": (
        lambda: LinearModel([1, True]),
        errors.InvalidSpec, "weights must be numbers, got bool values"),
    "array_weights_bool_and_float": (
        lambda: LinearModel([True, 1.5]),
        errors.InvalidSpec, "weights must be numbers, got bool values"),
    "array_labels_int_and_bool": (
        lambda: Dataset(np.zeros((2, 1)), [1, True]),
        errors.InvalidSpec, "labels must be numbers, got bool values"),
})
# every seed a lab or the mixture generator takes follows the records' rule
_STABILITY = (50, (10, 20), 100, QuantileEstimatorSpec("point"), 0.5, "uniform")
_LAB_CALLS = {
    "stability": lambda seed: estimator_stability(*_STABILITY, seed),
    "deviation": lambda seed: loss_uniform_deviation(
        _positive_first(), RateConstraint("positives", "at_least", 0.8),
        QuantileEstimatorSpec("point"), (10,), 100, 1.0, 1, seed),
    "convex": lambda seed: convex_sgd_convergence(
        _positive_first(), 0.5, 10, (1,), 1, seed),
    "mixture": lambda seed: generate_mixture(
        [MixtureComponent(1, 1.0, (0.0,), 1.0)], 10, seed),
}
for _lab, _call in _LAB_CALLS.items():
    for _form, (_seed, _message) in {
        "string": ("7", "seed must be an integer, got '7'"),
        "bool": (True, "seed must be an integer, got True"),
        "fractional": (2.5, "seed must be an integer, got 2.5"),
        "negative": (-3, "seed must be a nonnegative integer"),
    }.items():
        if _lab != "mixture" or _form == "negative":  # it read the other forms already
            REFUSALS[f"{_lab}_seed_{_form}"] = (
                functools.partial(_call, _seed), errors.InvalidSpec, _message)


@pytest.mark.parametrize("lab", ["stability", "deviation", "convex"])
def test_a_numpy_integer_seed_reads_as_its_int(lab):
    # the report of an np.int64 seed once held it, and json could not write it
    expected, got = _LAB_CALLS[lab](7), _LAB_CALLS[lab](np.int64(7))
    assert json_text(got.to_dict()) == json_text(expected.to_dict())
    assert type(got.seed) is int


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals_name_their_rule(case):
    call, cls, message = REFUSALS[case]
    with pytest.raises(errors.QuantrateError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


def test_numpy_integers_pass_the_integer_rule():
    n, one = np.int64(12), np.uint8(1)
    config = TrainConfig(learning_rate=0.1, steps=n, seed=np.uint64(2**63),
                         restarts=one, batch_size=n, constraint_batch_size=one,
                         eval_every=one)
    assert (config.steps, config.batch_size, config.seed) == (12, 12, 2**63)
    spec = SyntheticSpec(n=n, mean_separation=1.0, sigma=1.0, seed=one, dim=np.int32(2))
    assert generate_synthetic(spec).features.shape == (12, 2)
    assert SplitSpec(0.5, seed=n).seed == 12
    spec = QuantileEstimatorSpec("kernel", bandwidth=np.float64(0.1),
                                 normalize=np.bool_(False))
    assert spec.normalize is False and type(spec.bandwidth) is float
    assert SplitSpec(np.float64(0.5), seed=1, stratified=np.bool_(True)).stratified is True
    assert RateConstraint("indices", "at_least", np.float64(0.5),
                          indices=np.array([1, 2])).indices == (1, 2)
    component = MixtureComponent(np.int8(1), np.float32(0.5), np.array([0.0, 1.5]), 1.0)
    assert component.mean == (0.0, 1.5) and type(component.weight) is float



def test_a_float64_array_passes_the_array_rule_uncopied():
    from quantrate.types import typed_array

    a = np.arange(6.0).reshape(3, 2)
    assert typed_array(a, "a") is a
    assert typed_array(a, "a", lambda shape: len(shape) == 2, "2-d") is a
    cast = typed_array(a.astype(np.int32), "a")
    assert cast.dtype == np.float64 and cast.tobytes() == a.tobytes()
    indices = typed_array([2, 0], "indices", integers=True)
    assert indices.dtype == np.int64 and indices.tolist() == [2, 0]

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", REFUSALS)
def test_no_runtime_warning_comes_before_a_refusal(case):
    call, cls, _ = REFUSALS[case]
    with pytest.raises(cls):
        call()


# a valid value for every field of each input record, LinearModel's
# threshold too; the kernel and interval specs cover the estimator
VALID = [
    (RateConstraint, dict(subset="indices", direction="at_least", target=0.5,
                          indices=(0, 1))),
    (QuantileEstimatorSpec, dict(kind="kernel", bandwidth=0.1, normalize=False)),
    (QuantileEstimatorSpec, dict(kind="interval", k1=0.2, k2=0.8)),
    (SurrogateLossSpec, dict(objective="generic",
                             constraint=RateConstraint("all", "at_least", 0.5),
                             estimator=QuantileEstimatorSpec("point"),
                             logloss_base=2.0, penalize="positives")),
    (TrainConfig, dict(learning_rate=0.1, steps=5, seed=3, momentum=0.5,
                       weight_decay=0.1, batch_size=10, constraint_batch_size=5,
                       restarts=2, init_scale=0.01, eval_every=2, lr_decay="inv_sqrt")),
    (SplitSpec, dict(train_fraction=0.5, seed=1, stratified=False)),
    (SyntheticSpec, dict(n=10, mean_separation=1.0, sigma=1.0, seed=0,
                         positive_prior=0.3, dim=3, positive_scale=2.0,
                         negative_scale=0.5)),
    (MixtureComponent, dict(label=-1, weight=0.5, mean=(0.0, 1.0), sigma=2.0)),
    (LinearModel, dict(weights=[1.0, 2.0], threshold=0.5)),
]


def wrong_forms(value):
    """Values of another form than value's: a string for a number or a
    bool, a bool or a fraction for an integer, a number for a string, a
    bad entry in a list, and a plain dict for a record."""
    if isinstance(value, bool):
        return ["false", 1]
    if isinstance(value, int):
        return [True, "1", 1.5]
    if isinstance(value, float):
        return ["0.5", True]
    if isinstance(value, str):
        return [7]
    if isinstance(value, tuple):
        bad = 1.5 if isinstance(value[0], int) else "1.0"
        return ["x", (value[0], bad)]
    return [dataclasses.asdict(value)]


def test_every_record_field_has_a_valid_sample():
    for cls in {cls for cls, _ in VALID}:
        named = set().union(*(set(kw) for c, kw in VALID if c is cls))
        assert named == {f.name for f in dataclasses.fields(cls)}, cls


@pytest.mark.parametrize("cls, valid, key, value", [
    (cls, valid, key, value) for cls, valid in VALID for key in valid
    if key != "weights" for value in wrong_forms(valid[key])
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_a_wrongly_typed_value_is_a_spec_error(cls, valid, key, value):
    cls(**valid)
    with pytest.raises(errors.InvalidSpec) as info:
        cls(**dict(valid, **{key: value}))
    assert re.search(rf"\b{key}\b", str(info.value)), str(info.value)
