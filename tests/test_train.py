"""Trainer tests: exact update replication, batching, restarts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from quantrate import (
    BatchTooLarge,
    ConstraintBatchEmpty,
    Dataset,
    InvalidSpec,
    LinearModel,
    NonpositiveScale,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    loss_gradient,
    multi_restart_train,
    sgd_train,
    surrogate_loss,
)
from quantrate.losses import core_eval

POINT = QuantileEstimatorSpec(kind="point")


def fp_spec(c=0.4):
    return SurrogateLossSpec(
        objective="p_at_ppr_fp",
        constraint=RateConstraint("all", "at_least", c),
        estimator=POINT,
    )


def recall_spec(c=0.5):
    return SurrogateLossSpec(
        objective="p_at_r",
        constraint=RateConstraint("positives", "at_least", c),
        estimator=POINT,
    )


def small_dataset(seed=17, n=12, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return Dataset(X, y)


def init_weights(config, dim):
    rng = np.random.default_rng(config.seed)
    return config.init_scale * rng.standard_normal(dim)


def test_one_full_batch_step_is_a_plain_gradient_step():
    d = small_dataset()
    spec = fp_spec()
    config = TrainConfig(learning_rate=0.1, steps=1, seed=5,
                         weight_decay=0.03)
    w0 = init_weights(config, d.dim)
    g = loss_gradient(LinearModel(w0), d, spec)
    expected = w0 - 0.1 * (g + 0.03 * w0)
    result = sgd_train(d, spec, config)
    assert np.array_equal(result.model.weights, expected)
    assert result.restart_index == 0
    assert result.seed_used == 5
    assert result.final_train_loss == surrogate_loss(
        LinearModel(expected), d, spec).value


def test_batch_without_penalized_samples_applies_decay_only():
    # 5 positives and one negative at index 5: under seed 1 the first
    # shuffled batch of 3 is [3, 0, 1], so the step sees no negatives
    d = Dataset(np.random.default_rng(2).standard_normal((6, 2)),
                [1, 1, 1, 1, 1, -1])
    config = TrainConfig(learning_rate=0.2, steps=1, seed=1,
                         weight_decay=0.5, batch_size=3)
    probe = np.random.default_rng(1)
    w0 = config.init_scale * probe.standard_normal(2)
    assert probe.permutation(6)[:3].tolist() == [3, 0, 1]
    result = sgd_train(d, recall_spec(), config)
    expected = w0 - 0.2 * (0.5 * w0)
    assert np.array_equal(result.model.weights, expected)


def test_intersection_mode_raises_when_batch_misses_subset():
    # constraint subset {0}; under seed 0 the first batch of 3 is
    # [5, 3, 2], so the intersection comes up empty
    d = Dataset(np.random.default_rng(3).standard_normal((6, 2)),
                [1, -1, 1, -1, 1, -1])
    spec = SurrogateLossSpec(
        objective="generic",
        constraint=RateConstraint("indices", "at_most", 0.5, indices=(0,)),
        estimator=POINT,
        penalize="negatives",
    )
    probe = np.random.default_rng(0)
    probe.standard_normal(2)
    assert 0 not in probe.permutation(6)[:3]
    config = TrainConfig(learning_rate=0.1, steps=1, seed=0, batch_size=3)
    with pytest.raises(ConstraintBatchEmpty):
        sgd_train(d, spec, config)
    # drawing the constraint batch independently sidesteps the miss
    fixed = replace(config, constraint_batch_size=1)
    result = sgd_train(d, spec, fixed)
    assert result.model.weights.shape == (2,)


def test_three_steps_replay_the_epoch_queue_and_momentum_exactly():
    # n=5 with batch 2: steps take perm1[:2], perm1[2:4], then drop the
    # one-sample tail and reshuffle; constraint batches draw from the
    # generator after each batch selection
    d = small_dataset(seed=19, n=5, dim=3)
    c = 0.4
    spec = fp_spec(c)
    config = TrainConfig(learning_rate=0.05, steps=3, seed=23,
                         momentum=0.5, weight_decay=0.01, batch_size=2,
                         constraint_batch_size=3, lr_decay="inv_sqrt")
    sub = np.arange(5)
    pen = d.negative_indices()
    rng = np.random.default_rng(23)
    w = config.init_scale * rng.standard_normal(3)
    velocity = np.zeros(3)
    queue = np.empty(0, dtype=np.int64)
    cursor = 0
    trace = []
    for t in (1, 2, 3):
        if cursor + 2 > queue.size:
            queue = rng.permutation(5)
            cursor = 0
        batch = queue[cursor:cursor + 2]
        cursor += 2
        pen_batch = batch[d.labels[batch] == -1]
        drawn = rng.choice(5, size=3, replace=False)
        sub_batch = sub[drawn]
        if pen_batch.size > 0:
            _, _, grad = core_eval(w, d.features[pen_batch],
                                   d.features[sub_batch], 1.0, 1.0 - c,
                                   POINT, 2.0, want_grad=True)
            grad = (pen.size / pen_batch.size) * grad
        else:
            grad = np.zeros(3)
        grad = grad + 0.01 * w
        lr_t = 0.05 / math.sqrt(t)
        velocity = 0.5 * velocity - lr_t * grad
        w = w + velocity
        trace.append(surrogate_loss(LinearModel(w), d, spec).value)
    result = sgd_train(d, spec, config)
    assert np.array_equal(result.model.weights, w)
    assert list(result.loss_trace) == trace
    assert result.final_train_loss == trace[-1]


def test_trace_records_every_eval_point_plus_ragged_final():
    d = small_dataset(seed=29)
    spec = fp_spec()
    base = TrainConfig(learning_rate=0.01, steps=7, seed=3, eval_every=3)
    result = sgd_train(d, spec, base)
    assert len(result.loss_trace) == 3  # t = 3, 6, and the final step
    aligned = sgd_train(d, spec, replace(base, steps=6))
    assert len(aligned.loss_trace) == 2
    assert result.final_train_loss == result.loss_trace[-1]
    assert result.final_train_loss == surrogate_loss(
        result.model, d, spec).value


def test_multi_restart_returns_the_argmin_member():
    d = small_dataset(seed=37)
    spec = fp_spec()
    config = TrainConfig(learning_rate=0.05, steps=5, seed=9, restarts=3)
    members = [sgd_train(d, spec, replace(config, seed=9 + r, restarts=1))
               for r in range(3)]
    losses = [m.final_train_loss for m in members]
    best_r = int(np.argmin(losses))
    result = multi_restart_train(d, spec, config)
    assert result.restart_index == best_r
    assert result.seed_used == 9 + best_r
    assert result.final_train_loss == losses[best_r]
    assert np.array_equal(result.model.weights,
                          members[best_r].model.weights)


def test_multi_restart_ties_go_to_the_lowest_index():
    # all-zero features make the loss independent of the weights, so
    # every restart lands on exactly the same value
    d = Dataset(np.zeros((4, 2)), [1, -1, 1, -1])
    config = TrainConfig(learning_rate=0.1, steps=2, seed=40, restarts=3)
    result = multi_restart_train(d, recall_spec(), config)
    assert result.restart_index == 0
    assert result.seed_used == 40
    assert result.final_train_loss == 2.0  # two negatives at logloss(0)


def test_batch_size_limits():
    d = small_dataset(seed=41, n=6)
    spec = recall_spec()
    with pytest.raises(BatchTooLarge):
        sgd_train(d, spec, TrainConfig(learning_rate=0.1, steps=1, seed=0,
                                       batch_size=7))
    n_pos = d.positive_indices().size
    with pytest.raises(BatchTooLarge):
        sgd_train(d, spec, TrainConfig(learning_rate=0.1, steps=1, seed=0,
                                       constraint_batch_size=n_pos + 1))


def test_zero_learning_rate_keeps_the_init_draw():
    d = small_dataset(seed=43)
    config = TrainConfig(learning_rate=0.0, steps=3, seed=11)
    result = sgd_train(d, fp_spec(), config)
    assert np.array_equal(result.model.weights, init_weights(config, d.dim))


def test_training_is_bitwise_deterministic():
    d = small_dataset(seed=47)
    spec = fp_spec()
    config = TrainConfig(learning_rate=0.05, steps=6, seed=13, momentum=0.3,
                         batch_size=4, constraint_batch_size=3, restarts=2)
    r1 = multi_restart_train(d, spec, config)
    r2 = multi_restart_train(d, spec, config)
    assert np.array_equal(r1.model.weights, r2.model.weights)
    assert r1.loss_trace == r2.loss_trace
    assert r1.final_train_loss == r2.final_train_loss


def test_train_config_validation():
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=-0.1, steps=1, seed=0)
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=0.1, steps=0, seed=0)
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=0.1, steps=1, seed=0, momentum=1.0)
    with pytest.raises(NonpositiveScale):
        TrainConfig(learning_rate=0.1, steps=1, seed=0, init_scale=0.0)
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=0.1, steps=1, seed=0, lr_decay="linear")
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=0.1, steps=1, seed=0, eval_every=0)
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=0.1, steps=1, seed=0, batch_size=0)
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=0.1, steps=1, seed=-1)
