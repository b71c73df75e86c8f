"""Trainer tests: exact update replication, batching, restarts."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from quantrate import (
    BatchTooLarge,
    ConstraintBatchEmpty,
    Dataset,
    Diverged,
    InvalidSpec,
    LinearModel,
    NonpositiveScale,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    lockstep_train,
    loss_gradient,
    multi_restart_train,
    sgd_train,
    surrogate_loss,
)
from quantrate import baseline, losses, train
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
    # one-sample tail and reshuffle; the 5-sample subset with constraint
    # batch 3 takes a fresh permutation at every step, drawn after the
    # minibatch's
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
    unread, sub_unread = [], []  # what is left of each queue's permutation
    trace = []
    for t in (1, 2, 3):
        if len(unread) < 2:
            unread = list(rng.permutation(5))
        batch, unread = np.array(unread[:2]), unread[2:]
        if len(sub_unread) < 3:
            sub_unread = list(rng.permutation(5))
        drawn, sub_unread = np.array(sub_unread[:3]), sub_unread[3:]
        pen_batch = batch[d.labels[batch] == -1]
        sub_batch = sub[drawn]
        if pen_batch.size > 0:
            _, _, grad = core_eval(w[None], d.features[pen_batch],
                                   d.features[sub_batch], 1.0, 1.0 - c,
                                   POINT, 2.0, want_grad=True)
            grad = (pen.size / pen_batch.size) * grad[0]
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


def lockstep_models(estimator, K=12, seed=53, **shared):
    rng = np.random.default_rng(seed)
    base = TrainConfig(learning_rate=0.2, steps=11, seed=0, momentum=0.6,
                       eval_every=4, **shared)
    models = []
    for k in range(K):
        spec = SurrogateLossSpec(
            objective="p_at_ppr_fp",
            constraint=RateConstraint("all", "at_least",
                                      float(rng.choice([0.1, 0.3, 0.5, 0.8]))),
            estimator=estimator,
        )
        config = replace(base, seed=int(rng.integers(2**32)),
                         weight_decay=float(rng.choice([0.0, 0.01, 0.5])))
        models.append((spec, config))
    return models


@pytest.mark.parametrize("estimator, duplicated", [
    pytest.param(QuantileEstimatorSpec(kind="kernel", bandwidth=0.1), False,
                 id="estimator0"),
    pytest.param(QuantileEstimatorSpec(kind="lower_mean"), False,
                 id="estimator1"),
    # every sample twice, so every row's subset scores tie at every step
    # and the kernel takes its tie-broken ranks, not its sorted table
    pytest.param(QuantileEstimatorSpec(kind="kernel", bandwidth=0.1), True,
                 id="kernel-duplicated-rows"),
])
def test_lockstep_rows_equal_their_single_model_runs(estimator, duplicated):
    # 12 rows with mixed levels, decays and seeds in one call; each row
    # is bit for bit what sgd_train gives that model alone
    d = small_dataset(seed=59, n=40, dim=4)
    if duplicated:
        d = Dataset(np.repeat(d.features, 2, axis=0), np.repeat(d.labels, 2))
    models = lockstep_models(estimator)
    assert len({m[0].constraint.target for m in models}) > 1
    assert len({m[1].weight_decay for m in models}) > 1
    results = lockstep_train(d, models)
    assert len(results) == 12
    for (spec, config), got in zip(models, results):
        alone = sgd_train(d, spec, config)
        assert np.array_equal(got.model.weights, alone.model.weights)
        assert got.model.weights.tobytes() == alone.model.weights.tobytes()
        assert len(got.loss_trace) == 3  # t = 4, 8 and the final 11
        assert got.loss_trace == alone.loss_trace
        assert got.final_train_loss == alone.final_train_loss
        assert got.seed_used == config.seed


def test_lockstep_minibatch_models_train_one_by_one():
    # no constraint_batch_size: each model's constraint batch is its
    # minibatch's share of the subset, so the models train one per loop
    d = small_dataset(seed=61, n=30, dim=3)
    models = lockstep_models(POINT, K=3, batch_size=7)
    for (spec, config), got in zip(models, lockstep_train(d, models)):
        alone = sgd_train(d, spec, config)
        assert np.array_equal(got.model.weights, alone.model.weights)
        assert got.loss_trace == alone.loss_trace


def penalized_counts(config, n, n_sub, negatives):
    """Negatives in each minibatch of a model, replaying its generator:
    the init draw, then the reshuffles of its minibatch queue and of its
    constraint queue, the minibatch's first in a step that takes both."""
    rng = np.random.default_rng(config.seed)
    rng.standard_normal(3)
    unread, sub_unread, counts = [], [], []
    for _ in range(config.steps):
        if len(unread) < config.batch_size:
            unread = list(rng.permutation(n))
        batch, unread = unread[:config.batch_size], unread[config.batch_size:]
        counts.append(int(np.isin(batch, negatives).sum()))
        if len(sub_unread) < config.constraint_batch_size:
            sub_unread = list(rng.permutation(n_sub))
        sub_unread = sub_unread[config.constraint_batch_size:]
    return counts


@pytest.mark.parametrize("estimator", [
    QuantileEstimatorSpec(kind="point"),
    QuantileEstimatorSpec(kind="lower_mean"),
    QuantileEstimatorSpec(kind="kernel", bandwidth=0.1),
])
def test_minibatch_lockstep_rows_equal_their_single_model_runs(estimator):
    # 7 rows drawing their own batches of 4 from 30 samples, 6 of them
    # negative: 25 steps reshuffle at steps 8, 15 and 22
    rng = np.random.default_rng(73)
    labels = np.ones(30, dtype=int)
    labels[rng.choice(30, size=6, replace=False)] = -1
    d = Dataset(rng.standard_normal((30, 3)), labels)
    base = TrainConfig(learning_rate=0.2, steps=25, seed=0, momentum=0.6,
                       eval_every=4, batch_size=4, constraint_batch_size=5,
                       lr_decay="inv_sqrt")
    targets = (0.1, 0.3, 0.5, 0.8, 0.3, 0.1, 0.5)
    decays = (0.0, 0.01, 0.5, 0.0, 0.01, 0.5, 0.0)
    models = [
        (replace(fp_spec(c), estimator=estimator),
         replace(base, seed=1000 + k, weight_decay=wd))
        for k, (c, wd) in enumerate(zip(targets, decays))
    ]
    counts = np.array([penalized_counts(cfg, 30, 30, d.negative_indices())
                       for _, cfg in models])
    # at some step one row's batch has no negative while others do
    assert np.any((counts == 0).any(axis=0) & (counts > 0).any(axis=0))
    results = lockstep_train(d, models)
    for (spec, config), got in zip(models, results):
        alone = sgd_train(d, spec, config)
        assert got.model.weights.tobytes() == alone.model.weights.tobytes()
        assert len(got.loss_trace) == 7  # t = 4, 8, ..., 24 and the final 25
        assert got.loss_trace == alone.loss_trace
        assert got.final_train_loss == alone.final_train_loss


@pytest.mark.parametrize("batches", [
    pytest.param({}, id="full-batch"),
    pytest.param({"batch_size": 7, "constraint_batch_size": 5}, id="minibatch"),
    # no constraint_batch_size: one loop per run
    pytest.param({"batch_size": 7}, id="intersection"),
])
def test_lockstep_models_with_mixed_restarts_equal_their_best_alone(batches):
    # models of 1, 3 and 2 restarts at mixed levels and decays in one
    # call; each result is bit for bit multi_restart_train's of it alone
    d = small_dataset(seed=59, n=40, dim=4)
    models = [(spec, replace(config, restarts=r)) for (spec, config), r
              in zip(lockstep_models(POINT, K=3, **batches), (1, 3, 2))]
    assert len({m[0].constraint.target for m in models}) > 1
    assert len({m[1].weight_decay for m in models}) > 1
    results = lockstep_train(d, models)
    assert len(results) == 3
    for (spec, config), got in zip(models, results):
        alone = multi_restart_train(d, spec, config)
        assert got.model.weights.tobytes() == alone.model.weights.tobytes()
        assert got.loss_trace == alone.loss_trace
        assert got.restart_index == alone.restart_index
        assert got.seed_used == alone.seed_used == config.seed + got.restart_index
    # some model's best restart is not its first
    assert any(got.restart_index > 0 for got in results)


@pytest.mark.parametrize("lr_decay", ["constant", "inv_sqrt"])
@pytest.mark.parametrize("batches", [
    pytest.param({}, id="full-batch"),
    pytest.param({"batch_size": 7, "constraint_batch_size": 5}, id="minibatch"),
    pytest.param({"batch_size": 7}, id="intersection"),
])
def test_a_run_is_the_prefix_of_any_longer_run(batches, lr_decay):
    # no step reads the budget: a T-step run ends where the same seed's
    # 20-step run is after step T, across the queues' refills; the
    # convex lab reads every budget off one run on this
    d = small_dataset(seed=59, n=40, dim=4)
    [(spec, config)] = lockstep_models(QuantileEstimatorSpec(kind="lower_mean"),
                                       K=1, lr_decay=lr_decay, **batches)
    long = sgd_train(d, spec, replace(config, steps=20, eval_every=1))
    for T in range(1, 21):
        short = sgd_train(d, spec, replace(config, steps=T))
        assert short.final_train_loss == long.loss_trace[T - 1]


def test_lockstep_models_must_share_all_but_level_decay_and_seed():
    d = small_dataset(seed=67)
    models = lockstep_models(POINT, K=3)
    with pytest.raises(InvalidSpec):
        lockstep_train(d, models[:2] + [(models[2][0],
                                         replace(models[2][1], learning_rate=0.3))])
    other = replace(models[2][0], estimator=QuantileEstimatorSpec(kind="lower_mean"))
    with pytest.raises(InvalidSpec):
        lockstep_train(d, models[:2] + [(other, models[2][1])])
    with pytest.raises(InvalidSpec):
        lockstep_train(d, [])
    # one step budget for every row; minibatch rows too, whether they
    # train in one loop or one by one
    for batches in ({}, dict(batch_size=5, constraint_batch_size=4),
                    dict(batch_size=5)):
        rows = lockstep_models(POINT, K=3, **batches)
        for change in (dict(batch_size=6), dict(learning_rate=0.3),
                       dict(steps=12), dict(eval_every=3)):
            odd = (rows[2][0], replace(rows[2][1], **change))
            with pytest.raises(InvalidSpec):
                lockstep_train(d, rows[:2] + [odd])


def test_an_empty_lockstep_call_says_no_model_was_given():
    d = small_dataset(seed=67)
    for call in (lockstep_train, baseline.lockstep_logistic_train):
        with pytest.raises(InvalidSpec, match="^a lockstep call needs at least one model"):
            call(d, [])


def diverged_step(call):
    with pytest.raises(Diverged) as info:
        call()
    return int(re.search(r"step (\d+)", str(info.value)).group(1))


def test_an_overflowing_loss_is_divergence():
    # one step leaves finite weights and scores whose penalized margins
    # overflow, so the traced loss is inf; it was once returned as the
    # final loss
    rng = np.random.default_rng(0)
    d = Dataset(rng.standard_normal((30, 2)), np.where(rng.random(30) < 0.5, 1, -1))
    config = TrainConfig(learning_rate=10.0**305.5, steps=1, seed=1)
    with pytest.raises(Diverged, match="by step 1:"):
        sgd_train(d, recall_spec(0.8), config)


def test_lockstep_divergence_reports_the_first_row_to_overflow():
    # w <- (1 - decay) * w - g: a decay of 1e100 overflows within a few
    # steps, 1e40 later, 0.01 never; the call raises at the earliest
    # at full batch and on independently drawn minibatches
    d = small_dataset(seed=71, n=20, dim=3)
    spec = fp_spec()
    for batches in ({}, dict(batch_size=5, constraint_batch_size=4)):
        base = TrainConfig(learning_rate=1.0, steps=20, seed=0,
                           eval_every=20, **batches)
        decays = (0.01, 1e40, 1e100, 0.01)
        models = [(spec, replace(base, seed=s, weight_decay=wd))
                  for s, wd in enumerate(decays)]
        alone = []
        for spec_k, config in models:
            if config.weight_decay == 0.01:
                sgd_train(d, spec_k, config)  # converges: no error
            else:
                alone.append(
                    diverged_step(lambda: sgd_train(d, spec_k, config)))
        assert alone[0] > alone[1]  # the 1e100 row overflows first
        assert diverged_step(lambda: lockstep_train(d, models)) == min(alone)
        assert diverged_step(
            lambda: lockstep_train(d, models[:2])) == alone[0]


def constraint_draws(monkeypatch, d, models):
    """(steps, K, c): the first feature of each row's constraint batch at
    each descent step of lockstep_train(d, models)."""
    drawn = []

    def spy(W, X_pen, X_sub, *args, want_grad=False, **kwargs):
        if want_grad:
            drawn.append(X_sub[..., 0].copy())
        return core_eval(W, X_pen, X_sub, *args, want_grad=want_grad, **kwargs)

    monkeypatch.setattr(train, "core_eval", spy)
    lockstep_train(d, models)
    return np.array(drawn)


def test_constraint_batches_reshuffle_once_per_pass_over_the_subset(monkeypatch):
    # 11 positives, the subset, whose first feature is their index;
    # batches of 4 make passes of 2 steps that drop a tail of 3
    rng = np.random.default_rng(79)
    X = np.column_stack([np.arange(24.0), rng.standard_normal(24)])
    d = Dataset(X, np.where(np.arange(24) < 11, 1, -1))
    base = TrainConfig(learning_rate=0.001, steps=12, seed=0, batch_size=5,
                       constraint_batch_size=4)
    models = [(recall_spec(c), replace(base, seed=seed))
              for c, seed in ((0.5, 3), (0.8, 4), (0.5, 5))]
    draws = constraint_draws(monkeypatch, d, models)
    assert draws.shape == (12, 3, 4)
    for k in range(3):
        for passed in draws[:, k].reshape(6, 8):
            assert np.unique(passed).size == 8 and passed.max() < 11
        alone = constraint_draws(monkeypatch, d, [models[k]])
        assert np.array_equal(alone[:, 0], draws[:, k])
    assert not np.array_equal(draws[:, 0], draws[:, 2])


def test_descent_steps_compute_no_loss(monkeypatch):
    # only the loss-trace evaluations, after steps 4, 8 and the final
    # 11, take the softplus; the 11 gradient steps do not
    softplus, calls = losses._softplus, []
    monkeypatch.setattr(losses, "_softplus",
                        lambda z: calls.append(z.shape) or softplus(z))
    d = small_dataset(seed=59, n=40, dim=4)
    for batches in ({}, dict(batch_size=5, constraint_batch_size=4)):
        calls.clear()
        models = lockstep_models(POINT, K=3, **batches)
        lockstep_train(d, models)
        config = models[0][1]
        assert len(calls) == config.steps // config.eval_every + 1
