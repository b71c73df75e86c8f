"""Gradient training of linear models on quantile surrogate losses.

Implements minibatch SGD with heavy-ball momentum and weight decay,
where each step draws a sample minibatch and a constraint-subset
minibatch.  The constraint minibatch is either drawn independently from
the subset (when constraint_batch_size is set) or taken as the
intersection of the sample minibatch with the subset (when it is full).

Full-batch models train in lockstep: one descent loop over a (K, d)
weight matrix, one model per row, makes one stacked core_eval call per
step for all K.  The rows share the dataset and every setting of their
loss specs and configs except three that each row has its own of: the
level (constraint target), the weight decay and the seed.  A single
model is the K=1 case of the same loop; minibatch models train one per
loop, since each draws its own batches.

Determinism contract, per model: one PCG64 generator seeded from that
model's config.seed drives, in order, its weight initialization, each
epoch reshuffle and each independent constraint draw.  Identical inputs
give bitwise identical results, and a model's weights, loss trace and
final loss are bit for bit the same whether it trains alone or as one
row of a lockstep call, whatever the other rows hold.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BatchTooLarge, ConstraintBatchEmpty, Diverged, InvalidSpec
from .losses import _resolved, core_eval
from .types import (
    Dataset,
    LinearModel,
    SurrogateLossSpec,
    TrainConfig,
    TrainResult,
)

Model = Tuple[SurrogateLossSpec, TrainConfig]


def _shared(model: Model) -> Tuple[dict, dict]:
    """The fields of a model that every row of a lockstep call shares."""
    loss_spec, config = model
    constraint = dict(vars(loss_spec.constraint), target=None)
    return (
        dict(vars(loss_spec), constraint=constraint),
        dict(vars(config), seed=None, weight_decay=None, restarts=None),
    )


def _descend(dataset: Dataset, models: Sequence[Model]) -> List[TrainResult]:
    """The descent loop, one model per row; see sgd_train for a step.

    Several models must be full batch, which lockstep_train sees to, and
    agree on everything but the constraint target, the weight decay and
    the seed.
    """
    loss_spec, config = models[0]
    single = len(models) == 1
    shared = _shared(models[0])
    if not single and any(_shared(m) != shared for m in models[1:]):
        raise InvalidSpec(
            "lockstep models may differ only in target, weight_decay and seed"
        )
    config.check_against(dataset.n)
    resolved = [_resolved(spec, dataset) for spec, _ in models]
    sub, pen, sign, _ = resolved[0]
    independent = config.constraint_batch_size is not None
    if independent and config.constraint_batch_size > sub.size:
        raise BatchTooLarge(
            f"constraint_batch_size {config.constraint_batch_size} exceeds "
            f"the constraint subset ({sub.size} samples)"
        )
    X = dataset.features
    n = dataset.n
    X_pen, X_sub = X[pen], X[sub]
    pen_mask = np.zeros(n, dtype=bool)
    pen_mask[pen] = True
    sub_mask = np.zeros(n, dtype=bool)
    sub_mask[sub] = True
    n_pen_total = pen.size

    rngs = [np.random.default_rng(cfg.seed) for _, cfg in models]
    inits = [
        cfg.init_scale * rng.standard_normal(dataset.dim)
        for (_, cfg), rng in zip(models, rngs)
    ]
    rng = rngs[0]  # draws batches only when single
    if single:
        W, level, decay = inits[0], resolved[0][3], config.weight_decay
    else:
        W = np.stack(inits)
        level = np.array([r[3] for r in resolved])
        decay = np.array([cfg.weight_decay for _, cfg in models])[:, None]
    # a zero-decay row beside decayed ones adds 0 * w to its gradient,
    # which can only turn a -0.0 entry into +0.0, and the velocity and
    # weight updates treat both zeros alike
    decayed = any(cfg.weight_decay for _, cfg in models)
    velocity = np.zeros_like(W)
    full_batch = config.batch_size is None
    queue = np.empty(0, dtype=np.int64)
    cursor = 0
    trace = []
    try:
        for t in range(1, config.steps + 1):
            if full_batch:
                pen_rows = X_pen
            else:
                if cursor + config.batch_size > queue.size:
                    queue = rng.permutation(n)
                    cursor = 0
                batch = queue[cursor : cursor + config.batch_size]
                cursor += config.batch_size
                pen_rows = X[batch[pen_mask[batch]]]
            if independent:
                drawn = rng.choice(
                    sub.size, size=config.constraint_batch_size, replace=False
                )
                sub_rows = X[sub[drawn]]
            elif full_batch:
                sub_rows = X_sub
            else:
                sub_batch = batch[sub_mask[batch]]
                if sub_batch.size == 0:
                    raise ConstraintBatchEmpty(
                        f"step {t}: minibatch of {config.batch_size} missed "
                        "the constraint subset; set constraint_batch_size to "
                        "sample it independently"
                    )
                sub_rows = X[sub_batch]
            if pen_rows.shape[0] > 0:
                _, _, grad = core_eval(
                    W,
                    pen_rows,
                    sub_rows,
                    sign,
                    level,
                    loss_spec.estimator,
                    loss_spec.logloss_base,
                    want_grad=True,
                )
                grad = (n_pen_total / pen_rows.shape[0]) * grad
            else:
                grad = np.zeros_like(W)
            if decayed:
                grad = grad + decay * W
            velocity = config.momentum * velocity - config.lr_at(t) * grad
            W = W + velocity
            if t % config.eval_every == 0 or t == config.steps:
                trace.append(
                    core_eval(
                        W,
                        X_pen,
                        X_sub,
                        sign,
                        level,
                        loss_spec.estimator,
                        loss_spec.logloss_base,
                    )[0]
                )
    except InvalidSpec as exc:
        # the estimator raises InvalidSpec on inf or nan scores; it
        # means divergence unless the scores under every row are finite
        if np.all(np.isfinite(X @ W.T)):
            raise
        raise Diverged(
            f"training diverged by step {t}: weights or scores are not finite"
        ) from exc
    traces = np.array(trace).reshape(len(trace), len(models))
    return [
        TrainResult(
            model=LinearModel(W if single else W[k]),
            final_train_loss=float(traces[-1, k]),
            loss_trace=tuple(traces[:, k].tolist()),
            restart_index=0,
            seed_used=cfg.seed,
        )
        for k, (_, cfg) in enumerate(models)
    ]


def sgd_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Stochastic gradient descent on a surrogate loss.

    Per step: draw the next batch_size samples of an epoch shuffle (a
    tail shorter than the batch is discarded and a new epoch begins);
    build the constraint minibatch; scale the batch loss gradient by
    total-penalized over penalized-in-batch so magnitudes match the
    full objective; add weight_decay * w; apply the momentum update
    v <- momentum * v - lr_t * g, w <- w + v.  A batch with no
    penalized samples contributes only its decay term.

    The loss trace records the full-dataset surrogate loss (no decay
    term) after every eval_every-th step and after the final step.
    Weights or scores that overflow to inf or nan raise Diverged.
    """
    return _descend(dataset, [(loss_spec, config)])[0]


def lockstep_train(
    dataset: Dataset, models: Sequence[Model]
) -> List[TrainResult]:
    """Train each (loss_spec, config) model; result k is sgd_train's.

    When no model draws batches (batch_size and constraint_batch_size
    both full), all K train in one lockstep loop and must agree on
    everything but the constraint target, the weight decay and the
    seed; a model that overflows raises Diverged for the whole call, at
    the first step any row overflowed.  Otherwise each trains alone.
    """
    if not models:
        raise InvalidSpec("lockstep_train needs at least one model")
    if all(
        cfg.batch_size is None and cfg.constraint_batch_size is None
        for _, cfg in models
    ):
        return _descend(dataset, models)
    return [sgd_train(dataset, spec, cfg) for spec, cfg in models]


def best_restart(results: Sequence[TrainResult]) -> TrainResult:
    """The result with the lowest final loss, ties going to the lowest
    index, marked as restart that index."""
    r = min(range(len(results)), key=lambda i: results[i].final_train_loss)
    return dataclasses.replace(results[r], restart_index=r)


def multi_restart_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Best-of-restarts training.

    Restart r trains seeded with config.seed + r, the restarts of a
    full-batch config in lockstep; the result with the lowest
    full-dataset loss wins, ties going to the lowest restart index.
    """
    members = [
        (loss_spec, dataclasses.replace(config, seed=config.seed + r, restarts=1))
        for r in range(config.restarts)
    ]
    return best_restart(lockstep_train(dataset, members))
