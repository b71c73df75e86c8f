"""Gradient training of linear models on quantile surrogate losses.

Implements minibatch SGD with heavy-ball momentum and weight decay,
where each step draws a sample minibatch and a constraint-subset
minibatch.  The constraint minibatch is either drawn independently from
the subset (when constraint_batch_size is set) or taken as the
intersection of the sample minibatch with the subset (when it is full).

Determinism contract: one PCG64 generator seeded from config.seed
drives, in order, the weight initialization, each epoch reshuffle, and
each independent constraint draw.  Identical inputs give bitwise
identical results.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BatchTooLarge, ConstraintBatchEmpty
from .losses import _resolved, core_eval
from .types import (
    Dataset,
    LinearModel,
    SurrogateLossSpec,
    TrainConfig,
    TrainResult,
)


def _full_loss(w, features, pen, sub, sign, level, spec: SurrogateLossSpec) -> float:
    value, _, _ = core_eval(
        w,
        features[pen],
        features[sub],
        sign,
        level,
        spec.estimator,
        spec.logloss_base,
    )
    return value


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
    """
    config.check_against(dataset.n)
    sub, pen, sign, level = _resolved(loss_spec, dataset)
    independent = config.constraint_batch_size is not None
    if independent and config.constraint_batch_size > sub.size:
        raise BatchTooLarge(
            f"constraint_batch_size {config.constraint_batch_size} exceeds "
            f"the constraint subset ({sub.size} samples)"
        )
    X = dataset.features
    n = dataset.n
    pen_mask = np.zeros(n, dtype=bool)
    pen_mask[pen] = True
    sub_mask = np.zeros(n, dtype=bool)
    sub_mask[sub] = True
    n_pen_total = pen.size

    rng = np.random.default_rng(config.seed)
    w = config.init_scale * rng.standard_normal(dataset.dim)
    velocity = np.zeros_like(w)
    full_batch = config.batch_size is None
    queue = np.empty(0, dtype=np.int64)
    cursor = 0
    trace = []
    for t in range(1, config.steps + 1):
        if full_batch:
            pen_batch = pen
        else:
            if cursor + config.batch_size > queue.size:
                queue = rng.permutation(n)
                cursor = 0
            batch = queue[cursor : cursor + config.batch_size]
            cursor += config.batch_size
            pen_batch = batch[pen_mask[batch]]
        if independent:
            drawn = rng.choice(
                sub.size, size=config.constraint_batch_size, replace=False
            )
            sub_batch = sub[drawn]
        elif full_batch:
            sub_batch = sub
        else:
            sub_batch = batch[sub_mask[batch]]
            if sub_batch.size == 0:
                raise ConstraintBatchEmpty(
                    f"step {t}: minibatch of {config.batch_size} missed the "
                    f"constraint subset; set constraint_batch_size to sample "
                    "it independently"
                )
        if pen_batch.size > 0:
            _, _, grad = core_eval(
                w,
                X[pen_batch],
                X[sub_batch],
                sign,
                level,
                loss_spec.estimator,
                loss_spec.logloss_base,
                want_grad=True,
            )
            grad = (n_pen_total / pen_batch.size) * grad
        else:
            grad = np.zeros_like(w)
        if config.weight_decay:
            grad = grad + config.weight_decay * w
        velocity = config.momentum * velocity - config.lr_at(t) * grad
        w = w + velocity
        if t % config.eval_every == 0:
            trace.append(_full_loss(w, X, pen, sub, sign, level, loss_spec))
    if config.steps % config.eval_every != 0:
        trace.append(_full_loss(w, X, pen, sub, sign, level, loss_spec))
    return TrainResult(
        model=LinearModel(w),
        final_train_loss=trace[-1],
        loss_trace=tuple(trace),
        restart_index=0,
        seed_used=config.seed,
    )


def multi_restart_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Best-of-restarts training.

    Restart r runs sgd_train seeded with config.seed + r; the result
    with the lowest full-dataset loss wins, ties going to the lowest
    restart index.
    """
    best = None
    for r in range(config.restarts):
        member = dataclasses.replace(config, seed=config.seed + r, restarts=1)
        result = sgd_train(dataset, loss_spec, member)
        if best is None or result.final_train_loss < best.final_train_loss:
            best = dataclasses.replace(result, restart_index=r)
    return best
