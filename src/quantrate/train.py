"""Gradient training of linear models on quantile surrogate losses.

Implements minibatch SGD with heavy-ball momentum and weight decay,
where each step draws a sample minibatch and a constraint-subset
minibatch.  The constraint minibatch is either drawn independently from
the subset (when constraint_batch_size is set) or taken as the
intersection of the sample minibatch with the subset (when it is full).

Models train in lockstep: one descent loop over a (K, d) weight
matrix, one model per row, makes one stacked core_eval call per step
for all K; a single model is the case K=1.  The rows share the dataset
and every setting of their loss specs and configs but the level
(constraint target), the weight decay and the seed.  A minibatch step
takes each row's own batch, a (K, batch_size, d) stack, with a 0/1
mask of its penalized samples in place of a gather of ragged size.
The logistic baseline runs on the same loop, _descend.

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
from .estimators import row_dots
from .losses import _resolved, core_eval
from .types import (
    Dataset,
    LinearModel,
    SurrogateLossSpec,
    TrainConfig,
    TrainResult,
)

Model = Tuple[SurrogateLossSpec, TrainConfig]


def _alike(rows, free: Sequence[str], message: str) -> None:
    """Raise InvalidSpec(message) unless the lockstep rows, each a tuple
    of records, agree in every field but those named free."""
    kept = [[dict(vars(r), **dict.fromkeys(free)) for r in row] for row in rows]
    if not kept or kept.count(kept[0]) < len(kept):
        raise InvalidSpec(message)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as Diverged
def _descend(configs: Sequence[TrainConfig], rngs, X: np.ndarray, gradient,
             value=None, free=slice(None), tolerance=None):
    """The descent loop of both trainers.  Row k of the (K, d) weights W,
    d the width of X, starts at configs[k].init_scale times rngs[k]'s
    first normals.  Step t adds weight_decay * W in the columns free to
    gradient(t, W) and sets v <- momentum * v - lr_t * g, W <- W + v; the
    trace takes value(W) after each eval_every-th step and the last.  A
    row freezes after the first step whose 1-d gradient norm is at most
    tolerance.  Returns W and the trace; inf or nan weights raise
    Diverged, as do scores X @ W.T that turn inf or nan."""
    config = configs[0]
    W = np.stack([c.init_scale * rng.standard_normal(X.shape[1])
                  for c, rng in zip(configs, rngs)])
    decay = np.array([c.weight_decay for c in configs])[:, None]
    # a zero-decay row beside decayed ones adds 0 * w to its gradient,
    # which can only turn a -0.0 entry into +0.0, and the velocity and
    # weight updates treat both zeros alike
    decayed = decay.any()
    velocity, fitted = np.zeros_like(W), np.empty_like(W)
    live, trace = np.arange(len(configs)), []
    cause = None
    try:
        for t in range(1, config.steps + 1):
            grad = gradient(t, W)
            if decayed:
                grad[:, free] += decay * W[:, free]
            velocity = config.momentum * velocity - config.lr_at(t) * grad
            W = W + velocity
            if value is not None and (t % config.eval_every == 0 or t == config.steps):
                trace.append(value(W))
            if tolerance is not None:
                stop = np.sqrt(row_dots(grad, grad)) <= tolerance
                if stop.any():
                    fitted[live[stop]] = W[stop]
                    live, W, velocity, decay = (a[~stop] for a in (live, W, velocity, decay))
                    if live.size == 0:
                        break
    except InvalidSpec as exc:
        # core_eval raises InvalidSpec on inf or nan subset scores; it
        # means divergence unless the scores under every row are finite
        if np.all(np.isfinite(X @ W.T)):
            raise
        cause = exc
    fitted[live] = W
    if cause is not None or not np.all(np.isfinite(fitted)):
        raise Diverged(
            f"training diverged by step {t}: weights or scores are not finite"
        ) from cause
    return fitted, trace


def lockstep_train(
    dataset: Dataset, models: Sequence[Model]
) -> List[TrainResult]:
    """Train each (loss_spec, config) model; result k is sgd_train's.

    The models, one or more, must agree on all but the constraint target,
    the weight decay and the seed.  They train in one lockstep loop, and a
    model that overflows raises Diverged for the whole call, at the first
    step any row overflowed.  Minibatch models with no
    constraint_batch_size train one per loop, in order, since their
    constraint batch, the minibatch's share of the subset, differs in size
    from row to row; the first of them to overflow raises.  A batch larger
    than its data, the dataset or the subset, raises BatchTooLarge.
    """
    _alike([(spec, spec.constraint, cfg) for spec, cfg in models],
           ["constraint", "target", "seed", "weight_decay", "restarts"],
           "lockstep models may differ only in target, weight_decay and seed")
    loss_spec, config = models[0]
    full_batch = config.batch_size is None
    independent = config.constraint_batch_size is not None
    if len(models) > 1 and not (full_batch or independent):
        return [lockstep_train(dataset, [m])[0] for m in models]
    X, n = dataset.features, dataset.n
    if not full_batch and config.batch_size > n:
        raise BatchTooLarge(f"batch_size {config.batch_size} > n={n}")
    resolved = [_resolved(spec, dataset) for spec, _ in models]
    sub, pen, sign, _ = resolved[0]
    if independent and config.constraint_batch_size > sub.size:
        raise BatchTooLarge(
            f"constraint_batch_size {config.constraint_batch_size} exceeds "
            f"the constraint subset ({sub.size} samples)"
        )
    X_pen, X_sub = X[pen], X[sub]
    pen_mask = np.isin(np.arange(n), pen).astype(float)
    sub_mask = np.isin(np.arange(n), sub)

    configs = [cfg for _, cfg in models]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    level = np.array([r[3] for r in resolved])
    queues = np.empty((len(models), 0), dtype=np.int64)
    cursor = 0

    def gradient(t, W):
        nonlocal queues, cursor
        if full_batch:
            pen_rows, mask = X_pen, None
        else:
            if cursor + config.batch_size > queues.shape[1]:
                queues = np.array([rng.permutation(n) for rng in rngs])
                cursor = 0
            batch = queues[:, cursor : cursor + config.batch_size]
            cursor += config.batch_size
            # take gathers the (K, b) indices 5x faster than X[batch]
            pen_rows, mask = X.take(batch, axis=0), pen_mask[batch]
        if independent:
            drawn = np.array([
                rng.choice(
                    sub.size, size=config.constraint_batch_size,
                    replace=False,
                )
                for rng in rngs
            ])
            sub_rows = X_sub.take(drawn, axis=0)
        elif full_batch:
            sub_rows = X_sub
        else:  # one model: its minibatch's share of the subset
            sub_batch = batch[0][sub_mask[batch[0]]]
            if sub_batch.size == 0:
                raise ConstraintBatchEmpty(
                    f"step {t}: minibatch of {config.batch_size} missed "
                    "the constraint subset; set constraint_batch_size to "
                    "sample it independently"
                )
            sub_rows = X[sub_batch]
        _, _, grad = core_eval(
            W, pen_rows, sub_rows, sign, level, loss_spec.estimator,
            loss_spec.logloss_base, want_grad=True, pen_mask=mask,
        )
        if full_batch:
            return grad
        # a batch with no penalized sample has a zero gradient
        in_batch = np.maximum(mask.sum(axis=1), 1.0)
        return (pen.size / in_batch)[:, None] * grad

    def value(W):
        return core_eval(W, X_pen, X_sub, sign, level, loss_spec.estimator,
                         loss_spec.logloss_base)[0]

    W, trace = _descend(configs, rngs, X, gradient, value)
    traces = np.array(trace)
    return [
        TrainResult(
            model=LinearModel(W[k]),
            final_train_loss=float(traces[-1, k]),
            loss_trace=tuple(traces[:, k].tolist()),
            restart_index=0,
            seed_used=cfg.seed,
        )
        for k, cfg in enumerate(configs)
    ]


def sgd_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Stochastic gradient descent on a surrogate loss.

    Per step: draw the next batch_size samples of an epoch shuffle (a
    tail shorter than the batch is discarded and a new epoch begins);
    build the constraint minibatch; take the loss gradient over the
    whole batch with a 0/1 mask of its penalized samples, scaled by
    total-penalized over penalized-in-batch so magnitudes match the
    full objective; then _descend's decay and momentum update.  A batch
    with no penalized samples contributes only its decay term.

    The loss trace records the full-dataset surrogate loss (no decay
    term) after every eval_every-th step and after the final step.
    Weights or scores that overflow to inf or nan raise Diverged.
    """
    return lockstep_train(dataset, [(loss_spec, config)])[0]


def best_restart(results: Sequence[TrainResult]) -> TrainResult:
    """The result with the lowest final loss, ties going to the lowest
    index, marked as restart that index."""
    r = min(range(len(results)), key=lambda i: results[i].final_train_loss)
    return dataclasses.replace(results[r], restart_index=r)


def restart_models(loss_spec: SurrogateLossSpec, config: TrainConfig) -> List[Model]:
    """The config.restarts single-restart models of a spec; restart r
    adds r to config.seed."""
    return [
        (loss_spec, dataclasses.replace(config, seed=config.seed + r, restarts=1))
        for r in range(config.restarts)
    ]


def multi_restart_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Best-of-restarts training.

    The restart_models train in one lockstep_train call; the result
    with the lowest full-dataset loss wins, ties going to the lowest
    restart index.
    """
    return best_restart(lockstep_train(dataset, restart_models(loss_spec, config)))
