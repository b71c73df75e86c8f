"""Gradient training of linear models on quantile surrogate losses.

Implements minibatch SGD with heavy-ball momentum and weight decay,
where each step takes a sample minibatch and a constraint-subset
minibatch.  The constraint minibatch is either the next slice of the
model's own reshuffled queue over the subset (when
constraint_batch_size is set), by the rule the sample minibatches
follow over the dataset, or the intersection of the sample minibatch
with the subset (when it is full).

Models train in lockstep: one descent loop over a (K, d) weight
matrix, one run per row, makes one stacked core_eval call per step;
a single run is the case K=1, and lockstep_train trains a model's
restarts as its rows and keeps the best.  The rows share the dataset
and every setting of their loss specs and configs, steps and
eval_every among them, but the level (constraint target), the weight
decay and the seed.  A minibatch step takes each row's own batch, a
(K, batch_size, d) stack, with a 0/1 mask of its penalized samples in
place of a gather of ragged size.  The logistic baseline runs on the
same loop, _descend.

Determinism contract, per row: one PCG64 generator seeded from that
row's seed drives, in order, its weight initialization and the
reshuffles of its two queues, the minibatch queue's first in a step
that refills both.  Identical inputs give bitwise identical results,
and a run's weights, loss trace and final loss are bit for bit the
same whether it trains alone or as one row of a lockstep call,
whatever the other rows hold.
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


def _batches(rngs, n: int, size: int):
    """A function of step t giving the rows' (K, size) index batches: row
    k takes the next size entries of rngs[k]'s permutation of range(n),
    and a tail shorter than size is dropped and every row reshuffles, at
    the same step."""
    queue, per_pass = np.empty((len(rngs), n), dtype=int), n // size

    def take(t):
        start = (t - 1) % per_pass * size
        if start == 0:
            # rng.permutation(n) is rng.shuffle of a fresh arange(n)
            queue[:] = np.arange(n)
            for rng, row in zip(rngs, queue):
                rng.shuffle(row)
        return queue[:, start : start + size]

    return take


def _alike(rows, free: Sequence[str], message: str) -> None:
    """Raise InvalidSpec(message) unless the lockstep rows, each a tuple
    of records, agree in every field but those named free; with no rows,
    an InvalidSpec that says so."""
    if not rows:
        raise InvalidSpec("a lockstep call needs at least one model")
    kept = [[dict(vars(r), **dict.fromkeys(free)) for r in row] for row in rows]
    if kept.count(kept[0]) < len(kept):
        raise InvalidSpec(message)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as Diverged
def _descend(configs: Sequence[TrainConfig], rngs, X: np.ndarray, gradient,
             value=None, free=slice(None), tolerance=None):
    """The descent loop of both trainers.  Row k of the (K, d) weights,
    d the width of X, starts at configs[k].init_scale times rngs[k]'s
    first normals; the rows share configs[0]'s steps, eval_every and
    update rule.  Step t adds weight_decay * W in the columns free to
    gradient(t, W) and sets v <- momentum * v - lr_t * g, W <- W + v;
    after each eval_every-th step and the last, the trace takes the
    K-vector value(W).  With a tolerance, a row leaves the loop, its
    weights fixed, after the first step whose 1-d gradient norm is at
    most tolerance, and W and the gradient hold the rows still in it; no
    caller passes value with a tolerance.  Returns the weights and the
    (K, evals) trace; inf or nan weights raise Diverged, as do the
    scores or losses that core_eval refuses as not finite."""
    config = configs[0]
    W = np.stack([c.init_scale * rng.standard_normal(X.shape[1])
                  for c, rng in zip(configs, rngs)])
    decay = np.array([c.weight_decay for c in configs])[:, None]
    # a zero-decay row beside decayed ones adds 0 * w to its gradient,
    # which can only turn a -0.0 entry into +0.0, and the velocity and
    # weight updates treat both zeros alike
    decayed = decay.any()
    velocity, fitted = np.zeros_like(W), np.empty_like(W)
    live, trace, cause = np.arange(len(configs)), [], None
    try:
        for t in range(1, config.steps + 1):
            grad = gradient(t, W)
            if decayed:
                grad[:, free] += decay * W[:, free]
            velocity *= config.momentum
            velocity -= config.lr_at(t) * grad
            W += velocity
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
        # core_eval refuses inf or nan subset scores or values with a
        # plain InvalidSpec, which here means divergence; a subclass is
        # the estimator's own refusal
        if type(exc) is not InvalidSpec:
            raise
        cause = exc
    fitted[live] = W
    if cause is not None or not np.all(np.isfinite(fitted)):
        raise Diverged(f"training diverged by step {t}: "
                       "weights, scores or losses are not finite") from cause
    return fitted, np.transpose(trace)


def _train_rows(dataset: Dataset, models: Sequence[Model]) -> List[TrainResult]:
    """Train each (loss_spec, config) row, one run at config.seed.

    The rows, one or more, must agree on all but the constraint target,
    the weight decay and the seed.  They train in one lockstep loop, and
    a row that overflows raises Diverged for the whole call, at the first
    step any row overflowed.  Minibatch rows with no
    constraint_batch_size train one per loop, in order, since their
    constraint batch, the minibatch's share of the subset, differs in size
    from row to row; the first of them to overflow raises.  A batch larger
    than its data, the dataset or the subset, raises BatchTooLarge.
    """
    _alike([(spec, spec.constraint, cfg) for spec, cfg in models],
           ["constraint", "target", "seed", "weight_decay"],
           "lockstep models may differ only in target, weight_decay, seed "
           "and restarts")
    loss_spec, config = models[0]
    full_batch = config.batch_size is None
    independent = config.constraint_batch_size is not None
    if len(models) > 1 and not (full_batch or independent):
        return [_train_rows(dataset, [m])[0] for m in models]
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
    batches = None if full_batch else _batches(rngs, n, config.batch_size)
    sub_batches = (_batches(rngs, sub.size, config.constraint_batch_size)
                   if independent else None)

    def gradient(t, W):
        if full_batch:
            pen_rows, mask = X_pen, None
        else:
            batch = batches(t)
            # take gathers the (K, b) indices 5x faster than X[batch]
            pen_rows, mask = X.take(batch, axis=0), pen_mask[batch]
        if independent:
            sub_rows = X_sub.take(sub_batches(t), axis=0)
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

    W, traces = _descend(configs, rngs, X, gradient, value)
    return [
        TrainResult(
            model=LinearModel(W[k]),
            final_train_loss=trace[-1],
            loss_trace=tuple(trace),
            restart_index=0,
            seed_used=cfg.seed,
        )
        for k, (cfg, trace) in enumerate(zip(configs, traces.tolist()))
    ]


def lockstep_train(dataset: Dataset, models: Sequence[Model]) -> List[TrainResult]:
    """Train each (loss_spec, config) model as config.restarts rows of one
    _train_rows call, restart r seeded config.seed + r, restarts innermost,
    so the models may differ in restarts too.  Result m is model m's row
    of lowest full-dataset loss, ties going to the lowest r, marked
    restart_index r; each row is bit for bit sgd_train's at its seed."""
    rows = [(spec, dataclasses.replace(cfg, seed=cfg.seed + r, restarts=1))
            for spec, cfg in models for r in range(cfg.restarts)]
    runs = iter(_train_rows(dataset, rows))
    best = [min([next(runs) for _ in range(cfg.restarts)],
                key=lambda run: run.final_train_loss) for _, cfg in models]
    return [dataclasses.replace(run, restart_index=run.seed_used - cfg.seed)
            for run, (_, cfg) in zip(best, models)]


def sgd_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Stochastic gradient descent on a surrogate loss.

    Per step: draw the next batch_size samples of an epoch shuffle (a
    tail shorter than the batch is discarded and a new epoch begins);
    take the constraint minibatch, the next constraint_batch_size
    entries of a second such queue over the subset (reshuffled after
    the first in a step that refills both), or when that size is full,
    the minibatch's share of the subset; take the loss gradient over the
    whole batch with a 0/1 mask of its penalized samples, scaled by
    total-penalized over penalized-in-batch so magnitudes match the
    full objective; then _descend's decay and momentum update.  A batch
    with no penalized samples contributes only its decay term.

    The loss trace records the full-dataset surrogate loss (no decay
    term) after every eval_every-th step and after the final step.
    Weights, scores or losses that overflow to inf or nan raise
    Diverged.  One run at config.seed: restarts is not read.
    """
    return _train_rows(dataset, [(loss_spec, config)])[0]


def multi_restart_train(
    dataset: Dataset, loss_spec: SurrogateLossSpec, config: TrainConfig
) -> TrainResult:
    """Best-of-restarts training: lockstep_train of the one model."""
    return lockstep_train(dataset, [(loss_spec, config)])[0]
