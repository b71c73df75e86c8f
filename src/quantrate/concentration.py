"""Empirical scaling checks for the package's concentration claims.

Three harnesses measure how quantile estimates, surrogate losses, and
SGD solutions behave as the subsample size b grows: deviations should
shrink like O(sqrt(1/b)), i.e. a log-log slope near -0.5.  Trial t at
batch size b draws from its own stream, data.stream(seed, b, t), and
the convex lab seeds trial t at step budget T with data.seed_of(seed,
T, t), so trial order never matters and runs reproduce bitwise.

Reported q95 deviations stand in for the failure probability delta of
the underlying bounds; the bounds' constants are never instantiated.
The sup over models in loss_uniform_deviation is approximated by a
finite sample of weight vectors and labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .data import seed_of, stream
from .errors import BatchTooLarge, ConstraintBatchEmpty, InvalidSpec
from .estimators import _checked, estimate
from .losses import _dataset_eval, _resolved, _row_values
from .train import lockstep_train
from .types import (
    Dataset,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    check_fraction,
    check_seed,
    plain,
    typed,
)

SCORE_LAWS = ("uniform", "gaussian", "constant")

# sub-stream tags, arbitrary fixed primes so streams never collide
_REF_STREAM = 104729
_MODEL_STREAM = 15485863

_REDRAW_CAP = 100

# scores per estimate in estimator_stability, and per loss in
# loss_uniform_deviation: bounds the (n, K) arrays of one call at the
# largest batch sizes
_CHUNK_SCORES = 2**18

# reference candidates per core_eval call; all 6 401 at once doubled RSS
_REF_CHUNK = 50


@dataclass(frozen=True)
class ConcentrationReport:
    """Deviation statistics per batch size plus the fitted decay slope."""

    batch_sizes: Tuple[int, ...]
    mean_abs_dev: Tuple[float, ...]
    q95_abs_dev: Tuple[float, ...]
    fitted_slope: float
    trials: int
    seed: int

    def __post_init__(self):
        _increasing(self.batch_sizes, "batch_sizes")
        if not all(0 <= d < math.inf for d in (*self.mean_abs_dev, *self.q95_abs_dev)):
            raise InvalidSpec("deviations must be nonnegative and finite")

    def to_dict(self) -> dict:
        return plain(self)

    def rows(self) -> list:
        """The CSV table: a header, then one row per batch size."""
        return [("b", "mean_abs_dev", "q95_abs_dev")] + list(
            zip(self.batch_sizes, self.mean_abs_dev, self.q95_abs_dev)
        )


@dataclass(frozen=True)
class ConvexConvergenceReport:
    """Excess loss of SGD solutions against a searched reference model."""

    t_grid: Tuple[int, ...]
    mean_excess: Tuple[float, ...]
    ref_loss: float
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return plain(self)

    def rows(self) -> list:
        """The CSV table: a header, then one row per step budget."""
        return [("t", "mean_excess")] + list(zip(self.t_grid, self.mean_excess))


def _fit_slope(batch_sizes, mean_devs) -> float:
    """Least-squares slope of log(mean dev) against log(b).

    Batch sizes whose mean deviation is 0 carry no log value and are
    excluded; fewer than two usable points give nan.
    """
    b = np.asarray(batch_sizes, dtype=np.float64)
    d = np.asarray(mean_devs, dtype=np.float64)
    mask = d > 0.0
    if np.count_nonzero(mask) < 2:
        return float("nan")
    coeffs = np.polyfit(np.log(b[mask]), np.log(d[mask]), 1)
    return float(coeffs[0])


def _increasing(values, name: str) -> Tuple[int, ...]:
    """The values as positive, strictly increasing integers; otherwise
    InvalidSpec naming the argument and the first rule they break."""
    out = tuple(typed(int, v, name) for v in values)
    if not out or any(v < 1 for v in out):
        raise InvalidSpec(f"{name} must be positive integers")
    if any(y <= x for x, y in zip(out, out[1:])):
        raise InvalidSpec(f"{name} must be strictly increasing")
    return out


def _report(batches, devs, trials: int, seed: int) -> ConcentrationReport:
    """The report of one array of trial deviations per batch size: its
    mean and 95th percentile, and the slope fitted to the means."""
    means = [float(d.mean()) for d in devs]
    return ConcentrationReport(
        batch_sizes=batches,
        mean_abs_dev=tuple(means),
        q95_abs_dev=tuple(float(np.quantile(d, 0.95)) for d in devs),
        fitted_slope=_fit_slope(batches, means),
        trials=trials,
        seed=seed,
    )


def _check_batches(batch_sizes, n: int, trials: int) -> Tuple[int, ...]:
    if typed(int, trials, "trials") < 100:
        raise InvalidSpec(f"at least 100 trials required, got {trials}")
    b = _increasing(batch_sizes, "batch_sizes")
    if b[-1] > n:
        raise BatchTooLarge(f"batch size {b[-1]} exceeds population {n}")
    return b


def _draw_population(score_law: str, n: int, rng) -> np.ndarray:
    """Scores in [-1, 1] under one of the named laws."""
    if score_law == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    if score_law == "gaussian":
        return np.clip(rng.standard_normal(n) / 3.0, -1.0, 1.0)
    if score_law == "constant":
        return np.full(n, 0.3)
    raise InvalidSpec(f"score_law must be one of {SCORE_LAWS}, got {score_law!r}")


def _subsamples(population: np.ndarray, b: int, trials: range, seed: int):
    """(len(trials), b): the row of trial t draws b of the population
    without replacement from its own stream, stream(seed, b, t)."""
    picks = np.empty((len(trials), b), dtype=np.int64)
    for row, t in zip(picks, trials):
        row[:] = stream(seed, b, t).choice(population.size, size=b, replace=False)
    return population[picks]


def estimator_stability(
    n: int,
    batch_sizes: Sequence[int],
    trials: int,
    estimator_spec: QuantileEstimatorSpec,
    c: float,
    score_law: str,
    seed: int,
) -> ConcentrationReport:
    """Quantile-estimate deviation between a population and subsamples.

    Draws one population of n scores from score_law, then for every
    batch size and trial subsamples without replacement and records the
    absolute difference between the population estimate and the
    subsample estimate at level c.  Each estimate covers a chunk of t
    trials, a (b, t) matrix of about _CHUNK_SCORES scores with one trial
    per column, whose values are those of a call on each subsample
    alone.
    """
    seed = check_seed(seed)
    batches = _check_batches(batch_sizes, typed(int, n, "n"), trials)
    rng = np.random.default_rng(seed)
    population = _draw_population(score_law, n, rng)
    q_full = estimate(estimator_spec, population, c).value
    devs = []
    for b in batches:
        estimates = np.empty(trials)
        step = max(1, _CHUNK_SCORES // b)
        for t0 in range(0, trials, step):
            chunk = range(t0, min(t0 + step, trials))
            subsamples = _subsamples(population, b, chunk, seed)
            estimates[t0:chunk.stop] = estimate(
                estimator_spec, subsamples.T, c
            ).value
        devs.append(np.abs(q_full - estimates))
    return _report(batches, devs, trials, seed)


def _model_losses(scores, pen, sub, sign, level, spec) -> np.ndarray:
    """Per-model mean of spec's logloss, at _resolved's sign and level, of
    the penalized rows pen over the quantile of the subset rows sub of the
    (n_samples, n_models) score matrix: core_eval's value path on score
    rows, one call per chunk of models with about _CHUNK_SCORES subset scores."""
    step = max(1, _CHUNK_SCORES // sub.size)
    return np.concatenate([
        _row_values(scores[pen, k : k + step].T,
                    np.ascontiguousarray(scores[sub, k : k + step].T),
                    sign, level, spec.estimator, math.log(spec.logloss_base))[0]
        for k in range(0, scores.shape[1], step)
    ]) / pen.size


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused as not finite
def loss_uniform_deviation(
    dataset: Dataset,
    constraint: RateConstraint,
    estimator_spec: QuantileEstimatorSpec,
    batch_sizes: Sequence[int],
    trials: int,
    w_norm_bound: float,
    n_models: int,
    seed: int,
) -> ConcentrationReport:
    """Worst-case loss deviation over sampled models, full set vs batch.

    Samples n_models weight vectors uniformly from the ball of radius
    w_norm_bound (the bound 0 degenerates to the single zero model) and
    measures, per batch, the largest absolute gap between the full-data
    loss and the subsample loss.  Losses here are means over the
    penalized (negative) side, with the quantile taken over the
    constraint subset at level 1 - target; the subsample's constraint
    subset is its intersection with the full one.  Draws that miss the
    subset or the penalized side entirely are redrawn from the same
    stream (a documented cap guards against degenerate setups).
    """
    seed = check_seed(seed)
    batches = _check_batches(batch_sizes, dataset.n, trials)
    if not 0 <= w_norm_bound < math.inf:
        raise InvalidSpec("w_norm_bound must be nonnegative and finite")
    if typed(int, n_models, "n_models") < 1:
        raise InvalidSpec("n_models must be positive")
    spec = SurrogateLossSpec("generic", constraint, estimator_spec)
    pen_mask = dataset.labels == -1
    if not pen_mask.any():  # before _resolved's EmptyObjective
        raise InvalidSpec("deviation harness penalizes negatives; none present")
    sub, pen, sign, level = _resolved(spec, dataset)

    dim = dataset.dim
    model_rng = stream(seed, _MODEL_STREAM)
    if w_norm_bound == 0.0:
        W = np.zeros((1, dim))
    else:
        raw = model_rng.standard_normal((n_models, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = w_norm_bound * model_rng.random(n_models) ** (1.0 / dim)
        W = raw * radii[:, None]
    scores_by_model = _checked(dataset.features @ W.T)

    sub_mask = np.isin(np.arange(dataset.n), sub)
    full_losses = _model_losses(scores_by_model, pen, sub, sign, level, spec)

    devs = []
    for b in batches:
        dev = np.empty(trials)
        for t in range(trials):
            sub_rng = stream(seed, b, t)
            for _ in range(_REDRAW_CAP):
                idx = sub_rng.choice(dataset.n, size=b, replace=False)
                batch_sub = idx[sub_mask[idx]]
                batch_pen = idx[pen_mask[idx]]
                if batch_sub.size and batch_pen.size:
                    break
            else:
                raise ConstraintBatchEmpty(
                    f"batch size {b} kept missing the constraint subset or "
                    "the penalized side"
                )
            batch_losses = _model_losses(scores_by_model, batch_pen, batch_sub,
                                         sign, level, spec)
            dev[t] = float(np.max(np.abs(full_losses - batch_losses)))
        devs.append(dev)
    return _report(batches, devs, trials, seed)


def _searched_reference(
    dataset: Dataset,
    loss_spec: SurrogateLossSpec,
    radius_hint: float,
    seed: int,
) -> Tuple[np.ndarray, float]:
    """Best model from a dense direction-by-radius search.

    The zero model, then 256 random unit directions times a geometric
    radius grid, direction by direction; returns the (weights, full
    loss) pair minimizing the surrogate loss, ties going to the earliest.
    core_eval takes the candidates as rows, _REF_CHUNK at a time.
    """
    rng = stream(seed, _REF_STREAM)
    dirs = rng.standard_normal((256, dataset.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.geomspace(radius_hint / 100.0, radius_hint * 10.0, 25)
    candidates = np.concatenate([
        np.zeros((1, dataset.dim)),
        (radii[None, :, None] * dirs[:, None, :]).reshape(-1, dataset.dim),
    ])
    losses = np.concatenate([
        _dataset_eval(candidates[i : i + _REF_CHUNK], dataset, loss_spec)[0]
        for i in range(0, len(candidates), _REF_CHUNK)
    ])
    best = int(np.argmin(losses))  # the first of tied minima
    return candidates[best], float(losses[best])


def convex_sgd_convergence(
    dataset: Dataset,
    c: float,
    batch_size: int,
    t_grid: Sequence[int],
    trials: int,
    seed: int,
) -> ConvexConvergenceReport:
    """Excess surrogate loss of SGD against a searched reference.

    Trains with the convex lower-mean estimator on the
    precision-at-recall objective for each step budget in t_grid,
    averaging the gap between the trained model's full-data loss and
    the best loss found by a dense direction/radius search.  Training
    uses step size 0.5/sqrt(t), no momentum, and an independent
    constraint minibatch capped at the positive count.  A step budget's
    trials train as rows of one lockstep_train call, each step on every
    row's own fixed-shape minibatch with a 0/1 mask of its negatives.
    """
    seed = check_seed(seed)
    check_fraction(c, "recall level")
    if typed(int, batch_size, "batch_size") < 1:
        raise InvalidSpec(f"convex lab needs batch_size >= 1, got {batch_size}")
    grid = _increasing(t_grid, "t_grid")
    if typed(int, trials, "trials") < 1:
        raise InvalidSpec("trials must be positive")
    loss_spec = SurrogateLossSpec(
        objective="p_at_r",
        constraint=RateConstraint("positives", "at_least", c),
        estimator=QuantileEstimatorSpec(kind="lower_mean"),
    )
    n_pos = dataset.positive_indices().size
    _, ref_loss = _searched_reference(dataset, loss_spec, 5.0, seed)
    mean_excess = []
    for t_steps in grid:
        models = [
            (loss_spec, TrainConfig(
                learning_rate=0.5,
                steps=t_steps,
                seed=seed_of(seed, t_steps, trial),
                momentum=0.0,
                batch_size=min(batch_size, dataset.n),
                constraint_batch_size=min(batch_size, n_pos),
                eval_every=t_steps,
                lr_decay="inv_sqrt",
            ))
            for trial in range(trials)
        ]
        results = lockstep_train(dataset, models)
        gaps = np.array([r.final_train_loss for r in results]) - ref_loss
        mean_excess.append(float(gaps.mean()))
    return ConvexConvergenceReport(
        t_grid=grid,
        mean_excess=tuple(mean_excess),
        ref_loss=ref_loss,
        trials=trials,
        seed=seed,
    )
