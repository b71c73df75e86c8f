"""Empirical scaling checks for the package's concentration claims.

Three harnesses measure how quantile estimates, surrogate losses, and
SGD solutions behave as the subsample size b grows: deviations should
shrink like O(sqrt(1/b)), i.e. a log-log slope near -0.5.  Each trial
owns a sub-seed derived from (seed, batch size, trial index), so trial
order never matters and runs reproduce bitwise.

Reported q95 deviations stand in for the failure probability delta of
the underlying bounds; the bounds' constants are never instantiated.
The sup over models in loss_uniform_deviation is approximated by a
finite sample of weight vectors and labeled as such.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import BatchTooLarge, ConstraintBatchEmpty, InvalidSpec
from .estimators import estimate, row_dots
from .losses import surrogate_loss
from .train import sgd_train
from .types import (
    Dataset,
    LinearModel,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    constraint_indices,
)

SCORE_LAWS = ("uniform", "gaussian", "constant")

# sub-stream tags, arbitrary fixed primes so streams never collide
_REF_STREAM = 104729
_MODEL_STREAM = 15485863

_REDRAW_CAP = 100

_LN2 = float(np.log(2.0))


def _plain(report) -> dict:
    """A report's fields as a dict, tuples as lists."""
    return {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in asdict(report).items()
    }


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
        b = np.asarray(self.batch_sizes)
        if b.size == 0 or (b.size > 1 and not np.all(np.diff(b) > 0)):
            raise InvalidSpec("batch_sizes must be nonempty strictly increasing")
        if any(d < 0 for d in self.mean_abs_dev) or any(
            d < 0 for d in self.q95_abs_dev
        ):
            raise InvalidSpec("deviations must be nonnegative")

    def to_dict(self) -> dict:
        return _plain(self)


@dataclass(frozen=True)
class ConvexConvergenceReport:
    """Excess loss of SGD solutions against a searched reference model."""

    t_grid: Tuple[int, ...]
    mean_excess: Tuple[float, ...]
    ref_loss: float
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return _plain(self)


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


def _check_batches(batch_sizes, n: int) -> Tuple[int, ...]:
    b = tuple(int(v) for v in batch_sizes)
    if not b or any(v < 1 for v in b):
        raise InvalidSpec("batch sizes must be positive integers")
    if len(b) > 1 and any(y <= x for x, y in zip(b, b[1:])):
        raise InvalidSpec("batch sizes must be strictly increasing")
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


def _subsamples(population: np.ndarray, b: int, trials: int, seed: int):
    """(trials, b): row t draws b of the population without replacement
    from its own stream, SeedSequence((seed, b, t))."""
    picks = np.empty((trials, b), dtype=np.int64)
    for t in range(trials):
        sub_rng = np.random.default_rng(np.random.SeedSequence((seed, b, t)))
        picks[t] = sub_rng.choice(population.size, size=b, replace=False)
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
    subsample estimate at level c.  One estimate per batch size covers
    every trial, a (b, trials) matrix with one trial per column; each
    trial's estimate is its weights times its scores, as a call on that
    subsample alone computes it.
    """
    if trials < 100:
        raise InvalidSpec(f"at least 100 trials required, got {trials}")
    batches = _check_batches(batch_sizes, n)
    rng = np.random.default_rng(seed)
    population = _draw_population(score_law, n, rng)
    q_full = estimate(estimator_spec, population, c).value
    means = []
    q95s = []
    for b in batches:
        subsamples = _subsamples(population, b, trials, seed)
        q = estimate(estimator_spec, subsamples.T, c)
        devs = np.abs(q_full - row_dots(q.weights.T, subsamples))
        means.append(float(devs.mean()))
        q95s.append(float(np.quantile(devs, 0.95)))
    return ConcentrationReport(
        batch_sizes=batches,
        mean_abs_dev=tuple(means),
        q95_abs_dev=tuple(q95s),
        fitted_slope=_fit_slope(batches, means),
        trials=trials,
        seed=seed,
    )


def _mean_losses(
    scores_by_model: np.ndarray,
    pen_rows: np.ndarray,
    sub_rows: np.ndarray,
    estimator_spec: QuantileEstimatorSpec,
    level: float,
) -> np.ndarray:
    """Per-model mean logloss of the penalized rows over the subset quantile.

    scores_by_model is the (n_samples, n_models) score matrix; rows are
    selected by position.  One estimate covers every model.  The
    gathered subset is freed before the penalized rows are gathered, and
    the loss is taken in place, so one gathered copy is alive at a time.
    """
    q = estimate(estimator_spec, scores_by_model[sub_rows], level).value
    z = scores_by_model[pen_rows]
    z -= q
    np.logaddexp(0.0, z, out=z)
    return z.mean(axis=0) / _LN2


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
    if trials < 100:
        raise InvalidSpec(f"at least 100 trials required, got {trials}")
    if w_norm_bound < 0:
        raise InvalidSpec("w_norm_bound must be nonnegative")
    if n_models < 1:
        raise InvalidSpec("n_models must be positive")
    batches = _check_batches(batch_sizes, dataset.n)
    sub = constraint_indices(dataset, constraint)
    pen = dataset.negative_indices()
    if pen.size == 0:
        raise InvalidSpec("deviation harness penalizes negatives; none present")
    level = 1.0 - constraint.target

    dim = dataset.dim
    model_rng = np.random.default_rng(
        np.random.SeedSequence((seed, _MODEL_STREAM))
    )
    if w_norm_bound == 0.0:
        W = np.zeros((1, dim))
    else:
        raw = model_rng.standard_normal((n_models, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = w_norm_bound * model_rng.random(n_models) ** (1.0 / dim)
        W = raw * radii[:, None]
    scores_by_model = dataset.features @ W.T

    sub_mask = np.zeros(dataset.n, dtype=bool)
    sub_mask[sub] = True
    pen_mask = np.zeros(dataset.n, dtype=bool)
    pen_mask[pen] = True
    full_losses = _mean_losses(scores_by_model, pen, sub, estimator_spec, level)

    means = []
    q95s = []
    for b in batches:
        devs = np.empty(trials)
        for t in range(trials):
            sub_rng = np.random.default_rng(np.random.SeedSequence((seed, b, t)))
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
            batch_losses = _mean_losses(
                scores_by_model, batch_pen, batch_sub, estimator_spec, level
            )
            devs[t] = float(np.max(np.abs(full_losses - batch_losses)))
        means.append(float(devs.mean()))
        q95s.append(float(np.quantile(devs, 0.95)))
    return ConcentrationReport(
        batch_sizes=batches,
        mean_abs_dev=tuple(means),
        q95_abs_dev=tuple(q95s),
        fitted_slope=_fit_slope(batches, means),
        trials=trials,
        seed=seed,
    )


def _searched_reference(
    dataset: Dataset,
    loss_spec: SurrogateLossSpec,
    radius_hint: float,
    seed: int,
) -> Tuple[np.ndarray, float]:
    """Best model from a dense direction-by-radius search.

    256 random unit directions times a geometric radius grid; returns
    the (weights, full loss) pair minimizing the surrogate loss.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, _REF_STREAM)))
    dirs = rng.standard_normal((256, dataset.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.geomspace(radius_hint / 100.0, radius_hint * 10.0, 25)
    best_w = np.zeros(dataset.dim)
    best_loss = surrogate_loss(LinearModel(best_w), dataset, loss_spec).value
    for d in dirs:
        for r in radii:
            w = r * d
            value = surrogate_loss(LinearModel(w), dataset, loss_spec).value
            if value < best_loss:
                best_loss = value
                best_w = w
    return best_w, best_loss


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
    constraint minibatch capped at the positive count.
    """
    if not 0.0 < c <= 1.0:
        raise InvalidSpec(f"recall level must lie in (0, 1], got {c}")
    grid = tuple(int(t) for t in t_grid)
    if not grid or any(t < 1 for t in grid):
        raise InvalidSpec("t_grid must hold positive step counts")
    if len(grid) > 1 and any(y <= x for x, y in zip(grid, grid[1:])):
        raise InvalidSpec("t_grid must be strictly increasing")
    if trials < 1:
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
        gaps = np.empty(trials)
        for trial in range(trials):
            run_seed = int(
                np.random.SeedSequence((seed, t_steps, trial)).generate_state(1)[0]
            )
            config = TrainConfig(
                learning_rate=0.5,
                steps=t_steps,
                seed=run_seed,
                momentum=0.0,
                batch_size=min(batch_size, dataset.n),
                constraint_batch_size=min(batch_size, n_pos),
                eval_every=t_steps,
                lr_decay="inv_sqrt",
            )
            result = sgd_train(dataset, loss_spec, config)
            gaps[trial] = result.final_train_loss - ref_loss
        mean_excess.append(float(gaps.mean()))
    return ConvexConvergenceReport(
        t_grid=grid,
        mean_excess=tuple(mean_excess),
        ref_loss=ref_loss,
        trials=trials,
        seed=seed,
    )
