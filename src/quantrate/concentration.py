"""Empirical scaling checks for the package's concentration claims.

Three harnesses measure how quantile estimates, surrogate losses, and
SGD solutions behave as the subsample size b grows: deviations should
shrink like O(sqrt(1/b)), i.e. a log-log slope near -0.5.  Trial t at
batch size b draws from its own stream, data.stream(seed, b, t), and
the convex lab seeds trial t with data.seed_of(seed, max(t_grid), t),
so trial order never matters and runs reproduce bitwise.

Reported q95 deviations stand in for the failure probability delta of
the underlying bounds; the bounds' constants are never instantiated.
The sup over models in loss_uniform_deviation is approximated by a
finite sample of weight vectors and labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .data import seed_of, stream
from .errors import BatchTooLarge, ConstraintBatchEmpty, InvalidSpec
from .estimators import _check_level, _row_weights, estimate, row_dots
from .losses import _dataset_eval, _resolved, _row_values
from .train import lockstep_train
from .types import (
    Dataset,
    EstimatorKind,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    check_fraction,
    check_seed,
    plain,
    typed,
    typed_array,
)

SCORE_LAWS = ("uniform", "gaussian", "constant")

# sub-stream tags, arbitrary fixed primes so streams never collide
_REF_STREAM = 104729
_MODEL_STREAM = 15485863

_REDRAW_CAP = 100

# scores per _row_weights call in estimator_stability, and per loss in
# loss_uniform_deviation: bounds the (K, n) arrays of one call at the
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
    fitted_slope: Optional[float]
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
    """Excess loss of SGD solutions against a searched reference model,
    per step budget, plus the fitted decay slope."""

    t_grid: Tuple[int, ...]
    mean_excess: Tuple[float, ...]
    ref_loss: float
    fitted_slope: Optional[float]
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return plain(self)

    def rows(self) -> list:
        """The CSV table: a header, then one row per step budget."""
        return [("t", "mean_excess")] + list(zip(self.t_grid, self.mean_excess))


def _fit_slope(batch_sizes, mean_devs) -> Optional[float]:
    """Least-squares slope of log(mean dev) against log(b).

    Batch sizes (or step budgets) whose mean is not positive carry no
    log value and are excluded; fewer than two usable points give None.
    """
    b = np.asarray(batch_sizes, dtype=np.float64)
    d = np.asarray(mean_devs, dtype=np.float64)
    mask = d > 0.0
    if np.count_nonzero(mask) < 2:
        return None
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


def _draw(n: int, b: int, t: int, seed: int, masks=()):
    """Trial t's draw of b of range(n) without replacement, from its own
    stream, stream(seed, b, t), and the share of each boolean n-mask in
    it.  While a share is empty the trial draws again from that stream;
    after _REDRAW_CAP draws it raises ConstraintBatchEmpty."""
    rng = stream(seed, b, t)
    for _ in range(_REDRAW_CAP):
        idx = rng.choice(n, size=b, replace=False)
        shares = [idx[mask[idx]] for mask in masks]
        if all(share.size for share in shares):
            return idx, shares
    raise ConstraintBatchEmpty(
        f"batch size {b} kept missing the constraint subset or the penalized side"
    )


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
    subsample estimate at level c.  The subsamples of a chunk of t
    trials, about _CHUNK_SCORES scores, are weighed at once as the (t, b)
    rows of one _row_weights call, whose values are those of estimate
    on each subsample alone.
    """
    seed = check_seed(seed)
    batches = _check_batches(batch_sizes, typed(int, n, "n"), trials)
    rng = np.random.default_rng(seed)
    population = _draw_population(score_law, n, rng)
    q_full = estimate(estimator_spec, population, c).value
    if estimator_spec.kind is not EstimatorKind.INTERVAL:
        c = _check_level(c)  # a float, as estimate reads it
    devs = []
    for b in batches:
        estimates = np.empty(trials)
        step = max(1, _CHUNK_SCORES // b)
        for t0 in range(0, trials, step):
            chunk = range(t0, min(t0 + step, trials))
            subsamples = population[[_draw(n, b, t, seed)[0] for t in chunk]]
            estimates[t0:chunk.stop] = row_dots(
                _row_weights(estimator_spec, subsamples, c), subsamples
            )
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
    w_norm_bound = typed(float, w_norm_bound, "w_norm_bound")
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
    scores_by_model = typed_array(dataset.features @ W.T, "scores")

    sub_mask = np.isin(np.arange(dataset.n), sub)
    full_losses = _model_losses(scores_by_model, pen, sub, sign, level, spec)

    devs = []
    for b in batches:
        dev = np.empty(trials)
        for t in range(trials):
            _, (batch_sub, batch_pen) = _draw(dataset.n, b, t, seed,
                                              (sub_mask, pen_mask))
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
    the best loss found by a dense direction/radius search, and fits
    the log-log slope of the mean gap against t.  Training steps
    0.5/(|P| sqrt(t)) on the summed loss, P the penalized negatives, so
    0.5/sqrt(t) on the mean loss, with no momentum; each step takes the
    next slice of the model's reshuffled queue over the positives as
    its constraint minibatch, capped at the positive count.  Neither
    the step size nor a run's draws depend on its budget, so a T-step
    run is the first T steps of a longer one at the same seed: each
    trial trains once, as a row of one lockstep_train call, for
    max(t_grid) steps, and budget T reads its loss off the row's trace,
    evaluated every gcd(t_grid) steps: max(t_grid) / gcd(t_grid)
    full-data value calls per row, 16 on the preset, max(t_grid) on a
    coprime grid.
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
    sub, pen, _, _ = _resolved(loss_spec, dataset)
    _, ref_loss = _searched_reference(dataset, loss_spec, 5.0, seed)
    every = math.gcd(*grid)
    models = [
        (loss_spec, TrainConfig(
            learning_rate=0.5 / pen.size,
            steps=grid[-1],
            seed=seed_of(seed, grid[-1], trial),
            momentum=0.0,
            batch_size=min(batch_size, dataset.n),
            constraint_batch_size=min(batch_size, sub.size),
            eval_every=every,
            lr_decay="inv_sqrt",
        ))
        for trial in range(trials)
    ]
    traces = np.array([r.loss_trace for r in lockstep_train(dataset, models)])
    # (trials, budgets): each trial's loss after T steps, for each T
    gaps = traces[:, [t // every - 1 for t in grid]] - ref_loss
    mean_excess = [float(column.mean()) for column in gaps.T]
    return ConvexConvergenceReport(
        t_grid=grid,
        mean_excess=tuple(mean_excess),
        ref_loss=ref_loss,
        fitted_slope=_fit_slope(grid, mean_excess),
        trials=trials,
        seed=seed,
    )
