"""Exact evaluation: rates, threshold calibration, precision metrics, PR-AUC.

Everything here uses the strict ">" prediction rule.  A threshold that
must include the minimum score as a positive is therefore placed one
representable float below the minimum (np.nextafter toward -inf), which
is deterministic and documented behaviour rather than an epsilon guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidSpec,
    NoConstraintSubset,
    UncalibratedError,
)
from .estimators import order_rank
from .types import Dataset, Direction, EvalReport, LinearModel, RateConstraint


@dataclass(frozen=True)
class PRPoint:
    """One sampled point of the precision-recall curve."""

    recall_level: float
    precision: float
    threshold: float


def _scores_1d(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise InvalidSpec("scores must be a 1-d array")
    if s.size == 0:
        raise EmptyInput("no scores given")
    if not np.all(np.isfinite(s)):
        raise InvalidSpec("scores must be finite")
    return s


def rate(scores, threshold: float) -> float:
    """Fraction of scores strictly above the threshold."""
    s = _scores_1d(scores)
    return float(np.count_nonzero(s > threshold)) / s.size


def below_min(scores) -> float:
    """Largest representable float strictly below min(scores).

    This is the canonical "predict everything positive" threshold under
    the strict ">" rule.
    """
    s = _scores_1d(scores)
    return float(np.nextafter(np.min(s), -np.inf))


def calibrate_threshold(scores, constraint: RateConstraint) -> float:
    """Threshold satisfying a rate constraint on the given subset scores.

    The candidates are the distinct score values, plus the below-minimum
    threshold (rate 1) for at_least.  A value is feasible when its count
    of scores strictly above it is >= target * n (at_least) or
    <= target * n (at_most).  That count only falls as the value grows,
    so the feasible values form a prefix (at_least) or a suffix
    (at_most) of the distinct values.  at_least returns the last value
    of the prefix, or the below-minimum threshold when the prefix is
    empty.  at_most returns the first value of the suffix, but never
    one below the exact quantile at level 1 - target.  Either way the
    result is the value np.unique keeps for its tied run.

    Parameters
    ----------
    scores : array_like
        Scores of the constraint subset; the caller selects the subset.
    constraint : RateConstraint
        Only direction and target are consulted here.

    Returns
    -------
    float
        A threshold feasible for the constraint on these scores.
    """
    s = _scores_1d(scores)
    c = constraint.target
    n = s.size
    distinct, counts = np.unique(s, return_counts=True)
    below = np.cumsum(counts)
    above = n - below
    if constraint.direction is Direction.AT_LEAST:
        j = int(np.count_nonzero(above >= c * n)) - 1
        if j < 0:
            return float(np.nextafter(distinct[0], -np.inf))
    else:
        # the maximum always qualifies: nothing lies above it
        first = int(np.argmax(above <= c * n))
        start = int(np.searchsorted(below, max(1, order_rank(n, 1.0 - c))))
        j = max(first, start)
    return float(distinct[j])


def evaluate(model: LinearModel, dataset: Dataset) -> EvalReport:
    """Confusion counts of a calibrated model on a dataset.

    recall is reported as 0 when the dataset has no positives;
    precision is None when nothing is predicted positive.
    """
    if model.threshold is None:
        raise UncalibratedError("model has no threshold; calibrate first")
    scores = model.scores(dataset)
    predicted = scores > model.threshold
    actual = dataset.labels == 1
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    tn = int(np.count_nonzero(~predicted & ~actual))
    predicted_n = tp + fp
    precision = tp / predicted_n if predicted_n > 0 else None
    recall = tp / max(1, tp + fn)
    return EvalReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        rate=predicted_n / dataset.n,
        threshold=float(model.threshold),
    )


def precision_at_rate(scores, labels, tau: float) -> float:
    """Precision of the top-scored slice at predicted-positive rate tau.

    The slice size is the grid rounding max{k : k/N <= tau}, floored at
    one sample.  Ties straddling the cut are excluded by the strict ">"
    rule; if that empties the slice entirely (all scores equal), the
    precision is reported as 0.0.
    """
    if not 0.0 < tau <= 1.0:
        raise InvalidSpec(f"tau must lie in (0, 1], got {tau}")
    s = _scores_1d(scores)
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise InvalidSpec("labels must be one per score")
    n = s.size
    m = max(1, order_rank(n, tau))
    if m == n:
        theta = float(np.nextafter(np.min(s), -np.inf))
    else:
        theta = float(np.partition(s, n - m - 1)[n - m - 1])
    predicted = s > theta
    predicted_n = int(np.count_nonzero(predicted))
    if predicted_n == 0:
        return 0.0
    tp = int(np.count_nonzero(predicted & (y == 1)))
    return tp / predicted_n


def precision_at_recall(scores, labels, c: float) -> float:
    """Precision at the threshold calibrated for recall at least c."""
    if not 0.0 < c <= 1.0:
        raise InvalidSpec(f"recall level must lie in (0, 1], got {c}")
    return pr_points(scores, labels, [c])[0].precision


def _pr_point(s, y, positive, c: float) -> PRPoint:
    constraint = RateConstraint("positives", "at_least", c)
    theta = calibrate_threshold(s[positive], constraint)
    predicted = s > theta
    tp = int(np.count_nonzero(predicted & positive))
    predicted_n = int(np.count_nonzero(predicted))
    # recall >= c > 0 on the calibrated side, so the slice is nonempty
    return PRPoint(
        recall_level=float(c),
        precision=tp / predicted_n,
        threshold=float(theta),
    )


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise InvalidSpec("recall grid must be a nonempty 1-d sequence")
    if not (np.all(g > 0.0) and np.all(g <= 1.0)):
        raise InvalidSpec("recall grid values must lie in (0, 1]")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise InvalidSpec("recall grid must be strictly increasing")
    return g


def pr_points(scores, labels, grid: Sequence[float]) -> List[PRPoint]:
    """Precision-recall samples at each recall level of the grid."""
    g = _check_grid(grid)
    s = _scores_1d(scores)
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise InvalidSpec("labels must be one per score")
    positive = y == 1
    if not np.any(positive):
        raise NoConstraintSubset("no positive samples to constrain recall on")
    return [_pr_point(s, y, positive, float(c)) for c in g]


def pr_auc(scores, labels, grid: Sequence[float]) -> float:
    """Riemann sum of the PR curve over the grid cells.

    Each cell [g_{i-1}, g_i] (with g_0 = 0) contributes its width times
    the precision at its right endpoint.
    """
    points = pr_points(scores, labels, grid)
    total = 0.0
    prev = 0.0
    for point in points:
        total += point.precision * (point.recall_level - prev)
        prev = point.recall_level
    return total
