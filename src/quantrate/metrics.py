"""Exact evaluation: rates, threshold calibration, precision metrics, PR-AUC.

Everything here uses the strict ">" prediction rule.  A threshold that
must include the minimum score as a positive is therefore placed one
representable float below the minimum (np.nextafter toward -inf), which
is deterministic and documented behaviour rather than an epsilon guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import InvalidSpec, NoConstraintSubset, UncalibratedError
from .estimators import _checked, order_rank
from .types import (
    Dataset,
    Direction,
    EvalReport,
    LinearModel,
    RateConstraint,
    check_fraction,
)


@dataclass(frozen=True)
class PRPoint:
    """One sampled point of the precision-recall curve."""

    recall_level: float
    precision: float
    threshold: float


def rate(scores, threshold: float) -> float:
    """Fraction of scores strictly above the threshold."""
    s = _checked(scores, vector=True)
    return float(np.count_nonzero(s > threshold)) / s.size


def calibrate_threshold(scores, constraint: RateConstraint) -> float:
    """Threshold satisfying a rate constraint on the given subset scores.

    A value is feasible when rate(scores, value), the count of scores
    strictly above it over n, meets the target: >= target (at_least) or
    <= target (at_most).  That count is an order statistic, so one
    np.partition finds the result.  Let m = order_rank(n, target), the
    most scores that may lie above a feasible at_most value.  at_most
    returns the smallest feasible value: the score at 0-based rank
    n - m - 1, or the minimum when m = n.  at_least needs k = m scores
    above, or m + 1 when m/n < target; it returns the largest feasible
    value: the largest score below the k-th largest one (the maximum
    when k = 0), or one float below the minimum when no score lies
    below it.  A zero result is +0.0.

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
    s = _checked(scores, vector=True)
    n, c = s.size, constraint.target
    m = order_rank(n, c)
    if constraint.direction is Direction.AT_MOST:
        r = max(n - m - 1, 0)
        return float(np.partition(s, r)[r] + 0.0)
    k = m + (m / n < c)
    t = np.partition(s, n - k)[n - k] if k else np.inf
    below = np.max(s, where=s < t, initial=-np.inf)
    return float(below + 0.0 if below > -np.inf else np.nextafter(t, -np.inf))


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
    check_fraction(tau, "tau")
    s = _checked(scores, vector=True)
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise InvalidSpec("labels must be one per score")
    n = s.size
    m = max(1, order_rank(n, tau))
    if m == n:
        theta = float(np.nextafter(np.min(s), -np.inf))
    else:
        theta = float(np.partition(s, n - m - 1)[n - m - 1])
    precision = _precision_above(s, y == 1, theta)
    return 0.0 if precision is None else precision


def _precision_above(s, positive, theta: float) -> Optional[float]:
    """Share of positives among the scores above theta; None when no
    score is above it."""
    predicted = s > theta
    predicted_n = int(np.count_nonzero(predicted))
    if predicted_n == 0:
        return None
    return int(np.count_nonzero(predicted & positive)) / predicted_n


def precision_at_recall(scores, labels, c: float) -> float:
    """Precision at the threshold calibrated for recall at least c."""
    return pr_points(scores, labels, [c])[0].precision


def _pr_point(s, positive, c: float) -> PRPoint:
    constraint = RateConstraint("positives", "at_least", c)
    theta = calibrate_threshold(s[positive], constraint)
    # recall >= c > 0 on the calibrated side, so the slice is nonempty
    return PRPoint(
        recall_level=float(c),
        precision=_precision_above(s, positive, theta),
        threshold=float(theta),
    )


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise InvalidSpec("recall grid must be a nonempty 1-d sequence")
    for value in g:
        check_fraction(value, "recall grid value")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise InvalidSpec("recall grid must be strictly increasing")
    return g


def pr_points(scores, labels, grid: Sequence[float]) -> List[PRPoint]:
    """Precision-recall samples at each recall level of the grid."""
    g = _check_grid(grid)
    s = _checked(scores, vector=True)
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise InvalidSpec("labels must be one per score")
    positive = y == 1
    if not np.any(positive):
        raise NoConstraintSubset("no positive samples to constrain recall on")
    return [_pr_point(s, positive, float(c)) for c in g]


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
