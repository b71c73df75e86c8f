"""Quantile surrogate losses and their fixed-permutation gradients.

Substituting a quantile estimate of the constraint subset's scores for
the decision threshold turns a rate-constrained problem into an
unconstrained sum of loglosses over the penalized side.  Losses are
reported as sums, not means; the optimizer rescales internally.

Gradients flow through the score values only: the estimator's weight
vector depends on the sort permutation, which is held fixed where the
loss is differentiable (subgradient convention at ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, EmptyObjective, InvalidSpec
from .estimators import estimate
from .types import (
    Dataset,
    LinearModel,
    Objective,
    Penalize,
    QuantileEstimatorSpec,
    SurrogateLossSpec,
    constraint_indices,
)


@dataclass(frozen=True)
class LossValue:
    """Summed surrogate loss plus the per-sample summands."""

    value: float
    per_sample: Optional[np.ndarray] = None


def logloss(z: float, base: float = 2.0) -> float:
    """log_base(1 + e^z), overflow-safe for any z."""
    base = float(base)
    if not base > 1.0:
        raise InvalidSpec(f"logloss base must exceed 1, got {base}")
    return float(np.logaddexp(0.0, z) / math.log(base))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so that no
    exponent overflows; e = e^-|z| serves both sides."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _side(spec: SurrogateLossSpec) -> Tuple[int, float]:
    """Penalized label and the sign s in l(s * (f(x) - theta)).

    P_AT_PPR_TP penalizes positives, GENERIC the side its spec names,
    and the other objectives negatives.
    """
    if spec.objective is Objective.P_AT_PPR_TP or (
        spec.objective is Objective.GENERIC
        and spec.penalize is Penalize.POSITIVES
    ):
        return +1, -1.0
    return -1, 1.0


def _times(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X @ w for a vector w, and the (K, n) rows X @ w[k] (X[k] @ w[k]
    for a stack X) for a (K, d) matrix; each row is the 1-d product bit
    for bit, and a lone row over a shared X takes the 1-d product."""
    if w.ndim == 1:
        return X @ w
    if w.shape[0] == 1 and X.ndim == 2:
        return (X @ w[0])[None]
    return np.matmul(X, w[:, :, None])[:, :, 0]


def core_eval(
    w: np.ndarray,
    X_pen: np.ndarray,
    X_sub: np.ndarray,
    sign: float,
    level,
    est_spec: QuantileEstimatorSpec,
    base: float,
    want_grad: bool = False,
    pen_mask: Optional[np.ndarray] = None,
):
    """Loss, or gradient, of one penalized/subset matrix pair.

    w is one model's weight vector, or a (K, d) matrix of K models, one
    per row, with level a scalar or a K-vector of levels; X_pen and
    X_sub are then shared by every row, or (K, p, d) and (K, m, d)
    stacks of each row's own.  Row k of a matrix call equals the 1-d
    call on w[k] and its own matrices at its level bit for bit, the
    estimate that stands in for the threshold included.  pen_mask, 0/1
    per penalized row, drops the rows it zeroes, so a minibatch keeps
    its shape whatever its penalized count.  An empty penalized matrix
    contributes zero; a nonempty subset gives the estimator its scores.
    Returns (value, per_sample, None), or with want_grad (None, None,
    grad); for a matrix, K values, (K, p) summands, (K, d) gradients.
    """
    ln_base = math.log(base)
    if X_sub.shape[-1] != w.shape[-1]:
        raise DimensionError(
            f"feature dim {X_sub.shape[-1]} != weight dim {w.shape[-1]}"
        )
    sub_scores = _times(X_sub, w)
    q = estimate(est_spec, sub_scores.T, level)
    q_weights = q.weights.T  # (m,), or (K, m) with C-ordered rows
    theta = q.value if w.ndim == 1 else q.value[:, None]
    z = sign * (_times(X_pen, w) - theta)
    if want_grad:
        a = _sigmoid(z)
        if pen_mask is not None:
            a = a * pen_mask
        anchor = _times(X_sub.swapaxes(-1, -2), q_weights)
        grad = (sign / ln_base) * (
            _times(X_pen.swapaxes(-1, -2), a)
            - a.sum(axis=-1, keepdims=True) * anchor
        )
        return None, None, grad
    per_sample = _softplus(z) / ln_base
    if pen_mask is not None:
        per_sample = per_sample * pen_mask
    value = per_sample.sum(axis=-1)
    return (float(value) if w.ndim == 1 else value), per_sample, None


def _check_c(c: float, *, open_top: bool) -> float:
    c = float(c)
    hi_ok = c < 1.0 if open_top else c <= 1.0
    if not (0.0 < c and hi_ok):
        top = "1 (exclusive)" if open_top else "1"
        raise InvalidSpec(f"target rate must lie in (0, {top}], got {c}")
    return c


def _resolved(spec: SurrogateLossSpec, dataset: Dataset):
    """(subset idx, penalized idx, sign, level) for a loss spec."""
    sub = constraint_indices(dataset, spec.constraint)
    label, sign = _side(spec)
    pen = np.flatnonzero(dataset.labels == label)
    if pen.size == 0:
        raise EmptyObjective(f"no samples with label {label} to penalize")
    if spec.objective is Objective.P_AT_R:
        _check_c(spec.constraint.target, open_top=False)
    elif spec.objective in (Objective.P_AT_PPR_FP, Objective.P_AT_PPR_TP):
        _check_c(spec.constraint.target, open_top=True)
    return sub, pen, sign, 1.0 - spec.constraint.target


def _dataset_eval(
    weights: np.ndarray,
    dataset: Dataset,
    loss_spec: SurrogateLossSpec,
    want_grad: bool = False,
):
    """core_eval of a loss spec over a whole dataset, for one weight
    vector or a (K, d) matrix of K models at the spec's level."""
    sub, pen, sign, level = _resolved(loss_spec, dataset)
    X = dataset.features
    return core_eval(
        weights, X[pen], X[sub], sign, level, loss_spec.estimator,
        loss_spec.logloss_base, want_grad,
    )


def surrogate_loss(
    model: LinearModel, dataset: Dataset, loss_spec: SurrogateLossSpec
) -> LossValue:
    """The surrogate loss of a spec: logloss summed over the penalized side.

    The threshold stand-in is the spec's estimator at level 1 - target
    over the constraint subset's scores.  p_at_r anchors on the
    positives and penalizes negatives; p_at_ppr_fp / p_at_ppr_tp anchor
    on all samples and penalize negatives / positives; generic anchors
    on its constraint's subset and penalizes the side it names.  The
    exact calibrator handles the at_most tie adjustment after training.
    """
    value, per_sample, _ = _dataset_eval(model.weights, dataset, loss_spec)
    return LossValue(value, per_sample)


def loss_gradient(
    model: LinearModel, dataset: Dataset, loss_spec: SurrogateLossSpec
) -> np.ndarray:
    """Gradient of surrogate_loss in the model weights.

    For penalized set P with sign s this is
    sum_{i in P} sigma(s*(f(x_i) - theta)) * s * (x_i - x_bar) / ln(base)
    with x_bar the estimator's weighted support point over the subset.
    """
    return _dataset_eval(model.weights, dataset, loss_spec, want_grad=True)[2]
