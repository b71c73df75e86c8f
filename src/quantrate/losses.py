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

from .errors import DimensionError, EmptyInput, EmptyObjective, InvalidSpec
from .estimators import _row_weights, row_dots
from .types import (
    Dataset,
    LinearModel,
    Objective,
    Penalize,
    QuantileEstimatorSpec,
    SurrogateLossSpec,
    constraint_indices,
    typed,
)


@dataclass(frozen=True)
class LossValue:
    """Summed surrogate loss plus the per-sample summands."""

    value: float
    per_sample: Optional[np.ndarray] = None


def logloss(z: float, base: float = 2.0) -> float:
    """log_base(1 + e^z), overflow-safe for any z."""
    base = typed(float, base, "base")
    if not 1.0 < base < math.inf:
        raise InvalidSpec(f"logloss base must be finite and exceed 1, got {base}")
    return float(_softplus(np.array([z], dtype=np.float64))[0] / math.log(base))


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) = max(z, 0) + log1p(e^-|z|), overwriting z: logaddexp's
    formula on numpy's vectorized exp and log1p, within 3 ulp of
    np.logaddexp(0, z); its bits depend on numpy's SIMD build."""
    e = np.abs(z)
    np.log1p(np.exp(np.negative(e, out=e), out=e), out=e)
    return np.add(np.maximum(z, 0.0, out=z), e, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so that no
    exponent overflows; e = e^-|z| serves both sides, max(e, z >= 0) is
    the numerator (e <= 1), bit for bit the two-division form."""
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(e, z >= 0)
    return np.divide(out, np.add(e, 1.0, out=e), out=out)


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
    """The (K, n) rows X @ w[k] (X[k] @ w[k] for a stack X) of a (K, d)
    matrix w; each row is the 1-d product bit for bit, and a lone row
    over a shared X takes the 1-d product."""
    if w.shape[0] == 1 and X.ndim == 2:
        return (X @ w[0])[None]
    return np.matmul(X, w[:, :, None])[:, :, 0]


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """a, unless it holds an inf or nan: then the array rule's refusal."""
    if not np.isfinite(a).all():
        raise InvalidSpec(f"{name} must be finite")
    return a


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

    w is a (K, d) matrix of K models, one per row, with level a scalar
    or a K-vector of levels.  X_pen and X_sub are shared by every row,
    or (K, p, d) and (K, m, d) stacks of each row's own.  Row k equals
    the one-row call on w[k:k+1] and its own matrices at its level bit
    for bit, the threshold's estimate included.  pen_mask, 0/1 per
    penalized row, drops the rows it zeroes, so a minibatch keeps its
    shape whatever its penalized count.  An empty penalized matrix
    contributes zero; an empty subset raises EmptyInput, as estimate does.
    Returns (value, per_sample, None), or with want_grad (None, None,
    grad): K values, (K, p) summands, (K, d) gradients.  Levels, a float
    or a float64 K-vector, are checked when a spec is built; core_eval
    checks only that the subset's scores and the values are finite, and
    its InvalidSpec is what training reports as Diverged.
    """
    if X_sub.shape[-1] != w.shape[-1]:
        raise DimensionError(
            f"feature dim {X_sub.shape[-1]} != weight dim {w.shape[-1]}"
        )
    if X_sub.shape[-2] == 0:
        raise EmptyInput("empty score vector")
    sub_rows = _finite(_times(X_sub, w), "scores")
    if not want_grad:
        value, per_sample = _row_values(_times(X_pen, w), sub_rows, sign, level,
                                        est_spec, math.log(base), pen_mask)
        return _finite(value, "losses"), per_sample, None
    q_weights = _row_weights(est_spec, sub_rows, level)  # C-ordered (K, m)
    pen_rows, theta = _times(X_pen, w), row_dots(q_weights, sub_rows)[:, None]
    # sign * (pen - theta) but for a zero's sign, which _sigmoid ignores
    z = pen_rows - theta if sign > 0 else theta - pen_rows
    a = _sigmoid(z)
    if pen_mask is not None:
        a *= pen_mask
    anchor = _times(X_sub.swapaxes(-1, -2), q_weights)
    grad = (sign / math.log(base)) * (
        _times(X_pen.swapaxes(-1, -2), a)
        - a.sum(axis=-1, keepdims=True) * anchor
    )
    return None, None, grad


def _row_values(pen_rows, sub_rows, sign, level, est_spec, ln_base, pen_mask=None):
    """core_eval's value path on score rows: K values and the (K, p)
    summands of (K, p) penalized and finite, C-ordered (K, m) subset
    score rows, which it leaves unchanged; sign is +1 or -1.  The
    weights are freed before the summands are made, in one pass (a zero
    margin may take either sign, which the softplus does not see), and
    worked on in place."""
    theta = row_dots(_row_weights(est_spec, sub_rows, level), sub_rows)[:, None]
    z = _softplus(pen_rows - theta if sign > 0 else theta - pen_rows)
    z /= ln_base
    if pen_mask is not None:
        z *= pen_mask
    return z.sum(axis=-1), z


def _resolved(spec: SurrogateLossSpec, dataset: Dataset):
    """(subset idx, penalized idx, sign, level) for a loss spec."""
    sub = constraint_indices(dataset, spec.constraint)
    label, sign = _side(spec)
    pen = np.flatnonzero(dataset.labels == label)
    if pen.size == 0:
        raise EmptyObjective(f"no samples with label {label} to penalize")
    return sub, pen, sign, 1.0 - spec.constraint.target


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused as not finite
def _dataset_eval(
    weights: np.ndarray,
    dataset: Dataset,
    loss_spec: SurrogateLossSpec,
    want_grad: bool = False,
):
    """core_eval of a loss spec over a whole dataset, for the (K, d)
    weight rows of K models at the spec's level."""
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
    value, per_sample, _ = _dataset_eval(model.weights[None], dataset, loss_spec)
    return LossValue(float(value[0]), per_sample[0])


def loss_gradient(
    model: LinearModel, dataset: Dataset, loss_spec: SurrogateLossSpec
) -> np.ndarray:
    """Gradient of surrogate_loss in the model weights.

    For penalized set P with sign s this is
    sum_{i in P} sigma(s*(f(x_i) - theta)) * s * (x_i - x_bar) / ln(base)
    with x_bar the estimator's weighted support point over the subset.
    """
    return _dataset_eval(model.weights[None], dataset, loss_spec, want_grad=True)[2][0]
