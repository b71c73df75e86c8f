"""Maximum-likelihood logistic regression plus threshold adjustment.

The comparison pipeline the quantile method is measured against: fit a
regularized logistic model, then move its decision threshold until the
rate constraint holds.  The bias enters as an appended constant-1
feature; weight decay applies to the feature weights only, so in the
strong-decay limit the bias still carries the class prior.

Fits run as the rows of one (K, d+1) weight matrix, each bit for bit
its fit alone.  Row k freezes after the first step with 1-d norm
float(np.linalg.norm(grad_k)) <= 1e-6; batched norms only pre-filter.
"""

from __future__ import annotations

import numpy as np

from .errors import Diverged, InvalidSpec, SingleClass
from .losses import _sigmoid, _times
from .metrics import calibrate_threshold
from .types import (
    Dataset,
    LinearModel,
    RateConstraint,
    TrainConfig,
    constraint_indices,
)

GRAD_TOLERANCE = 1e-6


def with_bias(features) -> np.ndarray:
    """Append a constant-1 bias column."""
    X = np.asarray(features, dtype=np.float64)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def logistic_objective(
    w: np.ndarray, X_aug: np.ndarray, labels: np.ndarray, weight_decay: float
) -> float:
    """Sum of per-sample loglosses plus the feature-weight decay term."""
    margins = labels * (X_aug @ w)
    penalty = 0.5 * weight_decay * float(w[:-1] @ w[:-1])
    return float(np.logaddexp(0.0, -margins).sum()) + penalty


def logistic_train(
    dataset: Dataset, weight_decay: float, config: TrainConfig
) -> LinearModel:
    """Fit logistic regression by full-batch gradient descent.

    Minimizes logistic_objective: sum_i log(1 + exp(-y_i w.x~_i)) plus
    (weight_decay/2) times the squared norm of the feature weights
    (bias excluded) over bias-augmented inputs x~.  Stops when the full
    gradient norm reaches 1e-6 or after config.steps, and raises
    Diverged when the weights overflow.  The returned model scores
    augmented inputs and carries no threshold.
    """
    return lockstep_logistic_train(dataset, [(weight_decay, config)])[0]


def lockstep_logistic_train(
    dataset: Dataset, fits: list[tuple[float, TrainConfig]]
) -> list[LinearModel]:
    """logistic_train of each (weight_decay, config) pair, configs alike
    but in seed; the first fit in order to overflow raises Diverged."""
    shared = [dict(vars(config), seed=None) for _, config in fits]
    if not fits or shared.count(shared[0]) < len(fits):
        raise InvalidSpec("lockstep logistic fits must differ only in decay and seed")
    if dataset.positive_indices().size == 0 or dataset.negative_indices().size == 0:
        raise SingleClass("logistic regression needs both classes")
    config, X_aug = fits[0][1], with_bias(dataset.features)
    neg_y = -dataset.labels.astype(np.float64)
    dim, decay = X_aug.shape[1], np.array([wd for wd, _ in fits])[:, None]
    W = np.stack([c.init_scale * np.random.default_rng(c.seed).standard_normal(dim)
                  for _, c in fits])
    velocity, fitted = np.zeros_like(W), np.empty_like(W)
    live, last_step = np.arange(len(fits)), np.full(len(fits), config.steps)
    for t in range(1, config.steps + 1):
        # d/ds log(1+e^(-s)) = -sigmoid(-s) at margin s; -s = -y w.x~ exactly
        grad = _times(X_aug.T, neg_y * _sigmoid(neg_y * _times(X_aug, W)))
        grad[:, :-1] += decay * W[:, :-1]
        velocity = config.momentum * velocity - config.lr_at(t) * grad
        W = W + velocity
        # from 2 rows on, one einsum picks the rows to check; 4x covers its rounding
        sq = np.einsum("kd,kd->k", grad, grad).tolist() if live.size > 1 else [0.0]
        stop = [k for k in range(live.size) if sq[k] <= 4 * GRAD_TOLERANCE**2
                and float(np.linalg.norm(grad[k])) <= GRAD_TOLERANCE]
        if stop:
            fitted[live[stop]], last_step[live[stop]] = W[stop], t
            keep = [k for k in range(live.size) if k not in stop]
            live, W, velocity, decay = live[keep], W[keep], velocity[keep], decay[keep]
            if live.size == 0:
                break
    fitted[live] = W
    for w, t in zip(fitted, last_step):
        if not np.all(np.isfinite(w)):
            raise Diverged(f"logistic fit diverged: weights not finite after {t} steps")
    return [LinearModel(w) for w in fitted]


def baseline_with_threshold(
    dataset: Dataset,
    constraint: RateConstraint,
    weight_decay: float,
    config: TrainConfig,
) -> LinearModel:
    """Logistic fit carrying its exactly calibrated threshold.

    The threshold is calibrated on the constraint subset's scores of
    the training data, so the constraint holds there by construction.
    The weights live in the bias-augmented feature space (bias last);
    score inputs with with_bias before comparing against the threshold.
    """
    fitted = logistic_train(dataset, weight_decay, config)
    sub = constraint_indices(dataset, constraint)
    scores = with_bias(dataset.features[sub]) @ fitted.weights
    return LinearModel(fitted.weights, calibrate_threshold(scores, constraint))
