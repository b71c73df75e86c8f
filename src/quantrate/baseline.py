"""Maximum-likelihood logistic regression plus threshold adjustment.

The comparison pipeline the quantile method is measured against: fit a
regularized logistic model, then move its decision threshold until the
rate constraint holds.  The bias enters as an appended constant-1
feature; weight decay applies to the feature weights only, so in the
strong-decay limit the bias still carries the class prior.
"""

from __future__ import annotations

import numpy as np

from .errors import SingleClass
from .losses import _sigmoid
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
    gradient norm reaches 1e-6 or after config.steps.  The returned
    model scores augmented inputs and carries no threshold.
    """
    if dataset.positive_indices().size == 0 or dataset.negative_indices().size == 0:
        raise SingleClass("logistic regression needs both classes")
    X_aug = with_bias(dataset.features)
    y = dataset.labels.astype(np.float64)
    rng = np.random.default_rng(config.seed)
    w = config.init_scale * rng.standard_normal(X_aug.shape[1])
    velocity = np.zeros_like(w)
    for t in range(1, config.steps + 1):
        margins = y * (X_aug @ w)
        # d/ds log(1+e^(-s)) = -sigmoid(-s), s the per-sample margin
        coeffs = -y * _sigmoid(-margins)
        grad = X_aug.T @ coeffs
        grad[:-1] += weight_decay * w[:-1]
        velocity = config.momentum * velocity - config.lr_at(t) * grad
        w = w + velocity
        if float(np.linalg.norm(grad)) <= GRAD_TOLERANCE:
            break
    return LinearModel(w)


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
