"""Maximum-likelihood logistic regression plus threshold adjustment.

The comparison pipeline the quantile method is measured against: fit a
regularized logistic model, then move its decision threshold until the
rate constraint holds.  The bias enters as an appended constant-1
feature; weight decay applies to the feature weights only, so in the
strong-decay limit the bias still carries the class prior.

Fits run on the trainer's descent loop, train._descend, as the rows of
one (K, d+1) weight matrix, each bit for bit its fit alone; a row
freezes once its gradient norm is at most 1e-6.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import SingleClass
from .losses import _sigmoid, _softplus, _times
from .metrics import calibrate_threshold
from .train import _alike, _descend
from .types import (
    Dataset,
    LinearModel,
    RateConstraint,
    TrainConfig,
    constraint_indices,
)


def with_bias(features) -> np.ndarray:
    """Append a constant-1 bias column."""
    return np.hstack([features, np.ones((len(features), 1))])


def logistic_objective(
    w: np.ndarray, X_aug: np.ndarray, labels: np.ndarray, weight_decay: float
) -> float:
    """Sum of per-sample loglosses plus the feature-weight decay term."""
    margins = labels * (X_aug @ w)
    penalty = 0.5 * weight_decay * float(w[:-1] @ w[:-1])
    return float(_softplus(-margins).sum()) + penalty


def logistic_train(
    dataset: Dataset, weight_decay: float, config: TrainConfig
) -> LinearModel:
    """Fit logistic regression by full-batch gradient descent.

    Minimizes logistic_objective: sum_i log(1 + exp(-y_i w.x~_i)) plus
    (weight_decay/2) times the squared norm of the feature weights
    (bias excluded) over bias-augmented inputs x~, on train._descend
    with the 1e-6 gradient-norm stop.  The returned model scores augmented
    inputs and carries no threshold.
    """
    return lockstep_logistic_train(dataset, [(weight_decay, config)])[0]


def lockstep_logistic_train(
    dataset: Dataset, fits: list[tuple[float, TrainConfig]]
) -> list[LinearModel]:
    """logistic_train of each (weight_decay, config) pair, configs alike but
    in seed, each at its decay, as the rows of one descent loop."""
    configs = [replace(config, weight_decay=wd) for wd, config in fits]
    _alike([(c,) for c in configs], ["seed", "weight_decay"],
           "lockstep logistic fits must differ only in decay and seed")
    if dataset.positive_indices().size == 0 or dataset.negative_indices().size == 0:
        raise SingleClass("logistic regression needs both classes")
    X_aug = with_bias(dataset.features)
    neg_y = -dataset.labels.astype(np.float64)

    def gradient(t, W):
        # d/ds log(1+e^(-s)) = -sigmoid(-s) at margin s; -s = -y w.x~ exactly
        return _times(X_aug.T, neg_y * _sigmoid(neg_y * _times(X_aug, W)))

    rngs = [np.random.default_rng(c.seed) for c in configs]
    W, _ = _descend(configs, rngs, X_aug, gradient, free=slice(None, -1),
                    tolerance=1e-6)
    return [LinearModel(w) for w in W]


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
    scores = fitted.scores(with_bias(dataset.features[sub]))
    return LinearModel(fitted.weights, calibrate_threshold(scores, constraint))
