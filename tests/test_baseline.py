"""Logistic baseline tests against an independent optimizer."""

import numpy as np
import pytest
from scipy.optimize import minimize

from quantrate import (
    Dataset,
    LinearModel,
    RateConstraint,
    SingleClass,
    TrainConfig,
    baseline_with_threshold,
    calibrate_threshold,
    logistic_train,
    rate,
)
from quantrate.baseline import with_bias


def separable_free_dataset(seed, n=80, dim=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    w_true = rng.standard_normal(dim)
    margin = X @ w_true + 0.3
    y = np.where(margin + rng.standard_normal(n) * 2.0 > 0, 1, -1)
    if not (y == 1).any():
        y[0] = 1
    if not (y == -1).any():
        y[1] = -1
    return Dataset(X, y)


def fit_config(steps=6000, lr=0.05):
    return TrainConfig(learning_rate=lr, steps=steps, seed=3, momentum=0.9)


def test_fit_matches_an_independent_minimizer():
    d = separable_free_dataset(7)
    wd = 0.7  # keeps the optimum bounded and unique
    model = logistic_train(d, wd, fit_config())
    X_aug = with_bias(d.features)
    y = d.labels.astype(float)

    def objective(w):
        return float(np.logaddexp(0.0, -y * (X_aug @ w)).sum()
                     + 0.5 * wd * (w[:-1] @ w[:-1]))

    ref = minimize(objective, np.zeros(4), method="L-BFGS-B",
                   options={"ftol": 1e-14, "gtol": 1e-12})
    assert ref.success
    assert np.allclose(model.weights, ref.x, atol=1e-4)
    assert objective(model.weights) <= objective(ref.x) + 1e-6


def test_strong_decay_leaves_only_the_prior_bias():
    # the bias is excluded from the penalty, so crushing the feature
    # weights leaves the log-odds of the class prior
    d = separable_free_dataset(11, n=200)
    model = logistic_train(d, 1e4, fit_config(steps=20000, lr=1e-4))
    prior = d.positive_indices().size / d.n
    logit = np.log(prior / (1.0 - prior))
    assert np.abs(model.weights[:-1]).max() < 0.01
    assert model.weights[-1] == pytest.approx(logit, abs=2e-3)


def test_single_class_raises():
    d = Dataset([[1.0], [2.0]], [1, 1])
    with pytest.raises(SingleClass):
        logistic_train(d, 0.1, fit_config(steps=10))


def test_baseline_threshold_is_the_calibrated_one():
    d = separable_free_dataset(13)
    constraint = RateConstraint("positives", "at_least", 0.8)
    model = baseline_with_threshold(d, constraint, 0.5, fit_config())
    pos_scores = with_bias(d.features[d.positive_indices()]) @ model.weights
    assert model.threshold == calibrate_threshold(pos_scores, constraint)
    # the constraint holds on the training subset by construction
    assert rate(pos_scores, model.threshold) >= 0.8


def test_baseline_at_most_constraint_holds():
    d = separable_free_dataset(17)
    constraint = RateConstraint("negatives", "at_most", 0.1)
    model = baseline_with_threshold(d, constraint, 0.5, fit_config())
    neg_scores = with_bias(d.features[d.negative_indices()]) @ model.weights
    assert rate(neg_scores, model.threshold) <= 0.1


def test_fit_is_deterministic():
    d = separable_free_dataset(19)
    m1 = logistic_train(d, 0.3, fit_config(steps=500))
    m2 = logistic_train(d, 0.3, fit_config(steps=500))
    assert np.array_equal(m1.weights, m2.weights)


def test_with_bias_appends_a_constant_column():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    aug = with_bias(X)
    assert aug.shape == (2, 3)
    assert np.array_equal(aug[:, :2], X)
    assert np.all(aug[:, 2] == 1.0)
