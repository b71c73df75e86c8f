"""Logistic baseline tests against an independent optimizer."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from quantrate import (
    Dataset,
    Diverged,
    InvalidSpec,
    LinearModel,
    RateConstraint,
    SingleClass,
    TrainConfig,
    baseline_with_threshold,
    calibrate_threshold,
    logistic_train,
    rate,
)
from quantrate import baseline, losses
from quantrate.baseline import lockstep_logistic_train, with_bias
from quantrate.estimators import row_dots
from simd import by_dispatch


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


def test_overflowing_fit_raises_diverged():
    d = separable_free_dataset(7)
    with pytest.raises(Diverged):
        logistic_train(d, 0.7, fit_config(steps=50, lr=1e308))


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


def hexes(weights):
    return [float(x).hex() for x in weights]


# (decay, seed) rows on separable_free_dataset(7) at 306 steps, and the
# weights logistic_train gave each alone before fits ran in lockstep:
# the decay-0, 0.7 and 5 rows reach the gradient tolerance at steps
# 302, 299 and 303, the decay-30 row runs all 306
STOP_FITS = [(0.0, 3), (30.0, 4), (0.7, 5), (5.0, 6)]
STOP_WEIGHTS = [
    ["-0x1.cc59930e3398fp-1", "0x1.1d119c0e6ecaep+0",
     "0x1.b3fbefdb2a77ep-1", "0x1.8ef65523ea11fp-2"],
    ["-0x1.cac506b6289acp-3", "0x1.e8bdb14e0be63p-3",
     "0x1.02cfde964f9c8p-3", "0x1.7869facd4a678p-2"],
    ["-0x1.9e012cebc6804p-1", "0x1.f8ed7d0d9bc1ap-1",
     "0x1.78b611b2070fcp-1", "0x1.8210c8dcb05abp-2"],
    ["-0x1.190586e6ad241p-1", "0x1.44214f3fb6e59p-1",
     "0x1.b449fcff475f3p-2", "0x1.6bb080c7e5e73p-2"],
]

# the same fits on numpy's AVX2 and baseline exp loops (see simd.py)
STOP_WEIGHTS_NO_AVX512 = [
    ["-0x1.cc59930e3398cp-1", "0x1.1d119c0e6ecafp+0",
     "0x1.b3fbefdb2a77dp-1", "0x1.8ef65523ea120p-2"],
    ["-0x1.cac506b6289a4p-3", "0x1.e8bdb14e0be5fp-3",
     "0x1.02cfde964f9c6p-3", "0x1.7869facd4a676p-2"],
    ["-0x1.9e012cebc6805p-1", "0x1.f8ed7d0d9bc1cp-1",
     "0x1.78b611b2070fcp-1", "0x1.8210c8dcb05a9p-2"],
    ["-0x1.190586e6ad240p-1", "0x1.44214f3fb6e59p-1",
     "0x1.b449fcff475f7p-2", "0x1.6bb080c7e5e72p-2"],
]


def test_lockstep_rows_equal_their_one_by_one_fits():
    d = separable_free_dataset(7)
    fits = [(wd, replace(fit_config(steps=306), seed=s)) for wd, s in STOP_FITS]
    stop_weights = by_dispatch(STOP_WEIGHTS, STOP_WEIGHTS_NO_AVX512)
    models = lockstep_logistic_train(d, fits)
    assert [hexes(m.weights) for m in models] == stop_weights
    reversed_models = lockstep_logistic_train(d, fits[::-1])
    assert [hexes(m.weights) for m in reversed_models] == stop_weights[::-1]
    for (wd, config), want in zip(fits, stop_weights):
        assert hexes(logistic_train(d, wd, config).weights) == want


# A positive sample x and a negative one at 0: at init_scale 1e-30 the
# first gradient is -x/2 in the features and 0 in the bias, with a norm
# within an ulp of the 1e-6 tolerance.  Under numpy 2.4.6 and its
# OpenBLAS the 1-d norm reads 1e-06 for the first x, so both rows stop
# at step 1, and 1.0000000000000002e-06 for the second, so they stop at
# step 2; an axis=1 norm rounds each the other way.  The weights are those of
# one-by-one logistic_train fits recorded before fits ran in lockstep.
NEAR_TOLERANCE = [
    (
        ["-0x1.d817b4e8e6738p-22", "-0x1.e778c09deedcep-20", "0x1.7f0004e41f665p-21"],
        [
            ["-0x1.79ac90ba51f60p-27", "-0x1.85fa33b18be3fp-25",
             "0x1.32666a50191ebp-26", "-0x1.7080e82e0c21cp-101"],
            ["-0x1.79ac90ba51f60p-27", "-0x1.85fa33b18be3fp-25",
             "0x1.32666a50191ebp-26", "0x1.abcfb48ed53dap-101"],
        ],
    ),
    (
        ["0x1.8fbfa90e70af7p-20", "0x1.79a8d301375d1p-21", "0x1.3096e33c95258p-20"],
        [
            ["0x1.cbb6026a34c10p-24", "0x1.b24ef2a7cc6f8p-25",
             "0x1.5e471eec11e47p-24", "-0x1.68cccccccccd0p-50"],
            ["0x1.cfb55db497292p-24", "0x1.b615c190c54f2p-25",
             "0x1.6152dea26f8b4p-24", "-0x1.68ccccccccccap-50"],
        ],
    ),
]


@pytest.mark.parametrize("point, want", NEAR_TOLERANCE)
def test_the_stop_rule_is_each_rows_1d_norm(point, want):
    X = np.array([[float.fromhex(h) for h in point], [0.0, 0.0, 0.0]])
    base = TrainConfig(learning_rate=0.05, steps=40, seed=0, momentum=0.9,
                       init_scale=1e-30)
    fits = [(0.5, replace(base, seed=3)), (0.0, replace(base, seed=4))]
    models = lockstep_logistic_train(Dataset(X, [1, -1]), fits)
    assert [hexes(m.weights) for m in models] == want


def test_lockstep_overflow_raises_diverged_as_a_fit_alone_does():
    d = separable_free_dataset(7)
    message = "training diverged by step 50: weights or scores are not finite"
    huge_lr = fit_config(steps=50, lr=1e308)
    with pytest.raises(Diverged, match=message):
        lockstep_logistic_train(d, [(0.7, huge_lr), (0.0, replace(huge_lr, seed=4))])
    # a decay of 1e308 overflows alone; the decay-0.1 row stays finite
    config = fit_config(steps=50)
    with pytest.raises(Diverged, match=message):
        logistic_train(d, 1e308, config)
    with pytest.raises(Diverged, match=message):
        lockstep_logistic_train(d, [(0.1, replace(config, seed=4)), (1e308, config)])


def test_lockstep_fits_may_differ_only_in_decay_and_seed():
    d = separable_free_dataset(7)
    config = fit_config(steps=10)
    for change in (dict(steps=11), dict(momentum=0.5)):
        with pytest.raises(InvalidSpec):
            lockstep_logistic_train(d, [(0.1, config), (0.2, replace(config, **change))])
    with pytest.raises(InvalidSpec):
        lockstep_logistic_train(d, [])


def test_a_logistic_fit_computes_no_loss(monkeypatch):
    # the shared descent loop takes a loss trace only for a caller that
    # passes one; a logistic fit passes none, so no step takes the softplus
    calls = []
    for module in (losses, baseline):
        monkeypatch.setattr(module, "_softplus", lambda z: calls.append(z.shape))
    d = separable_free_dataset(7)
    fits = [(wd, replace(fit_config(steps=40), seed=s)) for wd, s in STOP_FITS]
    lockstep_logistic_train(d, fits)
    logistic_train(d, 0.7, fit_config(steps=40))
    assert calls == []


def test_row_dot_norms_are_the_one_dimensional_norms():
    # the stop rule's sqrt(row_dots(G, G)) is each row's
    # float(np.linalg.norm(g)) bit for bit, for stacked gradients laid
    # out as the fit computes them and for plain C-ordered rows
    rng = np.random.default_rng(71)
    for K in (1, 2, 5, 60):
        for d in (1, 3, 35, 79):
            for scale in (1e-300, 1e-12, 1e-6, 1.0, 1e3, 1e150):
                A, B = rng.standard_normal((d, 9)), rng.standard_normal((K, 9))
                stacked = np.matmul(A, B[:, :, None])[:, :, 0] * scale
                for G in (rng.standard_normal((K, d)) * scale, stacked):
                    got = np.sqrt(row_dots(G, G))
                    want = [float(np.linalg.norm(g)) for g in G]
                    assert got.tobytes() == np.array(want).tobytes()
