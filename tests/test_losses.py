"""Surrogate loss tests: hand-computed oracles, gradients, symmetry."""

import hashlib
import math

import numpy as np
import pytest

from quantrate import (
    Dataset,
    DimensionError,
    EmptyInput,
    EmptyObjective,
    InvalidSpec,
    LinearModel,
    NoConstraintSubset,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    estimate,
    logloss,
    loss_gradient,
    order_rank,
    surrogate_loss,
)
from quantrate.losses import _row_values, _sigmoid, _times, core_eval
from quantrate.losses import _softplus
from simd import by_dispatch

LN2 = math.log(2.0)
POINT = QuantileEstimatorSpec(kind="point")

# four samples at scores 1..4 under w=[1]; positives score low
HAND_X = np.array([[1.0], [2.0], [3.0], [4.0]])
HAND_Y = np.array([1, 1, -1, -1])


def hand_dataset():
    return Dataset(HAND_X, HAND_Y)


def unit_model():
    return LinearModel([1.0])


def loss(model, dataset, objective, c, estimator=POINT, **extra):
    """surrogate_loss of a named objective on its own constraint."""
    subset = "positives" if objective == "p_at_r" else "all"
    spec = SurrogateLossSpec(
        objective=objective,
        constraint=RateConstraint(subset, "at_least", c),
        estimator=estimator,
        **extra,
    )
    return surrogate_loss(model, dataset, spec)


def generic_loss(model, dataset, constraint, penalize):
    spec = SurrogateLossSpec(objective="generic", constraint=constraint,
                             estimator=POINT, penalize=penalize)
    return surrogate_loss(model, dataset, spec)


def random_dataset(rng, n_pos, n_neg, dim):
    X = rng.standard_normal((n_pos + n_neg, dim)) * 2.0
    y = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return Dataset(X, y)


def test_logloss_values():
    assert logloss(0.0) == 1.0
    assert logloss(0.0, math.e) == pytest.approx(math.log(2.0), abs=1e-15)
    assert logloss(2.0) == pytest.approx(math.log(1 + math.e**2) / LN2, abs=1e-12)
    assert logloss(-800.0) == 0.0  # underflows cleanly, never overflows
    assert logloss(800.0) == pytest.approx(800.0 / LN2, rel=1e-12)
    with pytest.raises(InvalidSpec):
        logloss(1.0, base=1.0)


def test_p_at_r_hand_value():
    # recall 0.9 over 2 positives: rank level 0.1 gives the minimum, q=1;
    # negatives at 3 and 4 contribute z=2 and z=3
    v = loss(unit_model(), hand_dataset(), "p_at_r", 0.9)
    expected = (math.log(1 + math.e**2) + math.log(1 + math.e**3)) / LN2
    assert v.value == pytest.approx(expected, abs=1e-12)
    assert v.per_sample.shape == (2,)
    assert v.value == pytest.approx(float(v.per_sample.sum()), abs=1e-12)


def test_p_at_ppr_fp_hand_value():
    # rate 0.5 over all four scores: q = 2nd statistic = 2; z = [1, 2]
    v = loss(unit_model(), hand_dataset(), "p_at_ppr_fp", 0.5)
    expected = (math.log(1 + math.e) + math.log(1 + math.e**2)) / LN2
    assert v.value == pytest.approx(expected, abs=1e-12)


def test_p_at_ppr_tp_hand_value():
    # same q = 2; positives at 1 and 2 enter with flipped sign: z = [1, 0]
    v = loss(unit_model(), hand_dataset(), "p_at_ppr_tp", 0.5)
    expected = (math.log(1 + math.e) + math.log(2.0)) / LN2
    assert v.value == pytest.approx(expected, abs=1e-12)


def test_generic_hand_value_at_most_penalizing_positives():
    # at_most 0.2 on negatives puts the stand-in at level 0.8 over {3,4},
    # the 1st statistic q=3; positives enter with sign -1: z = [2, 1]
    v = generic_loss(
        unit_model(),
        hand_dataset(),
        RateConstraint("negatives", "at_most", 0.2),
        penalize="positives",
    )
    expected = (math.log(1 + math.e**2) + math.log(1 + math.e)) / LN2
    assert v.value == pytest.approx(expected, abs=1e-12)


def test_gradient_hand_value():
    # d/dw of the fp loss at w=1: (1/ln 2)(sum sigma(z_i) x_i - sum sigma * q_x)
    spec = SurrogateLossSpec(
        objective="p_at_ppr_fp",
        constraint=RateConstraint("all", "at_least", 0.5),
        estimator=POINT,
    )
    g = loss_gradient(unit_model(), hand_dataset(), spec)
    sig = lambda t: 1.0 / (1.0 + math.exp(-t))
    a3, a4 = sig(1.0), sig(2.0)
    expected = (1.0 / LN2) * (3.0 * a3 + 4.0 * a4 - (a3 + a4) * 2.0)
    assert g.shape == (1,)
    assert g[0] == pytest.approx(expected, abs=1e-12)


def test_loss_is_a_sum_not_a_mean():
    d = hand_dataset()
    v = loss(unit_model(), d, "p_at_r", 0.9)
    assert v.per_sample.size == d.negative_indices().size
    assert v.value == float(v.per_sample.sum())


def test_base_conversion_scales_the_loss():
    d = hand_dataset()
    v2 = loss(unit_model(), d, "p_at_r", 0.9, logloss_base=2.0)
    v4 = loss(unit_model(), d, "p_at_r", 0.9, logloss_base=4.0)
    assert v4.value == pytest.approx(v2.value / 2.0, rel=1e-12)


def test_level_bounds_per_objective():
    d = hand_dataset()
    m = unit_model()
    # recall form admits c = 1, rate forms do not
    assert loss(m, d, "p_at_r", 1.0).value >= 0.0
    with pytest.raises(InvalidSpec):
        loss(m, d, "p_at_r", 0.0)
    with pytest.raises(InvalidSpec):
        loss(m, d, "p_at_r", 1.1)
    with pytest.raises(InvalidSpec):
        loss(m, d, "p_at_ppr_fp", 1.0)
    with pytest.raises(InvalidSpec):
        loss(m, d, "p_at_ppr_tp", 1.0)
    # a spec checks its own target when it is built, before any data
    with pytest.raises(InvalidSpec, match="target rate"):
        SurrogateLossSpec("p_at_r", RateConstraint("positives", "at_least", 0.0), POINT)
    with pytest.raises(InvalidSpec, match="target rate"):
        SurrogateLossSpec("p_at_ppr_fp", RateConstraint("all", "at_least", 1.0), POINT)


def test_empty_side_errors():
    pos_only = Dataset([[1.0], [2.0]], [1, 1])
    neg_only = Dataset([[1.0], [2.0]], [-1, -1])
    m = unit_model()
    with pytest.raises(NoConstraintSubset):
        loss(m, neg_only, "p_at_r", 0.5)
    with pytest.raises(EmptyObjective):
        loss(m, pos_only, "p_at_r", 0.5)
    with pytest.raises(EmptyObjective):
        loss(m, neg_only, "p_at_ppr_tp", 0.5)
    with pytest.raises(EmptyObjective):
        loss(m, pos_only, "p_at_ppr_fp", 0.5)


def test_spec_validation():
    ok = RateConstraint("positives", "at_least", 0.5)
    with pytest.raises(InvalidSpec):
        SurrogateLossSpec(
            objective="p_at_r",
            constraint=RateConstraint("all", "at_least", 0.5),
            estimator=POINT,
        )
    with pytest.raises(InvalidSpec):
        SurrogateLossSpec(
            objective="p_at_r",
            constraint=RateConstraint("positives", "at_most", 0.5),
            estimator=POINT,
        )
    with pytest.raises(InvalidSpec):
        SurrogateLossSpec(
            objective="p_at_ppr_fp",
            constraint=RateConstraint("negatives", "at_least", 0.5),
            estimator=POINT,
        )
    with pytest.raises(InvalidSpec):
        SurrogateLossSpec(objective="p_at_r", constraint=ok, estimator=POINT,
                          logloss_base=1.0)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        loss(LinearModel([1.0, 2.0]), hand_dataset(), "p_at_r", 0.5)


def test_generic_honors_index_subsets():
    d = hand_dataset()
    m = unit_model()
    # anchoring on rows {2, 3} reproduces the negatives-subset loss exactly
    by_name = generic_loss(
        m, d, RateConstraint("negatives", "at_most", 0.2),
        penalize="positives",
    ).value
    by_index = generic_loss(
        m, d, RateConstraint("indices", "at_most", 0.2, indices=(2, 3)),
        penalize="positives",
    ).value
    assert by_index == by_name


def test_tp_form_mirrors_fp_form_on_negated_data():
    # scoring -X with labels flipped turns missed positives into false
    # positives; matching the mirrored rank makes the two losses equal
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(300):
        n_pos = int(rng.integers(3, 15))
        n_neg = int(rng.integers(3, 15))
        N = n_pos + n_neg
        d = random_dataset(rng, n_pos, n_neg, int(rng.integers(1, 4)))
        c = float(rng.uniform(0.05, 0.95))
        k = max(1, order_rank(N, 1.0 - c))
        w = rng.standard_normal(d.dim)
        if k < 2:
            continue  # the mirrored rate would leave (0, 1)
        c_mirror = 1.0 - (N - k + 1.5) / N  # mid-gap: float-safe rank target
        mirrored = Dataset(-d.features, -d.labels)
        v_tp = loss(LinearModel(w), d, "p_at_ppr_tp", c).value
        v_fp = loss(LinearModel(w), mirrored, "p_at_ppr_fp", c_mirror).value
        assert v_tp == pytest.approx(v_fp, abs=1e-12)
        checked += 1
    assert checked >= 200


def test_gradient_matches_finite_differences_spot():
    rng = np.random.default_rng(31)
    specs = [
        POINT,
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.2),
        QuantileEstimatorSpec(kind="lower_mean"),
        QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
    ]
    done = 0
    while done < 40:
        est = specs[done % 4]
        d = random_dataset(rng, int(rng.integers(5, 12)),
                           int(rng.integers(5, 12)), 3)
        c = float(rng.uniform(0.2, 0.8))
        w = rng.standard_normal(3)
        spec = SurrogateLossSpec(
            objective="p_at_ppr_fp",
            constraint=RateConstraint("all", "at_least", c),
            estimator=est,
        )
        gaps = np.diff(np.sort(d.features @ w))
        if gaps.min() < 1e-4:
            continue  # a sort tie would flip the fixed permutation mid-step
        g = loss_gradient(LinearModel(w), d, spec)
        fd = np.empty(3)
        for j in range(3):
            eps = 1e-6 * max(1.0, abs(w[j]))
            wp = w.copy()
            wp[j] += eps
            wm = w.copy()
            wm[j] -= eps
            fd[j] = (
                surrogate_loss(LinearModel(wp), d, spec).value
                - surrogate_loss(LinearModel(wm), d, spec).value
            ) / (2 * eps)
        assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g))
        done += 1


def test_loss_dominates_violation_count_spot():
    rng = np.random.default_rng(37)
    for i in range(60):
        d = random_dataset(rng, int(rng.integers(4, 12)),
                           int(rng.integers(4, 12)), 2)
        c = float(rng.uniform(0.1, 0.9))
        w = rng.standard_normal(2)
        v = loss(LinearModel(w), d, "p_at_r", c).value
        s = d.features @ w
        q = estimate(POINT, s[d.labels == 1], 1.0 - c).value
        count = int(np.count_nonzero(s[d.labels == -1] > q))
        assert v >= count * logloss(0.0) - 1e-9


# Gradient bytes recorded when the gradient call still computed the
# loss; inputs drawn in this order from default_rng(2024)
GOLDEN_K1 = [
    "0x1.ba3ebb82178cfp+2", "0x1.25b1826498c58p+0",
    "0x1.c3f38ae6035ebp-3", "-0x1.56c3275f73ca9p+0",
]
GOLDEN_K3_MIXED_LEVELS = [
    "0x1.0ae3888cfb2d0p-2", "-0x1.ed3f8c342eefbp-1",
    "-0x1.84263858d65ecp-1", "-0x1.3a2fc0e543050p-2",
    "0x1.f09f1a31fcb0cp-4", "-0x1.bda3d1478d26cp-2",
    "-0x1.783874aa67174p-3", "-0x1.ad9524e360661p-2",
    "0x1.60c2f73e5d8fbp+0", "0x1.65f7238d69459p+2",
    "0x1.996fd1c3fd256p+1", "0x1.768a8e217574cp-2",
]
# the same call on numpy's AVX2 and baseline exp loops (see simd.py)
GOLDEN_K3_MIXED_LEVELS_NO_AVX512 = [
    "0x1.0ae3888cfb2d0p-2", "-0x1.ed3f8c342eefbp-1",
    "-0x1.84263858d65ecp-1", "-0x1.3a2fc0e543050p-2",
    "0x1.f09f1a31fcb04p-4", "-0x1.bda3d1478d268p-2",
    "-0x1.783874aa67178p-3", "-0x1.ad9524e360660p-2",
    "0x1.60c2f73e5d8fbp+0", "0x1.65f7238d69459p+2",
    "0x1.996fd1c3fd256p+1", "0x1.768a8e217574cp-2",
]
GOLDEN_MASKED_MINIBATCH = [
    "0x1.085cbd475e074p+2", "-0x1.7b91721a0eaafp+1",
    "-0x1.85b7fc9a9df01p-3", "-0x1.702c6668bb6d3p+2",
    "0x0.0p+0", "0x0.0p+0",
    "0x0.0p+0", "0x0.0p+0",
    "0x1.16dcf9de8512ap-2", "-0x1.25e53afe9869bp-2",
    "-0x1.72d2ceb89aebep-2", "0x1.46d190ab1e99ap-6",
]
GOLDEN_LOSS_GRADIENT = [
    "-0x1.7060f8d9b46dcp+1", "0x1.5c6f5b97b22efp+1",
    "-0x1.58d8fb6837847p+2", "-0x1.50b338805769dp+2",
]


def hexes(a):
    return [float(x).hex() for x in np.ravel(a)]


def test_gradient_calls_return_golden_bytes_and_no_loss():
    rng = np.random.default_rng(2024)
    X_pen, X_sub = rng.standard_normal((9, 4)), rng.standard_normal((13, 4))
    W = rng.standard_normal((3, 4))
    kernel = QuantileEstimatorSpec(kind="kernel", bandwidth=0.2)
    calls = [
        (core_eval(W[:1], X_pen, X_sub, 1.0, 0.3, kernel, 2.0, want_grad=True),
         GOLDEN_K1),
        (core_eval(W, X_pen, X_sub, -1.0, np.array([0.1, 0.5, 0.85]), kernel,
                   np.e, want_grad=True),
         by_dispatch(GOLDEN_K3_MIXED_LEVELS, GOLDEN_K3_MIXED_LEVELS_NO_AVX512)),
    ]
    # (K, b, d) minibatch stacks, the second row without a penalized sample
    P, S = rng.standard_normal((3, 6, 4)), rng.standard_normal((3, 5, 4))
    mask = np.array([[1, 0, 1, 1, 0, 1], [0] * 6, [1, 1, 0, 0, 0, 1]], dtype=float)
    calls.append((core_eval(W, P, S, 1.0, np.array([0.4, 0.4, 0.7]), POINT, 2.0,
                            want_grad=True, pen_mask=mask),
                  GOLDEN_MASKED_MINIBATCH))
    for (value, per_sample, grad), want in calls:
        assert value is None and per_sample is None
        assert hexes(grad) == want
    X = rng.standard_normal((20, 4))
    y = np.where(rng.random(20) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    spec = SurrogateLossSpec(
        objective="p_at_r",
        constraint=RateConstraint("positives", "at_least", 0.6),
        estimator=QuantileEstimatorSpec(kind="lower_mean"),
    )
    grad = loss_gradient(LinearModel(W[1]), Dataset(X, y), spec)
    assert hexes(grad) == GOLDEN_LOSS_GRADIENT


def test_sigmoid_is_the_two_division_form_bit_for_bit():
    # where(z >= 0, 1, e) / (1 + e) divides the same operands as
    # where(z >= 0, 1 / (1 + e), e / (1 + e)), signed zeros, infinities,
    # nan and subnormals included
    rng = np.random.default_rng(5)
    z = np.concatenate(
        [rng.standard_normal(2000) * s for s in (1e-300, 1e-8, 1.0, 40.0, 800.0)]
        + [[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]]
    )
    e = np.exp(-np.abs(z))
    want = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert _sigmoid(z).tobytes() == want.tobytes()


def test_sigmoid_keeps_the_bits_of_its_where_form():
    # oracle: the numerator as np.where(z >= 0, 1.0, e), a pass that
    # broadcasts the scalar 1.0; C- and F-ordered arguments, left as given
    rng = np.random.default_rng(20)
    special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    for shape in ((7,), (1, 1), (2, 4500), (60, 70), (3, 5, 4), (0, 3)):
        for scale in (1e-8, 1.0, 40.0, 800.0):
            z = rng.standard_normal(shape) * scale
            z.flat[: special.size] = special[: z.size]
            for arg in (z, z.T):
                e = np.exp(-np.abs(arg))
                want = np.where(arg >= 0, 1.0, e) / (1.0 + e)
                kept = arg.copy()
                assert _sigmoid(arg).tobytes() == want.tobytes()
                assert arg.tobytes() == kept.tobytes()


def test_softplus_is_within_4_ulp_of_scalar_libm():
    # an oracle apart from numpy's loops: max(z, 0) + log1p(exp(-|z|))
    # in Python floats, summand by summand
    mags = np.geomspace(1e-3, 1e3, 4001)
    z = np.concatenate([mags, -mags, np.random.default_rng(3).uniform(-40, 40, 4000)])
    want = np.array([max(x, 0.0) + math.log1p(math.exp(-abs(x))) for x in z])
    got = _softplus(z.copy())
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_softplus_special_values_and_in_place():
    z = np.array([0.0, -0.0, 1e-300, -1e-300, -800.0, -np.inf, -1e308,
                  800.0, np.inf, np.nan])
    got = _softplus(z)
    assert got is z
    assert got[:4].tolist() == [math.log(2.0)] * 4
    assert got[4:7].tolist() == [0.0] * 3
    assert got[7:9].tolist() == [800.0, np.inf]
    assert np.isnan(got[9])


def test_logloss_is_the_core_eval_summand_bit_for_bit():
    # one penalized score per margin over a lone subset score of 0, whose
    # point quantile makes the margin the score itself
    rng = np.random.default_rng(47)
    z = np.concatenate([np.geomspace(1e-6, 750.0, 600), rng.standard_normal(400) * 5.0])
    z = np.concatenate([z, -z, [0.0, -0.0, 800.0, -800.0]])
    for base in (2.0, math.e, 10.0):
        _, per_sample, _ = core_eval(np.ones((1, 1)), z[:, None], np.zeros((1, 1)),
                                     1.0, 0.5, POINT, base)
        want = np.array([logloss(x, base) for x in z])
        assert want.tobytes() == per_sample[0].tobytes()


def test_value_calls_drop_masked_rows():
    rng = np.random.default_rng(11)
    W = rng.standard_normal((2, 4))
    P, S = rng.standard_normal((2, 6, 4)), rng.standard_normal((2, 5, 4))
    mask = np.array([[1, 0, 1, 1, 0, 1], [0] * 6], dtype=float)
    value, per_sample, grad = core_eval(W, P, S, 1.0, 0.4, POINT, 2.0, pen_mask=mask)
    _, full, _ = core_eval(W, P, S, 1.0, 0.4, POINT, 2.0)
    assert grad is None
    assert per_sample.tobytes() == (full * mask).tobytes()
    assert value.tobytes() == (full * mask).sum(axis=-1).tobytes()


def test_times_rows_are_the_one_dimensional_product():
    # a lone row takes the 1-d product; more rows take one stacked
    # matmul, each row still the 1-d product bit for bit
    rng = np.random.default_rng(12)
    X, W = rng.standard_normal((105, 35)), rng.standard_normal((3, 35))
    C = rng.standard_normal((3, 105))
    for K in (1, 3):
        rows, back = _times(X, W[:K]), _times(X.T, C[:K])
        assert rows.shape == (K, 105) and back.shape == (K, 35)
        for k in range(K):
            assert rows[k].tobytes() == (X @ W[k]).tobytes()
            assert back[k].tobytes() == (X.T @ C[k]).tobytes()


def test_only_generic_reads_penalize():
    # a named objective fixes its own side, so a penalized side other
    # than the default is an error there, not ignored
    named = (
        ("p_at_r", RateConstraint("positives", "at_least", 0.5)),
        ("p_at_ppr_fp", RateConstraint("all", "at_least", 0.5)),
        ("p_at_ppr_tp", RateConstraint("all", "at_least", 0.5)),
    )
    for objective, constraint in named:
        with pytest.raises(InvalidSpec, match="does not read penalize"):
            SurrogateLossSpec(objective, constraint, POINT, penalize="positives")
        SurrogateLossSpec(objective, constraint, POINT, penalize="negatives")
    generic = RateConstraint("negatives", "at_most", 0.2)
    SurrogateLossSpec("generic", generic, POINT, penalize="positives")


def value_calls():
    """Seeded core_eval value calls for K in {1, 3}, with and without a
    pen_mask, over shared matrices and (K, b, d) stacks, each estimator
    kind, both signs, two bases, and untied and tied scores."""
    rng = np.random.default_rng(2026)
    specs = (
        POINT,
        QuantileEstimatorSpec(kind="lower_mean"),
        QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.2),
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.1, normalize=False),
    )
    for spec in specs:
        for tied in (False, True):
            form = np.round if tied else np.asarray
            X_pen, X_sub = (form(rng.standard_normal(s)) for s in ((9, 4), (13, 4)))
            P, S = (form(rng.standard_normal(s)) for s in ((3, 6, 4), (3, 5, 4)))
            W = rng.standard_normal((3, 4))
            mask = (rng.random((3, 6)) < 0.6) * 1.0
            levels = np.array([0.1, 0.5, 0.85])
            yield W[:1], X_pen, X_sub, 1.0, 0.3, spec, 2.0, None
            yield W[1:2], X_pen, X_sub, -1.0, 0.7, spec, np.e, (rng.random(9) < 0.5) * 1.0
            yield W, X_pen, X_sub, -1.0, levels, spec, np.e, None
            yield W, X_pen, X_sub, 1.0, 0.4, spec, 2.0, (rng.random(9) < 0.5) * 1.0
            yield W[:1], P[:1], S[:1], 1.0, 0.6, spec, 2.0, mask[:1]
            yield W, P, S, 1.0, levels, spec, 2.0, None
            yield W, P, S, -1.0, 0.4, spec, 10.0, mask


def test_value_calls_frozen_bits():
    # sha256 of every value's then summands' bytes over the calls; the
    # value path of training and of the loss-deviation lab is pinned
    digest = hashlib.sha256()
    for w, X_pen, X_sub, sign, level, spec, base, mask in value_calls():
        value, per_sample, grad = core_eval(w, X_pen, X_sub, sign, level, spec,
                                            base, pen_mask=mask)
        assert grad is None
        digest.update(value.tobytes() + per_sample.tobytes())
    assert digest.hexdigest() == by_dispatch(
        "af306c9fd90fc0dc609c7c458e065ddbe43815df87d824f542743b4db5acf86f",
        "790c5d1131e7f4e1c31d06318ef2530e1bd7c8f55ffd9fab85e72103c73223ec",
    )


def test_score_row_values_leave_their_rows_unchanged():
    # the lab hands in gathered rows, a transposed view among them; the
    # entry returns core_eval's bits on matrices that score as those
    # rows, summing C-ordered summands as core_eval does
    rng = np.random.default_rng(2027)
    ln2 = math.log(2.0)
    specs = (POINT, QuantileEstimatorSpec(kind="lower_mean"),
             QuantileEstimatorSpec(kind="interval", k1=0.2, k2=0.6),
             QuantileEstimatorSpec(kind="kernel", bandwidth=0.2))
    for spec in specs:
        for sign in (1.0, -1.0):
            strided = rng.standard_normal((9, 3)).T  # (3, 9), not C-ordered
            sub = np.round(rng.standard_normal((3, 13)) * 2.0)
            mask = (rng.random((3, 9)) < 0.5) * 1.0
            want, want_rows, _ = core_eval(np.ones((3, 1)), strided[:, :, None],
                                           sub[:, :, None], sign, 0.3, spec, 2.0,
                                           pen_mask=mask)
            for pen in (strided, np.ascontiguousarray(strided)):
                kept = pen.copy(), sub.copy()
                value, per_sample = _row_values(pen, sub, sign, 0.3, spec, ln2, mask)
                assert pen.tobytes() == kept[0].tobytes()
                assert sub.tobytes() == kept[1].tobytes()
                assert per_sample.tobytes() == want_rows.tobytes()
            assert value.tobytes() == want.tobytes()


def test_an_empty_subset_matrix_raises_empty_input_on_every_path():
    # the estimator's own faults differed by kind; the shape is read
    # before any of them runs
    specs = [QuantileEstimatorSpec(kind="point"), QuantileEstimatorSpec(kind="lower_mean"),
             QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
             QuantileEstimatorSpec(kind="kernel", bandwidth=0.1)]
    W, X_pen, X_sub = np.ones((2, 3)), np.ones((4, 3)), np.zeros((0, 3))
    for spec in specs:
        for pen, sub in ((X_pen, X_sub), (np.stack([X_pen] * 2), np.stack([X_sub] * 2))):
            for want_grad in (False, True):
                with pytest.raises(EmptyInput) as caught:
                    core_eval(W, pen, sub, 1.0, 0.5, spec, 2.0, want_grad=want_grad)
                assert type(caught.value) is EmptyInput
                assert str(caught.value) == "empty score vector"
