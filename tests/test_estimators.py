"""Quantile estimator tests: hand oracles, tie handling, weight invariants."""

import math

import numpy as np
import pytest

from quantrate import (
    DegenerateInterval,
    EmptyInput,
    InvalidSpec,
    NonpositiveScale,
    QuantileEstimatorSpec,
    estimate,
    exact_quantile,
    order_rank,
)
from quantrate.estimators import row_dots

POINT = QuantileEstimatorSpec(kind="point")
LOWER_MEAN = QuantileEstimatorSpec(kind="lower_mean")


def kernel_spec(h, normalize=True, paper_exact=False):
    return QuantileEstimatorSpec(
        kind="kernel", bandwidth=h, normalize=normalize, paper_exact=paper_exact
    )


def test_order_rank_hand_values():
    assert order_rank(10, 0.39) == 3
    assert order_rank(10, 0.05) == 0
    assert order_rank(10, 1.0) == 10
    assert order_rank(10, 0.0) == 0
    assert order_rank(1, 0.5) == 0
    assert order_rank(1, 1.0) == 1


def test_order_rank_float_boundaries():
    # floor(0.3 * 10) is 2 in floats; the defining comparison must win
    assert order_rank(10, 0.3) == 3
    assert order_rank(3, 1.0 / 3.0) == 1
    assert order_rank(7, 0.7) == 4
    # exact integer ratios hit their own rank for every n
    for n in range(1, 80):
        for k in range(n + 1):
            assert order_rank(n, k / n) == k


def test_order_rank_matches_brute_force():
    # brute oracle: largest k in 1..n with k/n <= c, else 0
    for n in range(1, 61):
        for c in [i / 97 for i in range(98)]:
            brute = 0
            for k in range(1, n + 1):
                if k / n <= c:
                    brute = k
            assert order_rank(n, c) == brute, (n, c)


def test_exact_quantile_hand_values():
    s = list(range(1, 11))
    assert exact_quantile(s, 0.39) == 3.0
    assert exact_quantile(s, 1.0) == 10.0
    assert exact_quantile(s, 0.0) == 1.0
    assert exact_quantile(s, 0.05) == 1.0  # k=0 falls back to the minimum
    assert exact_quantile([7.0], 0.2) == 7.0


def test_exact_quantile_ties_count_multiply():
    assert exact_quantile([1.0, 1.0, 1.0, 4.0], 0.5) == 1.0
    assert exact_quantile([1.0, 1.0, 1.0, 4.0], 0.75) == 1.0
    assert exact_quantile([1.0, 1.0, 1.0, 4.0], 1.0) == 4.0


def test_exact_quantile_input_validation():
    with pytest.raises(EmptyInput):
        exact_quantile([], 0.5)
    with pytest.raises(InvalidSpec):
        exact_quantile([1.0, 2.0], 1.5)
    with pytest.raises(InvalidSpec):
        exact_quantile([1.0, 2.0], -0.1)
    with pytest.raises(InvalidSpec):
        exact_quantile([1.0, float("nan")], 0.5)
    with pytest.raises(InvalidSpec):
        exact_quantile([[1.0, 2.0]], 0.5)


def test_point_value_equals_exact_quantile():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        s = rng.standard_normal(n)
        if rng.random() < 0.4:
            s = np.round(s)  # force ties
        c = float(rng.uniform(0.0, 1.0))
        res = estimate(POINT, s, c)
        assert res.value == exact_quantile(s, c)
        assert np.count_nonzero(res.weights) == 1
        assert res.weights.sum() == 1.0


def test_point_tie_run_lands_on_last_input_position():
    # sorted([5,1,1,1,9]) puts the rank-2 statistic inside the run of 1s;
    # the one-hot weight sits on the run's final input position
    res = estimate(POINT, [5.0, 1.0, 1.0, 1.0, 9.0], 0.4)
    assert res.value == 1.0
    assert list(res.support) == [3]
    assert res.weights[3] == 1.0


def test_kernel_normalized_frozen_value():
    # independent scalar route: softmax of -(i/N - c)^2 / (2 h^2)
    res = estimate(kernel_spec(0.25), [1.0, 2.0, 3.0, 4.0], 0.5)
    assert res.value == pytest.approx(2.115257604344353, abs=1e-12)
    x = [0.25 - 0.5, 0.5 - 0.5, 0.75 - 0.5, 1.0 - 0.5]
    raw = [math.exp(-0.5 * (xi / 0.25) ** 2) for xi in x]
    expected = sum(w * v for w, v in zip(raw, [1.0, 2.0, 3.0, 4.0])) / sum(raw)
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_kernel_normalized_stays_inside_score_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        s = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        c = float(rng.uniform(0.0, 1.0))
        h = float(rng.uniform(0.01, 2.0))
        res = estimate(kernel_spec(h), s, c)
        assert s.min() - 1e-12 <= res.value <= s.max() + 1e-12


def test_kernel_tiny_bandwidth_degrades_to_one_hot():
    res = estimate(kernel_spec(1e-12), [1.0, 2.0, 3.0, 4.0], 0.5)
    assert res.value == 2.0
    assert res.weights[1] == 1.0


def test_kernel_ties_share_the_tie_broken_rank():
    # both 7s carry rank 3/3, equidistant from c, so they split the weight
    res = estimate(kernel_spec(1e-12), [7.0, 7.0, 3.0], 0.9)
    assert res.value == 7.0
    assert res.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert res.weights[1] == pytest.approx(0.5, abs=1e-12)


def test_kernel_paper_exact_frozen_value():
    res = estimate(
        kernel_spec(0.25, normalize=False, paper_exact=True),
        [1.0, 2.0, 3.0, 4.0],
        0.5,
    )
    assert res.value == pytest.approx(1.9817313249321913, abs=1e-12)
    # independent route: Gaussian density over rank gaps, divided by N
    x = [0.25 - 0.5, 0.5 - 0.5, 0.75 - 0.5, 1.0 - 0.5]
    dens = [
        math.exp(-0.5 * (xi / 0.25) ** 2) / (0.25 * math.sqrt(2 * math.pi))
        for xi in x
    ]
    expected = sum(d / 4.0 * v for d, v in zip(dens, [1.0, 2.0, 3.0, 4.0]))
    assert res.value == pytest.approx(expected, abs=1e-12)
    # weights do not sum to 1 by construction
    assert res.weights.sum() == pytest.approx(0.9368746959529074, abs=1e-12)


def test_kernel_spec_validation():
    with pytest.raises(NonpositiveScale):
        QuantileEstimatorSpec(kind="kernel", bandwidth=0.0)
    with pytest.raises(NonpositiveScale):
        QuantileEstimatorSpec(kind="kernel", bandwidth=-1.0)
    with pytest.raises(NonpositiveScale):
        QuantileEstimatorSpec(kind="kernel")
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(
            kind="kernel", bandwidth=0.1, normalize=True, paper_exact=True
        )
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(kind="point", paper_exact=True)


def test_lower_mean_hand_values():
    res = estimate(LOWER_MEAN, [4.0, 2.0, 9.0, 1.0], 0.5)
    assert res.value == 1.5  # mean of the 2 smallest
    assert list(res.support) == [1, 3]
    assert res.weights[1] == 0.5 and res.weights[3] == 0.5
    # c below 1/N falls back to the minimum instead of failing
    assert estimate(LOWER_MEAN, [4.0, 2.0, 9.0, 1.0], 0.01).value == 1.0


def test_lower_mean_matches_sorted_prefix_mean():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        s = rng.standard_normal(n) * 3.0
        c = float(rng.uniform(0.0, 1.0))
        k = max(1, order_rank(n, c))
        expected = float(np.sort(s)[:k].mean())
        assert estimate(LOWER_MEAN, s, c).value == pytest.approx(
            expected, abs=1e-12
        )


def test_interval_hand_values():
    spec = QuantileEstimatorSpec(kind="interval", k1=0.39, k2=0.41)
    s = [float(v) for v in range(1, 11)]
    # window floor(10*.39)+1 .. floor(10*.41) selects the single 4th statistic
    res = estimate(spec, s, 0.5)
    assert res.value == 4.0
    assert list(res.support) == [3]
    spec2 = QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75)
    res2 = estimate(spec2, [float(v) for v in range(1, 9)], 0.5)
    assert res2.value == 4.5  # mean of statistics 3..6
    assert res2.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_interval_ignores_level():
    spec = QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75)
    s = np.arange(12.0)
    assert estimate(spec, s, 0.1).value == estimate(spec, s, 0.9).value


def test_interval_degenerate_window():
    spec = QuantileEstimatorSpec(kind="interval", k1=0.41, k2=0.49)
    # floor(10*.41) == floor(10*.49) == 4: no statistics in the window
    with pytest.raises(DegenerateInterval):
        estimate(spec, [float(v) for v in range(1, 11)], 0.5)


def test_interval_spec_validation():
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(kind="interval", k1=0.5, k2=0.5)
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(kind="interval", k1=0.7, k2=0.3)
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(kind="interval", k1=0.0, k2=0.5)
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(kind="interval", k1=0.5, k2=1.0)
    with pytest.raises(InvalidSpec):
        QuantileEstimatorSpec(kind="interval", k1=0.5)


def test_weights_align_with_input_order():
    rng = np.random.default_rng(17)
    specs = [
        POINT,
        LOWER_MEAN,
        kernel_spec(0.2),
        QuantileEstimatorSpec(kind="interval", k1=0.2, k2=0.8),
    ]
    for i in range(200):
        spec = specs[i % 4]
        n = int(rng.integers(5, 40))
        s = rng.standard_normal(n)
        c = float(rng.uniform(0.0, 1.0))
        res = estimate(spec, s, c)
        assert res.weights.shape == s.shape
        assert float(res.weights @ s) == pytest.approx(res.value, abs=1e-12)
        assert list(res.support) == list(np.flatnonzero(res.weights))
        assert not res.weights.flags.writeable


def test_weights_permute_with_the_input():
    rng = np.random.default_rng(19)
    s = rng.standard_normal(15)  # distinct with probability 1
    perm = rng.permutation(15)
    for spec in (POINT, LOWER_MEAN, kernel_spec(0.3)):
        base = estimate(spec, s, 0.6)
        moved = estimate(spec, s[perm], 0.6)
        assert moved.value == pytest.approx(base.value, abs=1e-12)
        assert np.allclose(moved.weights, base.weights[perm], atol=1e-15)


def test_estimate_rejects_bad_scores():
    with pytest.raises(EmptyInput):
        estimate(POINT, [], 0.5)
    with pytest.raises(InvalidSpec):
        estimate(POINT, [np.inf, 1.0], 0.5)


# -- stable-sort oracles --------------------------------------------------
# References built in the test from np.argsort(kind="stable"): the
# order statistics at sorted ranks lo..hi-1 of a stable sort, with ties
# broken by input position.  The estimators select without sorting and
# must pick exactly these positions.

INTERVAL = QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75)


def _brute_rank(n, c):
    return max((k for k in range(1, n + 1) if k / n <= c), default=0)


def _dense(s, positions, weight):
    w = np.zeros(s.size)
    w[positions] = weight
    return w


def ref_point(s, c):
    order = np.argsort(s, kind="stable")
    j = max(1, _brute_rank(s.size, c)) - 1
    while j + 1 < s.size and s[order[j + 1]] == s[order[j]]:
        j += 1
    return _dense(s, order[j], 1.0)


def ref_lower_mean(s, c):
    k = max(1, _brute_rank(s.size, c))
    return _dense(s, np.argsort(s, kind="stable")[:k], 1.0 / k)


def ref_interval(s, k1, k2):
    lo, hi = math.floor(s.size * k1), math.floor(s.size * k2)
    return _dense(s, np.argsort(s, kind="stable")[lo:hi], 1.0 / (hi - lo))


def ref_exact(s, c):
    ranked = s[np.argsort(s, kind="stable")]
    return float(ranked[max(1, _brute_rank(s.size, c)) - 1])


def assert_matches_oracle(res, s, w):
    assert res.value == float(w @ s)
    assert np.array_equal(res.weights, w)
    assert np.array_equal(res.support, np.flatnonzero(w))


def oracle_cases():
    """(scores, level) pairs: tie-heavy, constant, n=1, and levels at
    exact k/n edges and just beside them."""
    rng = np.random.default_rng(23)
    cases = [(np.array([3.5]), c) for c in (0.0, 0.3, 1.0)]
    for n in (2, 3, 7, 10, 40, 105, 333):
        for kind in ("round", "coarse", "constant", "normal"):
            if kind == "round":
                s = np.round(rng.standard_normal(n))
            elif kind == "coarse":
                s = rng.integers(0, 3, n).astype(float)
            elif kind == "constant":
                s = np.full(n, -1.25)
            else:
                s = rng.standard_normal(n)
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                c = k / n
                cases.append((s, c))
                cases.append((s, float(np.nextafter(c, 2.0)) if c < 1 else c))
                cases.append((s, float(np.nextafter(c, -1.0)) if c > 0 else c))
            cases.append((s, float(rng.uniform())))
    return cases


def test_point_matches_the_stable_sort_oracle():
    for s, c in oracle_cases():
        assert_matches_oracle(estimate(POINT, s, c), s, ref_point(s, c))


def test_lower_mean_matches_the_stable_sort_oracle():
    for s, c in oracle_cases():
        assert_matches_oracle(
            estimate(LOWER_MEAN, s, c), s, ref_lower_mean(s, c)
        )


def test_interval_matches_the_stable_sort_oracle():
    rng = np.random.default_rng(29)
    for s, _ in oracle_cases():
        n = s.size
        windows = [(0.25, 0.75), (0.1, 0.9), (0.5, 0.51)]
        # edges exactly at j/n select whole tied runs or split them
        windows += [(j / n, (j + 1) / n) for j in range(1, n - 1, max(1, n // 4))]
        windows += [tuple(sorted(rng.uniform(0.01, 0.99, 2))) for _ in range(3)]
        for k1, k2 in windows:
            if not 0.0 < k1 < k2 < 1.0:
                continue
            spec = QuantileEstimatorSpec(kind="interval", k1=k1, k2=k2)
            if math.floor(n * k2) <= math.floor(n * k1):
                with pytest.raises(DegenerateInterval):
                    estimate(spec, s, 0.5)
                continue
            assert_matches_oracle(estimate(spec, s, 0.5), s, ref_interval(s, k1, k2))


def test_exact_quantile_matches_the_stable_sort_oracle():
    for s, c in oracle_cases():
        assert exact_quantile(s, c) == ref_exact(s, c)


ALL_SPECS = (
    POINT,
    LOWER_MEAN,
    INTERVAL,
    kernel_spec(0.05),
    kernel_spec(0.3),
    kernel_spec(0.2, normalize=False, paper_exact=True),
    kernel_spec(1e-12),
)


def score_matrices():
    rng = np.random.default_rng(31)
    yield rng.standard_normal((60, 5))
    yield np.round(rng.standard_normal((105, 4)))
    yield rng.integers(0, 3, (40, 3)).astype(float)
    yield np.full((9, 2), 2.5)
    yield rng.standard_normal((4, 1))
    yield np.round(rng.standard_normal((77, 1)), 1)
    yield np.asfortranarray(rng.standard_normal((30, 6)) * 4.0 + 1.0)
    yield rng.standard_normal((50, 8))[::2, 1::2]  # strided view


def test_every_kind_on_a_matrix_agrees_with_its_columns():
    # column j of an (n, K) call is the 1-d call on column j: identical
    # support and weights, values within 1e-12 of the column's scale
    # (lower_mean and interval may add the same terms in another order;
    # point picks the same score and kernel takes the same dot product)
    for spec in ALL_SPECS:
        exact = spec.kind.value in ("point", "kernel")
        for S in score_matrices():
            for c in (0.0, 0.3, 0.5, 2.0 / 3.0, 0.95, 1.0):
                res = estimate(spec, S, c)
                assert res.value.shape == (S.shape[1],)
                assert res.weights.shape == S.shape
                assert not res.weights.flags.writeable
                assert len(res.support) == S.shape[1]
                for j in range(S.shape[1]):
                    one = estimate(spec, S[:, j].copy(), c)
                    scale = max(abs(one.value), float(np.abs(S[:, j]).max()))
                    assert abs(res.value[j] - one.value) <= 1e-12 * scale, (spec, c, j)
                    assert res.value[j] == one.value or not exact
                    assert np.array_equal(res.support[j], one.support)
                    assert not res.support[j].flags.writeable
                    assert np.array_equal(res.weights[:, j], one.weights)


def test_estimate_leaves_its_input_unmodified():
    rng = np.random.default_rng(41)
    for spec in ALL_SPECS:
        for S in (rng.standard_normal((33, 4)), np.round(rng.standard_normal(33))):
            before = S.copy()
            res = estimate(spec, S, 0.6)
            res.weights, res.support  # build the lazy parts too
            assert np.array_equal(S, before)


def test_bad_matrices_raise_as_vectors_do():
    for spec in ALL_SPECS:
        with pytest.raises(EmptyInput):
            estimate(spec, np.zeros((0, 3)), 0.5)
        with pytest.raises(EmptyInput):
            estimate(spec, np.zeros((4, 0)), 0.5)
        for bad in (np.nan, np.inf, -np.inf):
            S = np.ones((5, 3))
            S[2, 1] = bad
            with pytest.raises(InvalidSpec):
                estimate(spec, S, 0.5)
        with pytest.raises(InvalidSpec):
            estimate(spec, np.ones((3, 2, 2)), 0.5)
    with pytest.raises(DegenerateInterval):
        estimate(QuantileEstimatorSpec(kind="interval", k1=0.41, k2=0.49),
                 np.ones((10, 3)), 0.5)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_vector_levels_match_the_scalar_call_on_each_column():
    # one level per column: column j's weights are those of the 1-d call
    # at level c[j], bit for bit; its value is that of the scalar-level
    # call on the same column, and for point and kernel that of the 1-d
    # call; row_dots of the weights gives the 1-d call's value for every
    # kind (lower_mean and interval sum their window on a matrix)
    rng = np.random.default_rng(43)
    for spec in ALL_SPECS:
        exact = spec.kind.value in ("point", "kernel")
        for S in score_matrices():
            K = S.shape[1]
            for c in (rng.random(K), np.linspace(0.0, 1.0, K), np.full(K, 0.5)):
                res = estimate(spec, S, c)
                assert res.value.shape == (K,)
                dots = row_dots(res.weights.T, np.ascontiguousarray(S.T))
                for j in range(K):
                    one = estimate(spec, S[:, j].copy(), c[j])
                    alone = estimate(spec, S[:, [j]], c[j])
                    assert res.weights[:, j].tobytes() == one.weights.tobytes()
                    assert np.array_equal(res.support[j], one.support)
                    assert bits(res.value[j]) == bits(alone.value[0])
                    assert bits(dots[j]) == bits(one.value), (spec, j)
                    assert not exact or res.value[j] == one.value


def test_bad_vector_levels_raise():
    S = np.random.default_rng(47).standard_normal((20, 3))
    for spec in ALL_SPECS:
        if spec.kind.value == "interval":
            continue  # interval ignores its level
        for bad in ([0.5, 0.5], [0.5] * 4, [[0.5] * 3], [0.2, 1.5, 0.3],
                    [0.2, -0.1, 0.3], [0.2, np.nan, 0.3]):
            with pytest.raises(InvalidSpec):
                estimate(spec, S, np.array(bad))
        with pytest.raises(InvalidSpec):
            estimate(spec, S[:, 0], np.array([0.5]))  # a vector has no columns
    interval = estimate(INTERVAL, S, np.array([0.1, 0.5, 0.9]))
    assert np.array_equal(interval.value, estimate(INTERVAL, S, 0.5).value)
