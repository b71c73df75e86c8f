"""Quantile estimator tests: hand oracles, tie handling, weight invariants."""

import hashlib
import math
import os
import subprocess
import sys

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
from quantrate.estimators import _row_weights, _sorted_table, row_dots
from quantrate.losses import core_eval
from simd import by_dispatch

POINT = QuantileEstimatorSpec(kind="point")
LOWER_MEAN = QuantileEstimatorSpec(kind="lower_mean")


def kernel_spec(h, normalize=True):
    return QuantileEstimatorSpec(kind="kernel", bandwidth=h, normalize=normalize)


def test_order_rank_hand_values():
    assert order_rank(10, 0.39) == 3
    assert order_rank(10, 0.05) == 0
    assert order_rank(10, 1.0) == 10
    assert order_rank(10, 0.0) == 0
    assert order_rank(1, 0.5) == 0
    assert order_rank(1, 1.0) == 1


def test_order_rank_float_boundaries():
    # 0.29 * 100 is 28.999999999999996 in floats, so floor(c * n) would
    # give 28; the defining comparison 29/100 <= 0.29 must win
    assert order_rank(100, 0.29) == 29
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
        kernel_spec(0.25, normalize=False),
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
    # a parameter the kind does not read is an error, not ignored
    for params, unread in (
        ({"kind": "point", "bandwidth": 0.1}, "bandwidth"),
        ({"kind": "lower_mean", "normalize": False}, "normalize"),
        ({"kind": "kernel", "bandwidth": 0.1, "k1": 0.25}, "k1"),
        ({"kind": "point", "k2": 0.75}, "k2"),
    ):
        with pytest.raises(InvalidSpec, match=rf"does not read \['{unread}'\]"):
            QuantileEstimatorSpec(**params)


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
    # the largest k with k/10 <= .39 is 3 and with k/10 <= .41 is 4, so
    # the window selects the single 4th statistic
    res = estimate(spec, s, 0.5)
    assert res.value == 4.0
    assert list(res.support) == [3]
    spec2 = QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75)
    res2 = estimate(spec2, [float(v) for v in range(1, 9)], 0.5)
    assert res2.value == 4.5  # mean of statistics 3..6
    assert res2.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_interval_window_edges_follow_the_literal_rule():
    # 0.29 * 100 rounds below 29, but 29/100 <= 0.29 holds
    s = np.arange(100.0)
    lo = max(k for k in range(101) if k / 100 <= 0.29)
    hi = max(k for k in range(101) if k / 100 <= 0.5)
    assert (lo, hi) == (29, 50)
    res = estimate(QuantileEstimatorSpec(kind="interval", k1=0.29, k2=0.5), s, 0.5)
    assert list(res.support) == list(range(lo, hi))
    assert res.value == 39.0


def test_interval_ignores_level():
    spec = QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75)
    s = np.arange(12.0)
    assert estimate(spec, s, 0.1).value == estimate(spec, s, 0.9).value


def test_interval_degenerate_window():
    spec = QuantileEstimatorSpec(kind="interval", k1=0.41, k2=0.49)
    # the largest k with k/10 <= .41 and with k/10 <= .49 is 4 both times:
    # no statistics in the window
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
    lo, hi = _brute_rank(s.size, k1), _brute_rank(s.size, k2)
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
            if _brute_rank(n, k2) <= _brute_rank(n, k1):
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
    kernel_spec(0.2, normalize=False),
    kernel_spec(1e-12),
)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


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
    yield rng.standard_normal((105, 60))  # no ties: the kernel's table
    mixed = rng.standard_normal((48, 6))
    mixed[:, 1::2] = np.round(mixed[:, 1::2])  # ties in every other column
    yield mixed


def column_rows(spec, S, c):
    """The values and (K, n) weights of the K columns of (n, K) scores S
    as the C-ordered rows of one _row_weights call at level c, a float or
    one per row, summed by row_dots."""
    rows = np.ascontiguousarray(S.T)
    w = _row_weights(spec, rows, c)
    return row_dots(w, rows), w


def test_every_kind_on_a_matrix_agrees_with_its_columns():
    # row j of a call on the columns of an (n, K) matrix is estimate on
    # column j: identical weights and value, bit for bit, for every kind
    for spec in ALL_SPECS:
        for S in score_matrices():
            for c in (0.0, 0.3, 0.5, 2.0 / 3.0, 0.95, 1.0):
                values, w = column_rows(spec, S, c)
                assert values.shape == (S.shape[1],)
                assert w.shape == S.T.shape
                for j in range(S.shape[1]):
                    one = estimate(spec, S[:, j].copy(), c)
                    assert bits(values[j]) == bits(one.value), (spec, c, j)
                    assert not one.weights.flags.writeable
                    assert not one.support.flags.writeable
                    assert np.array_equal(w[j], one.weights)


def test_estimate_leaves_its_input_unmodified():
    rng = np.random.default_rng(41)
    for spec in ALL_SPECS:
        rows, s = rng.standard_normal((4, 33)), np.round(rng.standard_normal(33))
        before = rows.copy(), s.copy()
        _row_weights(spec, rows, 0.6)
        estimate(spec, s, 0.6)
        assert np.array_equal(rows, before[0])
        assert np.array_equal(s, before[1])


def test_bad_matrices_raise_as_vectors_do():
    # estimate refuses any 2-d score array; a stack of score rows reaches
    # the estimators through core_eval, which refuses nonfinite scores and
    # a window that selects nothing as estimate does for one vector
    W = np.ones((3, 2))
    for spec in ALL_SPECS:
        for S in (np.ones((5, 3)), np.zeros((0, 3)), np.zeros((4, 0)),
                  np.ones((3, 2, 2))):
            with pytest.raises(InvalidSpec, match="scores must be a 1-d array"):
                estimate(spec, S, 0.5)
        with pytest.raises(EmptyInput):
            estimate(spec, np.zeros(0), 0.5)
        for bad in (np.nan, np.inf, -np.inf):
            X = np.ones((5, 2))
            X[2, 1] = bad
            with pytest.raises(InvalidSpec):
                estimate(spec, X @ W[0], 0.5)
            with pytest.raises(InvalidSpec, match="scores must be finite"):
                core_eval(W, X, X, 1.0, 0.5, spec, 2.0)
    degenerate = QuantileEstimatorSpec(kind="interval", k1=0.41, k2=0.49)
    with pytest.raises(DegenerateInterval):
        estimate(degenerate, np.ones(10), 0.5)
    with pytest.raises(DegenerateInterval):
        core_eval(W, np.ones((4, 2)), np.ones((10, 2)), 1.0, 0.5, degenerate, 2.0)


def test_bad_vector_levels_raise():
    # estimate takes one level: an array of levels is refused, as is a
    # level outside [0, 1]; interval ignores its level
    s = np.random.default_rng(47).standard_normal(20)
    for spec in ALL_SPECS:
        if spec.kind.value == "interval":
            continue  # interval ignores its level
        for bad in ([0.5], [0.5, 0.5], [[0.5] * 3], [0.2, np.nan, 0.3]):
            with pytest.raises(InvalidSpec, match="quantile level must be a number"):
                estimate(spec, s, np.array(bad))
            with pytest.raises(InvalidSpec, match="quantile level must be a number"):
                estimate(spec, s, bad)
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(InvalidSpec):
                estimate(spec, s, bad)
    interval = estimate(INTERVAL, s, np.array([0.1, 0.5, 0.9]))
    assert interval.value == estimate(INTERVAL, s, 0.5).value


def test_vector_levels_match_the_scalar_call_on_each_column():
    # one level per row: row j's weights and value are those of estimate
    # on column j at level c[j] and of the scalar-level call on that
    # column alone, bit for bit, for every kind
    rng = np.random.default_rng(43)
    for spec in ALL_SPECS:
        for S in score_matrices():
            K = S.shape[1]
            # the last levels differ but share one rank
            for c in (rng.random(K), np.linspace(0.0, 1.0, K), np.full(K, 0.5),
                      0.5 + 1e-9 * np.arange(K)):
                values, w = column_rows(spec, S, c)
                assert values.shape == (K,)
                for j in range(K):
                    one = estimate(spec, S[:, j].copy(), c[j])
                    alone = column_rows(spec, S[:, [j]], c[j])[0]
                    assert w[j].tobytes() == one.weights.tobytes()
                    assert bits(values[j]) == bits(alone[0])
                    assert bits(values[j]) == bits(one.value), (spec, j)


def ref_kernel_untied(S, c, h, normalize):
    """Kernel weights of (n, K) scores with no ties, column by column in
    scalar arithmetic: rank r_i from a stable argsort, x_i = r_i/n - c,
    and phi_h(x_i) / n, or normalized, exp(-(x_i^2 - min x^2) / (2h^2))
    over its sum (phi_h(x_i) / sum phi_h, free of underflow)."""
    n, K = S.shape
    W = np.empty((n, K))
    for j in range(K):
        cj = float(c[j]) if np.ndim(c) else c
        ranks = np.empty(n)
        ranks[np.argsort(S[:, j], kind="stable")] = np.arange(1, n + 1)
        x = [r / n - cj for r in ranks]
        if normalize:
            x2min = min(xi * xi for xi in x)
            u = [math.exp(-(xi * xi - x2min) / (2 * h * h)) for xi in x]
            W[:, j] = [ui / math.fsum(u) for ui in u]
        else:
            W[:, j] = [
                math.exp(-xi * xi / (2 * h * h)) / (h * math.sqrt(2 * math.pi)) / n
                for xi in x
            ]
    return W


def test_untied_kernel_weights_match_the_rank_formula():
    rng = np.random.default_rng(59)
    for n, K in ((105, 6), (17, 3), (1, 2)):
        S = rng.standard_normal((n, K))
        for normalize in (True, False):
            for h in (1e-4, 0.05):
                for c in (0.0, 1.0, rng.random(K)):
                    _, w = column_rows(kernel_spec(h, normalize), S, c)
                    ref = ref_kernel_untied(S, c, h, normalize)
                    np.testing.assert_allclose(w.T, ref, rtol=1e-12, atol=1e-12)


def kernel_calls():
    """Seeded kernel calls that interleave two bandwidths, two sizes,
    both normalize values and a scalar and a vector level: untied, then
    tied, then untied again, so the last round repeats the first
    round's table keys."""
    rng = np.random.default_rng(61)
    for tied in (False, True, False):
        for n in (40, 105):
            for h in (0.05, 0.2):
                for normalize in (True, False):
                    for c in (0.3, np.array([0.1, 0.5, 0.9])):
                        S = rng.standard_normal((n, 3))
                        yield kernel_spec(h, normalize), np.round(S) if tied else S, c


def test_kernel_calls_frozen_bits():
    # sha256 of every value's then (n, K) weights' bytes over the calls:
    # a table keyed or computed differently from the rank formula shows
    digest = hashlib.sha256()
    for spec, S, c in kernel_calls():
        values, w = column_rows(spec, S, c)
        digest.update(values.tobytes() + w.T.tobytes())
    assert digest.hexdigest() == by_dispatch(
        "28a3c0c634c9e6968fd8bca64268a4c11c4bbf26dd859db62c2e90607cb11721",
        "3cd20b92c4700d69eaba1f56c176526365454b3a59d1c862ccb92f9290c6b3a2",
    )


def test_kernel_weights_are_read_only_and_not_shared():
    S = np.random.default_rng(67).standard_normal((30, 4))
    for c in (0.4, np.array([0.2, 0.4, 0.6, 0.8])):
        first, second = (column_rows(kernel_spec(0.1), S, c)[1] for _ in range(2))
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)
        for j in range(4):
            one, again = (estimate(kernel_spec(0.1), S[:, j].copy(), 0.4)
                          for _ in range(2))
            with pytest.raises(ValueError):
                one.weights[0] = 1.0
            assert not np.shares_memory(one.weights, again.weights)


def test_a_scalar_level_keeps_one_table_whatever_k():
    # a scalar level keys one n-weight table that a lone vector and all
    # 60 rows of a stack share; a level broadcast to K rows would key a
    # second, 60n-weight table (past the size limit at this n)
    n, spec = 2000, kernel_spec(0.05)
    S = np.random.default_rng(73).standard_normal((n, 60))
    _sorted_table.cache_clear()
    alone = estimate(spec, S[:, 7].copy(), 0.3)
    together = column_rows(spec, S, 0.3)[1]
    info = _sorted_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert _sorted_table(n, np.float64(0.3).tobytes(), 0.05, True).shape == (1, n)
    assert together[7].tobytes() == alone.weights.tobytes()


THREAD_SCRIPT = """
import numpy as np
from quantrate import QuantileEstimatorSpec, estimate
from quantrate.estimators import row_dots
rng = np.random.default_rng(79)
for n in (10_001, 20_000):
    a, b = rng.standard_normal((2, 3, n))
    print([float(v).hex() for v in row_dots(a, b)])
spec = QuantileEstimatorSpec(kind="kernel", bandwidth=0.05)
print(float(estimate(spec, rng.standard_normal(20_000), 0.3).value).hex())
"""


def test_long_row_dots_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10 000 terms across its
    # threads, which sums in another order; row_dots' blocks never do
    outputs = [
        subprocess.run(
            [sys.executable, "-c", THREAD_SCRIPT], capture_output=True, text=True,
            check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0].count("\n") == 3
    assert outputs[0] == outputs[1]


def test_row_dots_of_short_rows_are_the_one_dimensional_dots():
    rng = np.random.default_rng(83)
    for n in (1, 105, 8192):
        a, b = rng.standard_normal((2, 4, n))
        got = row_dots(a, b)
        for k in range(4):
            assert got[k].tobytes() == np.float64(a[k] @ b[k]).tobytes()
