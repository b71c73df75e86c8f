"""Threshold calibration and evaluation metric tests."""

import itertools

import numpy as np
import pytest

from quantrate import (
    Dataset,
    InvalidSpec,
    LinearModel,
    NoConstraintSubset,
    RateConstraint,
    UncalibratedError,
    calibrate_threshold,
    evaluate,
    exact_quantile,
    pr_auc,
    pr_points,
    precision_at_rate,
    precision_at_recall,
    rate,
)


def at_least(c):
    return RateConstraint("positives", "at_least", c)


def at_most(c):
    return RateConstraint("negatives", "at_most", c)


def largest_k(n, c):
    """max{k : k/n <= c}, by scanning every k."""
    return max(k for k in range(n + 1) if k / n <= c)


def draw_scores(rng, lo=1, hi=26):
    n = int(rng.integers(lo, hi))
    s = rng.standard_normal(n) * 2.0
    ties = rng.random(n) < 0.3
    s[ties] = np.round(s[ties], 1)  # injects repeated values
    return s


def test_rate_is_strict():
    s = [1.0, 2.0, 3.0]
    assert rate(s, 2.0) == pytest.approx(1.0 / 3.0)
    assert rate(s, 0.0) == 1.0
    assert rate(s, 3.0) == 0.0
    assert rate(s, 2.9999) == pytest.approx(1.0 / 3.0)


def test_calibrate_at_least_hand_values():
    s = np.arange(1.0, 11.0)
    assert calibrate_threshold(s, at_least(0.3)) == 7.0
    # ties force the scan below the raw quantile
    assert calibrate_threshold([1.0, 3.0, 3.0, 3.0], at_least(0.5)) == 1.0
    # only the below-minimum threshold reaches rate 1
    theta = calibrate_threshold(s, at_least(1.0))
    assert theta == np.nextafter(1.0, -np.inf)
    assert rate(s, theta) == 1.0


def test_calibrate_at_most_hand_values():
    s = np.arange(1.0, 11.0)
    # the starting quantile already satisfies the bound and is returned
    assert calibrate_threshold(s, at_most(0.3)) == 7.0
    # ties push the start over the bound; the scan moves up
    assert calibrate_threshold([1.0, 1.0, 1.0, 2.0], at_most(0.2)) == 2.0


def test_calibrate_at_least_is_maximal_feasible():
    rng = np.random.default_rng(53)
    for _ in range(400):
        s = draw_scores(rng)
        c = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.7 else (
            float(rng.integers(1, s.size + 1)) / s.size)
        theta = calibrate_threshold(s, at_least(c))
        n = s.size
        assert np.count_nonzero(s > theta) / n >= c
        candidates = np.append(np.unique(s), np.nextafter(s.min(), -np.inf))
        feasible = [t for t in candidates
                    if np.count_nonzero(s > t) / n >= c]
        assert theta == max(feasible)


def test_calibrate_at_most_is_minimal_above_start():
    rng = np.random.default_rng(59)
    for _ in range(400):
        s = draw_scores(rng)
        c = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.7 else (
            float(rng.integers(1, s.size + 1)) / s.size)
        theta = calibrate_threshold(s, at_most(c))
        n = s.size
        assert np.count_nonzero(s > theta) / n <= c
        assert theta >= exact_quantile(s, 1.0 - c)
        feasible = [t for t in np.unique(s)
                    if np.count_nonzero(s > t) / n <= c]
        assert theta == min(feasible)


def test_evaluate_hand_counts():
    d = Dataset([[1.0], [2.0], [3.0], [4.0]], [1, -1, 1, -1])
    r = evaluate(LinearModel([1.0], threshold=2.5), d)
    assert (r.tp, r.fp, r.tn, r.fn) == (1, 1, 1, 1)
    assert r.precision == 0.5
    assert r.recall == 0.5
    assert r.rate == 0.5
    assert r.threshold == 2.5


def test_evaluate_empty_slice_and_uncalibrated():
    d = Dataset([[1.0], [2.0]], [1, -1])
    r = evaluate(LinearModel([1.0], threshold=10.0), d)
    assert r.precision is None
    assert r.recall == 0.0
    assert r.rate == 0.0
    with pytest.raises(UncalibratedError):
        evaluate(LinearModel([1.0]), d)


def test_precision_at_rate_hand_values():
    s = [4.0, 3.0, 2.0, 1.0]
    y = [1, -1, 1, -1]
    assert precision_at_rate(s, y, 0.5) == 0.5
    # ties straddling the cut are dropped by the strict rule
    assert precision_at_rate([1.0, 3.0, 3.0, 3.0], [1, 1, 1, 1], 0.5) == 0.0
    # tau = 1 admits every sample via the below-minimum threshold
    assert precision_at_rate(s, y, 1.0) == 0.5
    with pytest.raises(InvalidSpec):
        precision_at_rate(s, y, 0.0)
    with pytest.raises(InvalidSpec):
        precision_at_rate(s, y, 1.5)
    with pytest.raises(InvalidSpec):
        precision_at_rate(s, [1, -1], 0.5)


def test_precision_at_rate_slice_never_exceeds_target():
    rng = np.random.default_rng(61)
    for _ in range(200):
        s = draw_scores(rng, lo=2)
        y = rng.choice([-1, 1], size=s.size)
        tau = float(rng.uniform(0.05, 1.0))
        n = s.size
        m = max(1, largest_k(n, tau))
        if m == n:
            theta = np.nextafter(s.min(), -np.inf)
        else:
            theta = np.sort(s)[n - m - 1]
        predicted = s > theta
        p = precision_at_rate(s, y, tau)
        if predicted.sum() == 0:
            assert p == 0.0
        else:
            assert p == np.count_nonzero(predicted & (y == 1)) / predicted.sum()
        assert predicted.sum() <= m


def test_precision_at_recall_meets_the_recall_floor():
    rng = np.random.default_rng(67)
    for _ in range(200):
        n_pos = int(rng.integers(2, 15))
        n_neg = int(rng.integers(2, 15))
        s = np.concatenate([rng.standard_normal(n_pos) + 1.0,
                            rng.standard_normal(n_neg)])
        y = np.concatenate([np.ones(n_pos, dtype=int),
                            -np.ones(n_neg, dtype=int)])
        c = float(rng.uniform(0.1, 1.0))
        p = precision_at_recall(s, y, c)
        theta = calibrate_threshold(s[y == 1], at_least(c))
        predicted = s > theta
        tp = np.count_nonzero(predicted & (y == 1))
        assert tp / n_pos >= c - 1e-12
        assert p == tp / predicted.sum()
    with pytest.raises(NoConstraintSubset):
        precision_at_recall([1.0, 2.0], [-1, -1], 0.5)
    with pytest.raises(InvalidSpec):
        precision_at_recall([1.0, 2.0], [1, -1], 0.0)


def test_pr_points_thresholds_come_from_calibration():
    rng = np.random.default_rng(71)
    s = rng.standard_normal(40)
    y = rng.choice([-1, 1], size=40)
    grid = [0.25, 0.5, 0.75, 1.0]
    points = pr_points(s, y, grid)
    assert [p.recall_level for p in points] == grid
    for p in points:
        assert p.threshold == calibrate_threshold(
            s[y == 1], at_least(p.recall_level))
        predicted = s > p.threshold
        tp = np.count_nonzero(predicted & (y == 1))
        assert p.precision == tp / predicted.sum()


def test_pr_auc_is_the_right_endpoint_riemann_sum():
    rng = np.random.default_rng(73)
    s = rng.standard_normal(30)
    y = rng.choice([-1, 1], size=30)
    grid = [0.2, 0.5, 1.0]
    points = pr_points(s, y, grid)
    manual = (points[0].precision * 0.2
              + points[1].precision * 0.3
              + points[2].precision * 0.5)
    assert pr_auc(s, y, grid) == pytest.approx(manual, abs=1e-15)


def test_pr_grid_validation():
    s = [1.0, 2.0, 3.0]
    y = [1, -1, 1]
    with pytest.raises(InvalidSpec):
        pr_points(s, y, [])
    with pytest.raises(InvalidSpec):
        pr_points(s, y, [0.5, 0.5])
    with pytest.raises(InvalidSpec):
        pr_points(s, y, [0.0, 0.5])
    with pytest.raises(InvalidSpec):
        pr_points(s, y, [0.5, 1.2])
    with pytest.raises(NoConstraintSubset):
        pr_points(s, [-1, -1, -1], [0.5])


# Signed zeros compare equal, so a tied run of scores may mix -0.0 and
# 0.0.  The calibrated threshold is the value of its run (or one float
# below the minimum), and its bytes reach the output files; "==" cannot
# see a zero's sign, so these cases compare bytes.  Each entry holds the
# (at_least, at_most) thresholds of a case as indices into np.unique(s),
# -1 meaning the below-minimum threshold, found by scanning every
# candidate for the extremal one whose count above it, over n, meets
# the target.  A zero threshold is +0.0, whichever sign np.unique's sort
# leaves first in the run.
ZERO_HAND_SCORES = (
    (0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -1.0),
    (-0.0, 0.0, 0.0, -0.0, -0.0),
    (0.5, -0.0, 0.0, -0.0, 0.5, 0.0, -0.5, -0.5),
    (0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 1.0, -1.0, 1.0),
    (-0.0, 3.0, 0.0, 3.0, -0.0, 0.0, -2.0, 0.0, -0.0, 3.0, -0.0),
)
ZERO_HAND_LEVELS = (0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0)


def zero_hand_cases():
    for s in ZERO_HAND_SCORES:
        s = np.array(s)
        for c in ZERO_HAND_LEVELS + (2 / s.size, 1 - 1 / s.size):
            yield s, c


def tie_heavy_cases():
    rng = np.random.default_rng(83)
    sizes = [1, 2, 3, 7, 16, 17, 64, 129, 500, 2000]
    sizes += [int(n) for n in rng.integers(1, 2001, size=14)]
    for n in sizes:
        digits = int(rng.integers(0, 2))
        s = np.round(rng.standard_normal(n) * 1.5, digits)
        k = int(rng.integers(1, n + 1))
        # the edges of the zero run: its exceedance counts
        above = np.count_nonzero(s > 0.0)
        upto = np.count_nonzero(s >= 0.0)
        for c in (0.0, 1.0, 1 / n, k / n, (n - 1) / n, above / n, upto / n,
                  0.07, 0.3, 0.5, 0.9):
            yield s, c


def threshold_bytes(s, run):
    distinct = np.unique(s)
    if run < 0:
        return np.nextafter(distinct[0], -np.inf).tobytes()
    return (distinct[run] + 0.0).tobytes()


def check_recorded_bits(cases, recorded):
    for (s, c), (least, most) in zip(cases, recorded, strict=True):
        theta = calibrate_threshold(s, RateConstraint("all", "at_least", c))
        assert np.float64(theta).tobytes() == threshold_bytes(s, least), (s, c)
        theta = calibrate_threshold(s, RateConstraint("all", "at_most", c))
        assert np.float64(theta).tobytes() == threshold_bytes(s, most), (s, c)


ZERO_HAND_RUNS = (
    (3, 3), (2, 3), (1, 2), (0, 1), (0, 1), (0, 1), (0, 1), (-1, 0), (-1, 0),
    (1, 1), (-1, 0), (0, 0), (-1, 0), (-1, 0), (-1, 0), (-1, 0), (-1, 0),
    (-1, 0), (-1, 0), (-1, 0), (-1, 0), (-1, 0), (2, 2), (1, 2), (1, 1),
    (0, 1), (0, 1), (0, 1), (0, 0), (-1, 0), (-1, 0), (1, 1), (-1, 0), (2, 2),
    (1, 2), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (-1, 0), (-1, 0), (1, 1),
    (0, 0), (2, 2), (1, 2), (1, 2), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
    (-1, 0), (1, 2), (0, 0),
)
TIE_HEAVY_RUNS = (
    (0, 0), (-1, 0), (-1, 0), (-1, 0), (0, 0), (0, 0), (0, 0), (-1, 0),
    (-1, 0), (-1, 0), (-1, 0), (1, 1), (-1, 0), (0, 0), (-1, 0), (0, 0),
    (0, 0), (0, 0), (0, 1), (0, 1), (0, 0), (-1, 0), (2, 2), (-1, 0), (1, 1),
    (-1, 0), (0, 0), (0, 0), (0, 0), (1, 2), (1, 2), (0, 1), (-1, 0), (3, 3),
    (-1, 0), (2, 2), (0, 1), (0, 0), (1, 1), (0, 0), (2, 3), (0, 1), (0, 1),
    (-1, 0), (4, 4), (-1, 0), (3, 4), (1, 2), (0, 0), (2, 2), (1, 1), (3, 4),
    (2, 3), (1, 2), (0, 1), (13, 13), (-1, 0), (12, 12), (12, 12), (0, 0),
    (7, 7), (7, 7), (11, 12), (10, 11), (7, 8), (0, 1), (39, 39), (-1, 0),
    (38, 38), (35, 35), (0, 0), (22, 22), (21, 21), (34, 35), (28, 29),
    (21, 22), (5, 6), (53, 53), (-1, 0), (52, 52), (25, 26), (0, 0), (26, 26),
    (26, 26), (45, 46), (33, 34), (26, 27), (7, 8), (69, 69), (-1, 0),
    (68, 68), (20, 21), (0, 0), (36, 36), (35, 35), (56, 57), (43, 44),
    (35, 36), (17, 18), (86, 86), (-1, 0), (85, 86), (45, 46), (0, 0),
    (43, 43), (42, 42), (64, 64), (50, 51), (42, 43), (23, 23), (10, 10),
    (-1, 0), (9, 10), (3, 4), (-1, 0), (5, 5), (4, 4), (6, 7), (5, 6), (4, 5),
    (2, 3), (10, 10), (-1, 0), (9, 9), (4, 5), (0, 0), (5, 5), (4, 4), (6, 7),
    (5, 6), (4, 5), (2, 3), (87, 87), (-1, 0), (86, 86), (55, 56), (0, 0),
    (43, 43), (42, 42), (65, 66), (50, 51), (43, 44), (22, 23), (43, 43),
    (-1, 0), (42, 42), (38, 39), (0, 0), (24, 24), (23, 23), (37, 38),
    (28, 29), (22, 22), (5, 6), (9, 9), (-1, 0), (8, 8), (3, 4), (-1, 0),
    (4, 4), (3, 3), (5, 6), (4, 5), (3, 4), (1, 2), (79, 79), (-1, 0),
    (78, 79), (39, 40), (0, 0), (38, 38), (37, 37), (59, 60), (45, 46),
    (37, 38), (18, 19), (9, 9), (-1, 0), (8, 9), (2, 3), (-1, 0), (4, 4),
    (3, 3), (5, 6), (4, 5), (3, 4), (1, 2), (79, 79), (-1, 0), (78, 78),
    (13, 14), (0, 0), (39, 39), (38, 38), (60, 61), (46, 47), (38, 39),
    (18, 19), (10, 10), (-1, 0), (9, 9), (2, 3), (0, 0), (5, 5), (4, 4),
    (6, 7), (5, 6), (4, 5), (2, 3), (76, 76), (-1, 0), (75, 75), (55, 55),
    (0, 0), (37, 37), (36, 36), (58, 59), (45, 46), (37, 38), (17, 18),
    (79, 79), (-1, 0), (78, 78), (25, 26), (0, 0), (40, 40), (39, 39),
    (61, 62), (46, 47), (39, 40), (21, 22), (72, 72), (-1, 0), (71, 71),
    (39, 40), (0, 0), (38, 38), (37, 37), (59, 60), (44, 45), (36, 37),
    (17, 18), (43, 43), (-1, 0), (42, 42), (13, 14), (0, 0), (20, 20),
    (19, 19), (38, 39), (27, 28), (21, 21), (4, 5), (93, 93), (-1, 0),
    (92, 92), (47, 48), (0, 0), (47, 47), (46, 46), (68, 69), (54, 55),
    (46, 47), (26, 27),
)


def test_calibration_bits_on_signed_zero_ties():
    check_recorded_bits(zero_hand_cases(), ZERO_HAND_RUNS)


def test_calibration_bits_on_tie_heavy_vectors():
    check_recorded_bits(tie_heavy_cases(), TIE_HEAVY_RUNS)


def test_a_zero_threshold_is_positive_zero_for_every_sign_pattern():
    zero = np.float64(0.0).tobytes()
    for signs in itertools.product((0.0, -0.0), repeat=4):
        s = np.array(signs + (1.0, 2.0))
        theta = calibrate_threshold(s, at_least(0.3))
        assert np.count_nonzero(s > theta) == 2
        assert np.float64(theta).tobytes() == zero, signs


def test_arange_edges_meet_the_target_literally():
    s = np.arange(100.0)
    candidates = np.append(s, np.nextafter(0.0, -np.inf))
    above = [np.count_nonzero(s > t) for t in candidates]
    least = max(t for t, a in zip(candidates, above) if a / 100 >= 0.07)
    most = min(t for t, a in zip(candidates, above) if a / 100 <= 0.29)
    assert (least, most) == (92.0, 70.0)
    assert calibrate_threshold(s, at_least(0.07)) == least
    assert calibrate_threshold(s, at_most(0.29)) == most
    assert rate(s, least) == 0.07 and rate(s, most) == 0.29
