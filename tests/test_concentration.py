"""Concentration harness tests on small, fast configurations."""

import math

import numpy as np
import pytest

from quantrate import (
    BatchTooLarge,
    ConcentrationReport,
    Dataset,
    InvalidSpec,
    LinearModel,
    QuantileEstimatorSpec,
    RateConstraint,
    SurrogateLossSpec,
    TrainConfig,
    concentration,
    convex_sgd_convergence,
    estimator_stability,
    generate_synthetic,
    load_preset,
    loss_uniform_deviation,
    sgd_train,
    surrogate_loss,
)
from quantrate.config import concentration_spec
from quantrate.concentration import _fit_slope, _searched_reference
from quantrate.data import seed_of, stream
from simd import by_dispatch

KERNEL = QuantileEstimatorSpec(kind="kernel", bandwidth=0.05)


def small_dataset(seed=7, n=60):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = np.where(rng.random(n) < 0.4, 1, -1)
    y[0], y[1] = 1, -1
    return Dataset(X, y)


def test_fit_slope_recovers_a_power_law():
    b = np.array([10.0, 40.0, 160.0, 640.0])
    assert _fit_slope(b, 1.0 / np.sqrt(b)) == pytest.approx(-0.5, abs=1e-9)
    assert _fit_slope(b, 3.0 / b) == pytest.approx(-1.0, abs=1e-9)


def test_fit_slope_needs_two_positive_points():
    assert _fit_slope([10, 20], [0.0, 0.0]) is None
    assert _fit_slope([10, 20], [0.5, 0.0]) is None
    assert _fit_slope([10, 20], [0.5, 0.3]) is not None


def test_stability_full_batch_has_zero_deviation():
    # a full-size subsample is a permutation of the population; the
    # point estimator picks the same order statistic, so both deviation
    # statistics vanish exactly and the slope fit has no points
    r = estimator_stability(n=200, batch_sizes=[200], trials=100,
                            estimator_spec=QuantileEstimatorSpec(kind="point"),
                            c=0.8, score_law="uniform", seed=5)
    assert r.mean_abs_dev == (0.0,)
    assert r.q95_abs_dev == (0.0,)
    assert r.fitted_slope is None


def test_stability_constant_scores_never_deviate():
    r = estimator_stability(n=300, batch_sizes=[20, 80], trials=100,
                            estimator_spec=QuantileEstimatorSpec(kind="point"),
                            c=0.5, score_law="constant", seed=5)
    assert r.mean_abs_dev == (0.0, 0.0)


def test_stability_deviation_shrinks_with_batch_size():
    r = estimator_stability(n=2000, batch_sizes=[20, 200, 2000], trials=150,
                            estimator_spec=KERNEL, c=0.9,
                            score_law="uniform", seed=11)
    assert r.mean_abs_dev[0] > r.mean_abs_dev[-1]
    assert r.trials == 150 and r.seed == 11


def test_stability_validation():
    with pytest.raises(InvalidSpec):
        estimator_stability(n=100, batch_sizes=[10], trials=99,
                            estimator_spec=KERNEL, c=0.5,
                            score_law="uniform", seed=0)
    with pytest.raises(InvalidSpec):
        estimator_stability(n=100, batch_sizes=[40, 20], trials=100,
                            estimator_spec=KERNEL, c=0.5,
                            score_law="uniform", seed=0)
    with pytest.raises(BatchTooLarge):
        estimator_stability(n=100, batch_sizes=[101], trials=100,
                            estimator_spec=KERNEL, c=0.5,
                            score_law="uniform", seed=0)
    with pytest.raises(InvalidSpec):
        estimator_stability(n=100, batch_sizes=[10], trials=100,
                            estimator_spec=KERNEL, c=0.5,
                            score_law="poisson", seed=0)


def test_stability_is_deterministic():
    kwargs = dict(n=500, batch_sizes=[25, 100], trials=120,
                  estimator_spec=KERNEL, c=0.7, score_law="gaussian", seed=9)
    assert estimator_stability(**kwargs) == estimator_stability(**kwargs)


@pytest.mark.parametrize("spec", [
    QuantileEstimatorSpec(kind="point"), QuantileEstimatorSpec(kind="lower_mean"),
    QuantileEstimatorSpec(kind="interval", k1=0.3, k2=0.6), KERNEL],
    ids=lambda spec: spec.kind.value)
def test_stability_reports_do_not_depend_on_the_chunking(monkeypatch, spec):
    # trials weighed one row per call, a few per call and all at once give
    # equal reports; constant scores send every row through the tie loop
    for law in ("uniform", "gaussian", "constant"):
        kwargs = dict(n=2000, batch_sizes=[7, 20, 60], trials=100,
                      estimator_spec=spec, c=0.7, score_law=law, seed=13)
        default = estimator_stability(**kwargs)
        for chunk in (1, 700):
            monkeypatch.setattr(concentration, "_CHUNK_SCORES", chunk)
            assert estimator_stability(**kwargs) == default
        monkeypatch.undo()


def test_loss_deviation_zero_bound_gives_the_zero_model():
    # the only model in a radius-0 ball scores everything 0, making the
    # full and subsample mean losses both exactly logloss(0) = 1
    d = small_dataset()
    r = loss_uniform_deviation(
        dataset=d,
        constraint=RateConstraint("positives", "at_least", 0.8),
        estimator_spec=KERNEL,
        batch_sizes=[10, 30],
        trials=100,
        w_norm_bound=0.0,
        n_models=1,
        seed=3,
    )
    assert r.mean_abs_dev == (0.0, 0.0)
    assert r.q95_abs_dev == (0.0, 0.0)


def test_loss_deviation_validation():
    d = small_dataset()
    constraint = RateConstraint("positives", "at_least", 0.8)
    with pytest.raises(InvalidSpec):
        loss_uniform_deviation(d, constraint, KERNEL, [10], 99, 1.0, 2, 0)
    with pytest.raises(InvalidSpec):
        loss_uniform_deviation(d, constraint, KERNEL, [10], 100, -1.0, 2, 0)
    with pytest.raises(InvalidSpec):
        loss_uniform_deviation(d, constraint, KERNEL, [10], 100, 1.0, 0, 0)
    all_pos = Dataset([[1.0], [2.0]], [1, 1])
    with pytest.raises(InvalidSpec):
        loss_uniform_deviation(all_pos, constraint, KERNEL, [2], 100, 1.0, 2, 0)


def test_loss_deviation_is_deterministic_and_positive():
    d = small_dataset(seed=13, n=120)
    kwargs = dict(
        dataset=d,
        constraint=RateConstraint("positives", "at_least", 0.7),
        estimator_spec=KERNEL,
        batch_sizes=[20, 60],
        trials=100,
        w_norm_bound=2.0,
        n_models=4,
        seed=21,
    )
    r1 = loss_uniform_deviation(**kwargs)
    r2 = loss_uniform_deviation(**kwargs)
    assert r1 == r2
    assert all(dv > 0 for dv in r1.mean_abs_dev)
    assert all(q >= m for m, q in zip(r1.mean_abs_dev, r1.q95_abs_dev))


def test_report_validation():
    with pytest.raises(InvalidSpec):
        ConcentrationReport(batch_sizes=(), mean_abs_dev=(),
                            q95_abs_dev=(), fitted_slope=0.0, trials=100,
                            seed=0)
    with pytest.raises(InvalidSpec):
        ConcentrationReport(batch_sizes=(20, 10), mean_abs_dev=(0.1, 0.1),
                            q95_abs_dev=(0.1, 0.1), fitted_slope=0.0,
                            trials=100, seed=0)
    with pytest.raises(InvalidSpec):
        ConcentrationReport(batch_sizes=(10, 20), mean_abs_dev=(-0.1, 0.1),
                            q95_abs_dev=(0.1, 0.1), fitted_slope=0.0,
                            trials=100, seed=0)


def test_convex_convergence_shapes_and_determinism():
    d = small_dataset(seed=17, n=80)
    r = convex_sgd_convergence(d, c=0.8, batch_size=20, t_grid=[5, 10],
                               trials=2, seed=31)
    assert r.t_grid == (5, 10)
    assert len(r.mean_excess) == 2
    assert np.isfinite(r.ref_loss)
    r2 = convex_sgd_convergence(d, c=0.8, batch_size=20, t_grid=[5, 10],
                                trials=2, seed=31)
    assert r == r2
    d_dict = r.to_dict()
    assert d_dict["t_grid"] == [5, 10] and d_dict["trials"] == 2


def test_convex_lab_trains_each_trial_once_in_one_lockstep_call(monkeypatch):
    # the 3 trials are the 3 rows of one call, each running to the
    # largest budget; both budgets read their losses off its trace
    calls, lockstep = [], concentration.lockstep_train
    monkeypatch.setattr(
        concentration, "lockstep_train",
        lambda d, models: calls.append([c.steps for _, c in models])
        or lockstep(d, models))
    convex_sgd_convergence(small_dataset(seed=17, n=80), c=0.8, batch_size=20,
                           t_grid=[5, 10], trials=3, seed=31)
    assert calls == [[10, 10, 10]]


@pytest.mark.parametrize("t_grid", [[5, 10], [4, 6, 9]])
def test_convex_lab_equals_its_lone_runs(t_grid):
    # budget T's mean excess is the mean over trials of the lone T-step
    # run at the trial's seed, seed_of(seed, max(t_grid), trial), less the
    # reference loss, bit for bit
    d, c, batch_size, trials, seed = small_dataset(seed=17, n=80), 0.8, 20, 3, 31
    r = convex_sgd_convergence(d, c=c, batch_size=batch_size, t_grid=t_grid,
                               trials=trials, seed=seed)
    spec = SurrogateLossSpec("p_at_r", RateConstraint("positives", "at_least", c),
                             QuantileEstimatorSpec(kind="lower_mean"))
    n_pos, n_neg = np.count_nonzero(d.labels == 1), np.count_nonzero(d.labels == -1)
    _, ref_loss = _searched_reference(d, spec, 5.0, seed)
    assert r.ref_loss == ref_loss
    want = []
    for T in t_grid:
        gaps = [sgd_train(d, spec, TrainConfig(
            learning_rate=0.5 / n_neg, steps=T, momentum=0.0,
            seed=seed_of(seed, t_grid[-1], trial),
            batch_size=batch_size, constraint_batch_size=min(batch_size, n_pos),
            lr_decay="inv_sqrt")).final_train_loss - ref_loss
            for trial in range(trials)]
        want.append(float(np.mean(gaps)))
    assert r.mean_excess == tuple(want)


def test_convex_preset_excess_falls_at_every_step():
    # a step of 0.5/sqrt(t) on the summed loss, about 190x the mean
    # loss's, read 931, 1078, 475, 2.72, 1.82: a transient, not a rate
    _, kwargs = concentration_spec(load_preset("convex_convergence"), None)
    kwargs["dataset"] = generate_synthetic(kwargs["dataset"])
    r = convex_sgd_convergence(**kwargs)
    assert r.trials == 10 and len(r.t_grid) == 5
    assert all(b < a for a, b in zip(r.mean_excess, r.mean_excess[1:]))
    assert r.fitted_slope == _fit_slope(r.t_grid, r.mean_excess) < 0


def test_convex_convergence_validation(monkeypatch):
    d = small_dataset()
    # a batch size below 1 fails before the reference search starts
    def no_search(*args):
        raise AssertionError("the reference search ran")

    with monkeypatch.context() as patched:
        patched.setattr(concentration, "_searched_reference", no_search)
        with pytest.raises(InvalidSpec, match="convex lab"):
            convex_sgd_convergence(d, c=0.5, batch_size=0, t_grid=[5],
                                   trials=1, seed=0)
    with pytest.raises(InvalidSpec):
        convex_sgd_convergence(d, c=0.0, batch_size=10, t_grid=[5], trials=1,
                               seed=0)
    with pytest.raises(InvalidSpec):
        convex_sgd_convergence(d, c=1.2, batch_size=10, t_grid=[5], trials=1,
                               seed=0)
    with pytest.raises(InvalidSpec):
        convex_sgd_convergence(d, c=0.5, batch_size=10, t_grid=[10, 5],
                               trials=1, seed=0)
    with pytest.raises(InvalidSpec):
        convex_sgd_convergence(d, c=0.5, batch_size=10, t_grid=[5], trials=0,
                               seed=0)


# to_dict() of tiny lab configs, recorded before the estimators selected
# by partition and the deviation lab estimated all models in one call.
# The stability reports must match exactly; the deviation lab sums its
# K columns in another order, so it may move by 1e-12.  The convex
# report was recorded again when its constraint batches came from a
# reshuffled queue and its step from the mean loss, and its T=5 entry
# and slope again when every budget read its trials' losses off the
# largest budget's runs.
GOLDEN_STABILITY = {
    "interval": {
        "batch_sizes": [20, 80, 320],
        "mean_abs_dev": [0.05997722655305413, 0.032365219758970755, 0.006894239516460986],
        "q95_abs_dev": [0.15239185748348985, 0.0731293555628176, 0.01687652941720658],
        "fitted_slope": -0.7802378712492433, "trials": 100, "seed": 4,
    },
    "kernel": {
        "batch_sizes": [20, 80, 320],
        "mean_abs_dev": [0.09352067870196594, 0.03480206010898335, 0.007538347252248575],
        "q95_abs_dev": [0.2785479320916327, 0.10668891738923159, 0.01683595999790348],
        "fitted_slope": -0.908241310206766, "trials": 100, "seed": 4,
    },
}
GOLDEN_LOSS_DEVIATION = {
    "lower_mean": {
        "batch_sizes": [20, 60, 180],
        "mean_abs_dev": [3.037595181634521, 1.4281524189170725, 0.46986859525996577],
        "q95_abs_dev": [5.884157834169468, 3.001730613370172, 0.8646398955778086],
        "fitted_slope": -0.8494208424876954, "trials": 100, "seed": 21,
    },
    "kernel": {
        "batch_sizes": [20, 60],
        "mean_abs_dev": [1.2045357613210432, 0.5316621982440506],
        "q95_abs_dev": [2.834419448305025, 1.1548593792215185],
        "fitted_slope": -0.7444311317608471, "trials": 100, "seed": 21,
    },
}
GOLDEN_CONVEX = {
    "t_grid": [5, 10], "mean_excess": [7.18634951087981, 8.551273487844819],
    "ref_loss": 41.0, "fitted_slope": 0.25088018449977595, "trials": 3, "seed": 31,
}

# the kernel report and the convex report on numpy's AVX2 and baseline
# exp loops (see simd.py); the interval report does not call exp
GOLDEN_STABILITY_NO_AVX512 = dict(GOLDEN_STABILITY, kernel={
    "batch_sizes": [20, 80, 320],
    "mean_abs_dev": [0.09352067870196594, 0.03480206010898335, 0.007538347252248565],
    "q95_abs_dev": [0.2785479320916327, 0.10668891738923159, 0.016835959997903376],
    "fitted_slope": -0.9082413102067666, "trials": 100, "seed": 4,
})
GOLDEN_CONVEX_NO_AVX512 = dict(
    GOLDEN_CONVEX, mean_excess=[7.186349510879808, 8.551273487844817],
    fitted_slope=0.2508801844997768)


def test_golden_stability_reports():
    specs = {
        "interval": (QuantileEstimatorSpec(kind="interval", k1=0.25, k2=0.75),
                     0.5, "gaussian"),
        "kernel": (KERNEL, 0.9, "uniform"),
    }
    for name, (spec, c, law) in specs.items():
        r = estimator_stability(n=400, batch_sizes=[20, 80, 320], trials=100,
                                estimator_spec=spec, c=c, score_law=law, seed=4)
        assert r.to_dict() == by_dispatch(GOLDEN_STABILITY, GOLDEN_STABILITY_NO_AVX512)[name]


def test_golden_loss_deviation_reports():
    d = small_dataset(seed=13, n=240)
    runs = {
        "lower_mean": (RateConstraint("all", "at_least", 0.8),
                       QuantileEstimatorSpec(kind="lower_mean"),
                       [20, 60, 180], 5.0, 7),
        "kernel": (RateConstraint("positives", "at_least", 0.7), KERNEL,
                   [20, 60], 2.0, 4),
    }
    for name, (constraint, spec, batches, bound, n_models) in runs.items():
        got = loss_uniform_deviation(d, constraint, spec, batches, 100, bound,
                                     n_models, 21).to_dict()
        golden = GOLDEN_LOSS_DEVIATION[name]
        assert got.keys() == golden.keys()
        for key, want in golden.items():
            if key in ("mean_abs_dev", "q95_abs_dev", "fitted_slope"):
                assert np.allclose(got[key], want, rtol=1e-12, atol=0.0), key
            else:
                assert got[key] == want


def test_golden_convex_report():
    r = convex_sgd_convergence(small_dataset(seed=17, n=80), c=0.8,
                               batch_size=20, t_grid=[5, 10], trials=3, seed=31)
    assert r.to_dict() == by_dispatch(GOLDEN_CONVEX, GOLDEN_CONVEX_NO_AVX512)


def looped_reference(dataset, loss_spec, radius_hint, seed):
    """The reference search as one surrogate_loss call per candidate,
    keeping the first strictly better one."""
    stream = np.random.SeedSequence((seed, concentration._REF_STREAM))
    rng = np.random.default_rng(stream)
    dirs = rng.standard_normal((256, dataset.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.geomspace(radius_hint / 100.0, radius_hint * 10.0, 25)
    best_w = np.zeros(dataset.dim)
    best_loss = surrogate_loss(LinearModel(best_w), dataset, loss_spec).value
    for d in dirs:
        for r in radii:
            w = r * d
            value = surrogate_loss(LinearModel(w), dataset, loss_spec).value
            if value < best_loss:
                best_loss, best_w = value, w
    return best_w, best_loss


def test_reference_search_matches_the_looped_search():
    rng = np.random.default_rng(43)
    y = np.where(rng.random(50) < 0.5, 1, -1)
    separated = Dataset(rng.standard_normal((50, 3)) + 1.5 * y[:, None], y)
    all_zero = Dataset(np.zeros((20, 3)), y[:20])
    for dataset, c, seed in ((separated, 0.8, 3), (all_zero, 0.6, 5)):
        spec = SurrogateLossSpec(
            objective="p_at_r",
            constraint=RateConstraint("positives", "at_least", c),
            estimator=QuantileEstimatorSpec(kind="lower_mean"),
        )
        w, loss = _searched_reference(dataset, spec, 5.0, seed)
        want_w, want_loss = looped_reference(dataset, spec, 5.0, seed)
        assert w.tobytes() == want_w.tobytes()
        assert loss == want_loss
    # every candidate ties on all-zero features, and the zero model wins
    assert w.tobytes() == np.zeros(3).tobytes()
    assert not np.any(want_w)
    assert loss == surrogate_loss(LinearModel(w + 1.0), all_zero, spec).value


def test_loss_deviation_refuses_a_nan_norm_bound():
    d = small_dataset()
    constraint = RateConstraint("positives", "at_least", 0.8)
    with pytest.raises(InvalidSpec, match="w_norm_bound must be nonnegative"):
        loss_uniform_deviation(d, constraint, KERNEL, [10], 100, float("nan"), 2, 0)


def test_loss_deviation_refuses_a_norm_bound_that_is_not_a_number():
    d = small_dataset()
    constraint = RateConstraint("positives", "at_least", 0.8)
    for bad in ("5", True):
        with pytest.raises(InvalidSpec, match="w_norm_bound must be a number"):
            loss_uniform_deviation(d, constraint, KERNEL, [10], 100, bad, 2, 0)


def test_labs_refuse_non_integral_sizes():
    d = small_dataset()
    constraint = RateConstraint("positives", "at_least", 0.8)
    stability = dict(n=100, batch_sizes=[10, 20], trials=100,
                     estimator_spec=KERNEL, c=0.5, score_law="uniform", seed=0)
    for key, bad in (("batch_sizes", [50.9, 100.2]), ("trials", 100.5),
                     ("n", 100.0)):
        with pytest.raises(InvalidSpec, match=key):
            estimator_stability(**dict(stability, **{key: bad}))
    deviation = dict(dataset=d, constraint=constraint, estimator_spec=KERNEL,
                     batch_sizes=[10, 30], trials=100, w_norm_bound=1.0,
                     n_models=2, seed=0)
    for key, bad in (("n_models", 2.9), ("batch_sizes", [10, 30.5]),
                     ("trials", 100.0)):
        with pytest.raises(InvalidSpec, match=key):
            loss_uniform_deviation(**dict(deviation, **{key: bad}))
    convex = dict(dataset=d, c=0.5, batch_size=10, t_grid=[5, 10], trials=1,
                  seed=0)
    for key, bad in (("t_grid", [10.7, 20.2]), ("batch_size", 10.5),
                     ("trials", 1.5)):
        with pytest.raises(InvalidSpec, match=key):
            convex_sgd_convergence(**dict(convex, **{key: bad}))


def test_numpy_integer_sizes_pass():
    d = small_dataset()
    constraint = RateConstraint("positives", "at_least", 0.8)
    plain_ints = loss_uniform_deviation(d, constraint, KERNEL, [10, 30], 100, 1.0,
                                        2, 5)
    numpy_ints = loss_uniform_deviation(d, constraint, KERNEL, np.array([10, 30]),
                                        np.int64(100), 1.0, np.int32(2), 5)
    assert numpy_ints == plain_ints
    assert all(type(b) is int for b in numpy_ints.batch_sizes)
    r = estimator_stability(n=np.int64(100), batch_sizes=np.array([10, 20]),
                            trials=100, estimator_spec=KERNEL, c=0.5,
                            score_law="uniform", seed=0)
    assert r.batch_sizes == (10, 20)
    r = convex_sgd_convergence(d, c=0.5, batch_size=np.int64(10),
                               t_grid=np.array([5]), trials=np.int64(1), seed=0)
    assert r.t_grid == (5,) and type(r.t_grid[0]) is int


def sorted_loss_deviation(dataset, in_sub, batch_sizes, trials, level, bound,
                          n_models, seed):
    """loss_uniform_deviation for lower_mean, rebuilt by sorting: each
    model's quantile is the mean of the k smallest subset scores, k the
    largest with k/N <= level (at least 1), and its loss the mean of
    logaddexp(0, score - quantile) / ln 2 over the negatives; models and
    batches come from the lab's streams."""
    X, negative = dataset.features, dataset.labels == -1
    rng = stream(seed, concentration._MODEL_STREAM)
    raw = rng.standard_normal((n_models, dataset.dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    W = raw * (bound * rng.random(n_models) ** (1.0 / dataset.dim))[:, None]

    def losses(rows):
        out = []
        for w in W:
            s = np.sort(X[rows[in_sub[rows]]] @ w)
            k = max([k for k in range(1, s.size + 1) if k / s.size <= level],
                    default=1)
            z = X[rows[negative[rows]]] @ w - s[:k].mean()
            out.append(np.mean(np.logaddexp(0.0, z)) / math.log(2.0))
        return np.array(out)

    full = losses(np.arange(dataset.n))
    means, q95s = [], []
    for b in batch_sizes:
        devs = []
        for t in range(trials):
            draws = stream(seed, b, t)
            idx = draws.choice(dataset.n, size=b, replace=False)
            while not (in_sub[idx].any() and negative[idx].any()):
                idx = draws.choice(dataset.n, size=b, replace=False)
            devs.append(np.max(np.abs(full - losses(idx))))
        means.append(np.mean(devs))
        q95s.append(np.quantile(devs, 0.95))
    slope = np.polyfit(np.log(batch_sizes), np.log(means), 1)[0]
    return means, q95s, slope


def test_loss_deviation_matches_a_sorting_reference():
    d = small_dataset(seed=13, n=240)
    spec = QuantileEstimatorSpec(kind="lower_mean")
    for subset, target, batches in (("all", 0.8, [20, 60, 180]),
                                    ("positives", 0.7, [10, 40])):
        constraint = RateConstraint(subset, "at_least", target)
        in_sub = d.labels == 1 if subset == "positives" else np.ones(d.n, bool)
        got = loss_uniform_deviation(d, constraint, spec, batches, 100, 5.0, 7, 21)
        means, q95s, slope = sorted_loss_deviation(
            d, in_sub, batches, 100, 1.0 - target, 5.0, 7, 21
        )
        assert np.allclose(got.mean_abs_dev, means, rtol=1e-12, atol=0.0)
        assert np.allclose(got.q95_abs_dev, q95s, rtol=1e-12, atol=0.0)
        assert np.isclose(got.fitted_slope, slope, rtol=1e-12, atol=0.0)
