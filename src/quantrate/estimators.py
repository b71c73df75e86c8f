"""Empirical quantile estimators over score vectors and score matrices.

Every estimator works along the sample axis.  It takes a vector of n
scores, or an (n, K) matrix whose K columns (one per model, say) are
estimated independently, each with the weights a call on that column
alone gives.  A matrix takes one level for all columns or a K-vector of
levels, one per column.  The estimate is a weighted average of the
scores; the weights are what the surrogate-loss gradients differentiate
through (weights themselves are rank-dependent and treated as locally
constant), and estimate computes every value as that weighted sum.
estimate_values gives a matrix's values alone, for callers that need no
weights; it sums the lower-mean and interval windows directly.

The canonical exact quantile at level c of N ascending order statistics
is the k-th one with k = max{ integer k >= 1 : k/N <= c }; when no such
k exists (c < 1/N) it is the minimum score.  Duplicated values occupy
multiple ranks, so ties count multiply.

Ranks are those of a stable sort: tied scores take consecutive ranks in
input order.  The point, lower-mean and interval estimators and
exact_quantile find their order statistics with np.partition, in O(n)
and without sorting, and then pick exactly the positions a stable sort
would put at the selected ranks.  The kernel estimator weights every
rank, so it sorts along each column; every score of a tied run takes
the weight of the run's last rank, so the order a sort leaves tied
scores in does not matter and the sort need not be stable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInterval, EmptyInput, InvalidSpec
from .types import EstimatorKind, QuantileEstimatorSpec

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class QuantileResult:
    """Estimate plus the weights that produced it.

    For a vector of n scores, value is a float and weights a read-only
    n-vector aligned with the *input* score order (not sorted order);
    value equals float(weights @ scores).

    For an (n, K) score matrix, value holds the K column estimates and
    weights is the read-only (n, K) matrix whose column j is the weight
    vector of column j.  Each column's value is its weights times its
    scores, bit for bit the value of the vector call on a contiguous
    copy of that column.  weights is the transpose of a C-ordered
    (K, n) array, so each column is contiguous.
    """

    def __init__(self, value, weights: np.ndarray):
        self.value = value
        self.weights = _frozen(weights)

    @property
    def support(self):
        """The input indices carrying nonzero weight; for a matrix, the
        tuple of the K columns' supports."""
        w = self.weights
        if w.ndim == 1:
            return _frozen(np.flatnonzero(w))
        return tuple(_frozen(np.flatnonzero(col)) for col in w.T)


def _checked(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim not in (1, 2):
        raise InvalidSpec("scores must be a vector or an (n, K) matrix")
    if s.size == 0:
        raise EmptyInput("empty score vector")
    # a finite sum proves every score finite without an (n, K) mask
    if not np.isfinite(s.sum()) and not np.isfinite(s).all():
        raise InvalidSpec("scores must be finite")
    return s


def _check_level(c, s=None):
    """c as a float; for an (n, K) matrix s, also a K-vector of levels."""
    if not isinstance(c, (list, tuple, np.ndarray)) or np.ndim(c) == 0:
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise InvalidSpec(f"quantile level {c} outside [0, 1]")
        return c
    c = np.asarray(c, dtype=np.float64)
    if s is None or s.ndim != 2 or c.shape != (s.shape[1],):
        raise InvalidSpec(
            "levels must be a scalar or one per column of a score matrix"
        )
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise InvalidSpec(f"quantile levels {c} outside [0, 1]")
    return c


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row of two (K, n) arrays.

    With C-ordered rows each product is the one a 1-d dot of those rows
    takes, bit for bit; a strided row sums in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def order_rank(n: int, c: float) -> int:
    """Largest k in 1..n with k/n <= c, or 0 when there is none.

    Floating-point guard: the defining comparison k/n <= c is enforced
    literally rather than trusting floor(c*n) at representation edges.
    """
    k = int(math.floor(c * n))
    while k + 1 <= n and (k + 1) / n <= c:
        k += 1
    while k >= 1 and k / n > c:
        k -= 1
    return max(0, min(k, n))


def exact_quantile(scores, c) -> float:
    """The canonical order-statistic quantile of a score vector (see
    module docstring)."""
    s = _checked(scores)
    if s.ndim != 1:
        raise InvalidSpec("scores must be a 1-d vector")
    k = max(1, order_rank(s.size, _check_level(c)))
    return float(np.partition(s, k - 1)[k - 1])


def _stable_window(rows: np.ndarray, lo: int, hi: int, v_lo, v_hi) -> np.ndarray:
    """Mask of the positions a stable sort of each row puts at ranks
    lo..hi-1.

    v_lo and v_hi hold each row's scores at ranks lo (-inf when lo is 0)
    and hi - 1.  Every score strictly between them is in.  A
    stable sort ranks the scores tied with an edge value in input order,
    starting from the count of smaller scores; those whose rank falls in
    the window are in.
    """
    inside = (rows >= v_lo[:, None]) & (rows <= v_hi[:, None])
    # the rows where a tied run crosses an edge of the window
    for i in np.flatnonzero(np.count_nonzero(inside, axis=1) != hi - lo):
        s = rows[i]
        inside[i] = (s > v_lo[i]) & (s < v_hi[i])
        for v in {v_lo[i], v_hi[i]}:
            tied = np.flatnonzero(s == v)
            first = np.count_nonzero(s < v)
            inside[i, tied[max(lo - first, 0):hi - first]] = True
    return inside


def _window(scores: np.ndarray, lo: int, hi: int):
    """A copy of scores holding, along the last axis, its ranks lo..hi-1
    at slots lo..hi-1, and the scores at ranks lo (-inf when lo is 0)
    and hi - 1."""
    part = np.partition(scores, hi - 1, axis=-1)
    if lo == 0:
        return part, -np.inf, part[..., hi - 1]
    v_hi = part[..., hi - 1].copy()  # the second pass moves rank hi - 1
    # two single-rank passes: np.partition with two ranks took 6x as
    # long at n = 20 000
    part[..., :hi].partition(lo, axis=-1)
    return part, part[..., lo], v_hi


def _window_weights(rows: np.ndarray, lo_hi) -> np.ndarray:
    """Weight 1/(hi - lo) on the stable ranks lo..hi-1 of each row."""
    lo, hi = lo_hi
    _, v_lo, v_hi = _window(rows, lo, hi)
    v_lo = np.broadcast_to(v_lo, v_hi.shape)
    return _stable_window(rows, lo, hi, v_lo, v_hi) * (1.0 / (hi - lo))


def _point_weights(rows: np.ndarray, k: int) -> np.ndarray:
    """One-hot weight on the k-th order statistic of each row.

    With ties, the weight sits on the last input position holding that
    value (the last of its tied run in a stable sort), so the value
    still equals exact_quantile.
    """
    v = np.partition(rows, k - 1, axis=1)[:, k - 1 : k]
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] == v, axis=1)
    return (np.arange(rows.shape[1]) == last[:, None]) * 1.0


def _plan(spec: QuantileEstimatorSpec, s: np.ndarray, c):
    """(weights_of, params) of a partition-based kind: weights_of(rows,
    params[j]) weighs each of a block of score rows by column j's params.

    point puts a one-hot on rank k = max(1, max{k : k/N <= c});
    lower_mean averages ranks 0..k-1, so it lower-bounds the point
    estimate and makes the downstream loss convex for linear models
    (c < 1/N falls back to k=1, the minimum, so small constraint
    minibatches never abort training); interval averages the ascending
    order statistics at 1-based indices floor(N*k1)+1 through
    floor(N*k2) inclusive and ignores c.
    """
    n = s.shape[0]
    columns = 1 if s.ndim == 1 else s.shape[1]
    if spec.kind is EstimatorKind.INTERVAL:
        lo, hi = int(math.floor(n * spec.k1)), int(math.floor(n * spec.k2))
        if hi <= lo:
            raise DegenerateInterval(
                f"window ({spec.k1}, {spec.k2}] selects no order statistics "
                f"for n={n}"
            )
        return _window_weights, [(lo, hi)] * columns
    c = _check_level(c, s)
    levels = [c] * columns if isinstance(c, float) else c.tolist()
    ranks = {v: max(1, order_rank(n, v)) for v in set(levels)}
    ks = [ranks[v] for v in levels]
    if spec.kind is EstimatorKind.POINT:
        return _point_weights, ks
    return _window_weights, [(0, k) for k in ks]


def _tie_broken_ranks(ranked: np.ndarray) -> np.ndarray:
    """1-based rank of the last element of each value's tied run, along
    each row of row-sorted scores; one shared row when no row has ties."""
    n = ranked.shape[1]
    run_end = np.empty(ranked.shape, dtype=bool)
    run_end[:, :-1] = ranked[:, 1:] != ranked[:, :-1]
    run_end[:, -1] = True
    if run_end.all():
        return np.arange(1, n + 1)
    ends = np.where(run_end, np.arange(n), n)
    return np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1] + 1


def _kernel_weights(spec: QuantileEstimatorSpec, rows: np.ndarray, c) -> np.ndarray:
    """Gaussian-kernel weights of each row of (K, n) scores at its level.

    Raw weights are u_i = phi_h(i*/N - c), with i* the tie-broken rank
    and phi_h the Gaussian density of scale h.  normalize=True divides
    by sum(u) (the default: value stays inside [min, max] of the
    scores); paper_exact divides by N verbatim.  The normalized weights
    are computed with a shifted exponent so that the h -> 0 limit
    degrades gradually to a one-hot at the rank nearest c instead of
    underflowing to 0/0.
    """
    h = float(spec.bandwidth)
    n_rows, n = rows.shape
    order = np.argsort(rows, axis=1)  # ties share a weight: any order
    if n_rows > 1:
        order += n * np.arange(n_rows)[:, None]  # flat indices into rows
    ranked = rows.ravel()[order]
    x = _tie_broken_ranks(ranked) / n - (c if isinstance(c, float) else c[:, None])
    expo = -0.5 * (x / h) ** 2
    if spec.normalize:
        shifted = np.exp(expo - expo.max(axis=-1, keepdims=True))
        w = shifted / shifted.sum(axis=-1, keepdims=True)
    else:
        u = np.exp(expo) / (h * _SQRT_2PI)
        w = u / n
    dense = np.empty(rows.shape)
    dense.ravel()[order] = w
    return dense


def estimate(spec: QuantileEstimatorSpec, scores, c) -> QuantileResult:
    """The spec's estimate of a score vector or matrix; c is ignored by
    INTERVAL.

    scores is a vector, or an (n, K) matrix estimated column by column;
    for a matrix, c is one level or a K-vector of levels, one per column.
    Every kind weights each column on its own, as rows of a C-ordered
    (K, n) array, and takes each value as the dot product of a row of
    weights with its scores.
    """
    s = _checked(scores)
    rows = s[None] if s.ndim == 1 else np.ascontiguousarray(s.T)
    if spec.kind is EstimatorKind.KERNEL:
        w = _kernel_weights(spec, rows, _check_level(c, s))
    else:
        weights_of, params = _plan(spec, s, c)
        w = np.empty(rows.shape)
        for p in set(params):  # the columns sharing a rank window at once
            idx = [j for j, q in enumerate(params) if q == p]
            w[idx] = weights_of(rows[idx], p)
    if s.ndim == 1:
        return QuantileResult(float(w[0] @ s), w[0])
    return QuantileResult(row_dots(w, rows), w.T)


def estimate_values(spec: QuantileEstimatorSpec, scores, c) -> np.ndarray:
    """The K column estimates of an (n, K) score matrix, without weights.

    point and kernel return estimate's values.  lower_mean and interval
    sum each column's window as np.partition leaves it, which builds no
    (n, K) weight matrix; a value can differ from estimate's dot product
    in the last bits.
    """
    s = _checked(scores)
    if s.ndim != 2:
        raise InvalidSpec("estimate_values takes an (n, K) score matrix")
    if spec.kind in (EstimatorKind.POINT, EstimatorKind.KERNEL):
        return estimate(spec, s, c).value
    _, windows = _plan(spec, s, c)
    return np.array([
        _window(col, lo, hi)[0][lo:hi].sum() / (hi - lo)
        for col, (lo, hi) in zip(s.T, windows)
    ])
