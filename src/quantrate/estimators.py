"""Empirical quantile estimators over score vectors and score matrices.

Every estimator works along the sample axis.  It takes a vector of n
scores, or an (n, K) matrix whose K columns (one per model, say) are
estimated independently, each with the weights a call on that column
alone gives.  A matrix takes one level for all columns or a K-vector of
levels, one per column.  The estimate is a weighted average of the
scores; the weights are what the surrogate-loss gradients differentiate
through (weights themselves are rank-dependent and treated as locally
constant).

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
from functools import cached_property

import numpy as np

from .errors import DegenerateInterval, EmptyInput, InvalidSpec
from .types import EstimatorKind, QuantileEstimatorSpec

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class QuantileResult:
    """Estimate plus the weights that produced it.

    For a vector of n scores, value is a float, weights a read-only
    n-vector aligned with the *input* score order (not sorted order),
    support the input indices carrying nonzero weight, and value equals
    float(weights @ scores).

    For an (n, K) score matrix, value holds the K column estimates,
    weights is the read-only (n, K) matrix whose column j is the weight
    vector of column j, and support is the tuple of the K columns'
    supports.  weights is the transpose of a C-ordered (K, n) array, so
    each column is contiguous and row_dots(weights.T, scores.T) gives
    the vector calls' values bit for bit when scores.T is C-ordered too.
    The kernel's values are those and point's equal them; lower_mean's
    and interval's sum the selected scores and may differ in the last
    bits.  The partition-based kinds compute a matrix's values, weights
    and support only when first read, from the scores passed in (which
    must not have changed since), so a caller that reads only the
    values allocates no (n, K) weight matrix, and one that reads only
    the weights partitions each column once.
    """

    def __init__(self, value, weights):
        # each the result itself, or a function that builds it on first read
        self._value = value
        self._weights = weights if callable(weights) else _frozen(weights)

    @property
    def value(self):
        if callable(self._value):
            self._value = self._value()
        return self._value

    @property
    def weights(self) -> np.ndarray:
        if callable(self._weights):
            self._weights = _frozen(self._weights())
        return self._weights

    @cached_property
    def support(self):
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


def _ranks(n: int, c) -> list:
    """max(1, order_rank(n, c)) for a checked level or each of a vector
    of them."""
    if isinstance(c, float):
        return max(1, order_rank(n, c))
    return [max(1, order_rank(n, float(v))) for v in c]


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


def _result(s: np.ndarray, weights_of, value_of, param) -> QuantileResult:
    """The result of a partition-based kind, column by column.

    weights_of(col, p) is a column's dense weight vector and
    value_of(col, p) its estimate, p being param, or its j-th entry for
    column j when param is a list.  A vector's value is the dot product
    of its weights with it; a matrix's values come from value_of alone,
    and both wait until they are read.  Each column is partitioned on
    its own, so no (n, K) working copy is made.
    """
    if s.ndim == 1:
        w = weights_of(s, param)
        return QuantileResult(float(w @ s), w)
    params = param if isinstance(param, list) else [param] * s.shape[1]
    columns = list(zip(s.T, params))

    def weights():
        rows = np.empty(s.shape[::-1])
        for row, (col, p) in zip(rows, columns):
            row[:] = weights_of(col, p)
        return rows.T

    return QuantileResult(
        lambda: np.array([value_of(col, p) for col, p in columns]), weights
    )


def _stable_window(s: np.ndarray, lo: int, hi: int, v_lo, v_hi) -> np.ndarray:
    """Mask of the positions a stable sort of s puts at ranks lo..hi-1.

    v_lo and v_hi are the scores at ranks lo and hi - 1 (v_lo may be
    -inf when lo is 0).  Every score strictly between them is in.  A
    stable sort ranks the scores tied with an edge value in input order,
    starting from the count of smaller scores; those whose rank falls in
    the window are in.
    """
    inside = s <= v_hi if lo == 0 else (s >= v_lo) & (s <= v_hi)
    if np.count_nonzero(inside) == hi - lo:
        return inside  # no tied run crosses an edge of the window
    inside = (s > v_lo) & (s < v_hi)
    for v in {v_lo, v_hi}:
        tied = np.flatnonzero(s == v)
        first = np.count_nonzero(s < v)
        inside[tied[max(lo - first, 0):hi - first]] = True
    return inside


def _window_mean(s: np.ndarray, windows) -> QuantileResult:
    """Weight 1/(hi - lo) on each column's stable ranks lo..hi-1, for
    one (lo, hi) window or a list of one per column."""

    def window(col, lo, hi):
        """A copy of col holding its ranks lo..hi-1 at slots lo..hi-1,
        and the scores at ranks lo (-inf when lo is 0) and hi - 1."""
        part = np.partition(col, hi - 1)
        v_hi = part[hi - 1]
        if lo == 0:
            return part, -np.inf, v_hi
        # two single-rank passes: np.partition with two ranks took 6x
        # as long at n = 20 000
        part[:hi].partition(lo)
        return part, part[lo], v_hi

    def weights_of(col, lo_hi):
        lo, hi = lo_hi
        _, v_lo, v_hi = window(col, lo, hi)
        return _stable_window(col, lo, hi, v_lo, v_hi) * (1.0 / (hi - lo))

    def value_of(col, lo_hi):
        lo, hi = lo_hi
        return window(col, lo, hi)[0][lo:hi].sum() / (hi - lo)

    return _result(s, weights_of, value_of, windows)


def point_estimator(scores, c) -> QuantileResult:
    """One-hot weight on the exact-quantile order statistic.

    With ties, the weight sits on the last input position holding that
    value (the last of its tied run in a stable sort), so the value
    still equals exact_quantile.
    """
    s = _checked(scores)
    ks = _ranks(s.shape[0], _check_level(c, s))

    def weights_of(col, k):
        v = np.partition(col, k - 1)[k - 1]
        w = np.zeros(col.size)
        w[np.flatnonzero(col == v)[-1]] = 1.0
        return w

    def value_of(col, k):
        return np.partition(col, k - 1)[k - 1]

    return _result(s, weights_of, value_of, ks)


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


def kernel_estimator(
    scores, c, bandwidth, normalize: bool = True, paper_exact: bool = False
) -> QuantileResult:
    """Gaussian-kernel weighted average of order statistics.

    Raw weights are u_i = phi_h(i*/N - c), with i* the tie-broken rank
    and phi_h the Gaussian density of scale h.  normalize=True divides
    by sum(u) (the default: value stays inside [min, max] of the
    scores); paper_exact divides by N verbatim.  The normalized weights
    are computed with a shifted exponent so that the h -> 0 limit
    degrades gradually to a one-hot at the rank nearest c instead of
    underflowing to 0/0.

    Works on the models as rows, (K, n), so that each model's scores
    are contiguous; every rank carries weight, so the weights of a
    matrix are built with its values.
    """
    s = _checked(scores)
    c = _check_level(c, s)
    h = float(bandwidth)
    if not h > 0:
        raise InvalidSpec(f"bandwidth must be positive, got {bandwidth}")
    if paper_exact and normalize:
        raise InvalidSpec("paper_exact and normalize are exclusive")
    rows = s[None] if s.ndim == 1 else np.ascontiguousarray(s.T)
    n_rows, n = rows.shape
    order = np.argsort(rows, axis=1)  # ties share a weight: any order
    if n_rows > 1:
        order += n * np.arange(n_rows)[:, None]  # flat indices into rows
    ranked = rows.ravel()[order]
    x = _tie_broken_ranks(ranked) / n - (c if isinstance(c, float) else c[:, None])
    expo = -0.5 * (x / h) ** 2
    if normalize:
        shifted = np.exp(expo - expo.max(axis=-1, keepdims=True))
        w = shifted / shifted.sum(axis=-1, keepdims=True)
    else:
        u = np.exp(expo) / (h * _SQRT_2PI)
        w = u / n
    dense = np.empty(rows.shape)
    dense.ravel()[order] = w
    if s.ndim == 1:
        return QuantileResult(float(dense[0] @ s), dense[0])
    return QuantileResult(row_dots(dense, rows), dense.T)


def lower_mean_estimator(scores, c) -> QuantileResult:
    """Mean of the k smallest scores, k = max(1, max{k : k/N <= c}).

    Lower-bounds the point estimate and makes the downstream loss convex
    for linear models.  c < 1/N falls back to k=1 (the minimum), so
    small constraint minibatches never abort training.
    """
    s = _checked(scores)
    ks = _ranks(s.shape[0], _check_level(c, s))
    if isinstance(ks, list):
        return _window_mean(s, [(0, k) for k in ks])
    return _window_mean(s, (0, ks))


def interval_estimator(scores, k1, k2) -> QuantileResult:
    """Average of the ascending order statistics at 1-based indices
    floor(N*k1)+1 through floor(N*k2) inclusive."""
    s = _checked(scores)
    k1 = float(k1)
    k2 = float(k2)
    if not (0.0 < k1 < k2 < 1.0):
        raise InvalidSpec(
            f"interval levels must satisfy 0 < k1 < k2 < 1, got {k1}, {k2}"
        )
    n = s.shape[0]
    lo = int(math.floor(n * k1))
    hi = int(math.floor(n * k2))
    if hi <= lo:
        raise DegenerateInterval(
            f"window ({k1}, {k2}] selects no order statistics for n={n}"
        )
    return _window_mean(s, (lo, hi))


def estimate(spec: QuantileEstimatorSpec, scores, c) -> QuantileResult:
    """Dispatch on the estimator spec; c is ignored by INTERVAL.

    scores is a vector, or an (n, K) matrix estimated column by column;
    for a matrix, c is one level or a K-vector of levels, one per column.
    """
    if spec.kind is EstimatorKind.POINT:
        return point_estimator(scores, c)
    if spec.kind is EstimatorKind.KERNEL:
        return kernel_estimator(
            scores, c, spec.bandwidth, spec.normalize, spec.paper_exact
        )
    if spec.kind is EstimatorKind.LOWER_MEAN:
        return lower_mean_estimator(scores, c)
    return interval_estimator(scores, spec.k1, spec.k2)
