"""Empirical quantile estimators over score vectors and score matrices.

Every estimator works along the sample axis.  It takes a vector of n
scores, or an (n, K) matrix whose K columns (one per model, say) are
estimated independently, each with the weights a call on that column
alone gives.  A matrix takes one level for all columns or a K-vector of
levels, one per column.  The estimate is a weighted average of the
scores; the weights are what the surrogate-loss gradients differentiate
through (weights themselves are rank-dependent and treated as locally
constant), and estimate computes every value as that weighted sum.

The canonical exact quantile at level c of N ascending order statistics
is the k-th one with k = max{ integer k >= 1 : k/N <= c }; when no such
k exists (c < 1/N) it is the minimum score.  Duplicated values occupy
multiple ranks, so ties count multiply.

Ranks are those of a stable sort: tied scores take consecutive ranks in
input order.  The point, lower-mean and interval estimators and
exact_quantile find their order statistics with np.partition, in O(n)
and without sorting, and then pick exactly the positions a stable sort
would put at the selected ranks.  The kernel estimator weights every
rank, so it sorts along each column.  Untied columns scatter a cached
table of the weights at ranks 1..n; in tied ones each score of a run
takes the weight of the run's last rank, by the same formula, so the
weights are the same either way and the sort need not be stable.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateInterval, EmptyInput, InvalidSpec
from .types import EstimatorKind, QuantileEstimatorSpec, typed

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class QuantileResult:
    """Estimate plus the weights that produced it.

    For a vector of n scores, value is a float and weights a read-only
    n-vector aligned with the *input* score order (not sorted order);
    value is weights times scores as row_dots sums it, whatever the BLAS
    thread count, which for n <= 8192 is float(weights @ scores).

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


def _checked(scores, vector: bool = False) -> np.ndarray:
    """Finite nonempty scores: a vector, or unless vector, an (n, K) matrix."""
    s = np.asarray(scores, dtype=np.float64)
    if vector and s.ndim != 1:
        raise InvalidSpec("scores must be a 1-d array")
    if s.ndim not in (1, 2):
        raise InvalidSpec("scores must be a vector or an (n, K) matrix")
    if s.size == 0:
        raise EmptyInput("empty score vector")
    # a finite sum proves every score finite without an (n, K) mask
    if not np.isfinite(s.sum()) and not np.isfinite(s).all():
        raise InvalidSpec("scores must be finite")
    return s


def _check_level(c, s=None, kind=None):
    """c as a float; for an (n, K) matrix s, also a K-vector of levels;
    c as given for kind INTERVAL, which ignores it."""
    if kind is EstimatorKind.INTERVAL:
        return c
    if not isinstance(c, (list, tuple, np.ndarray)) or np.ndim(c) == 0:
        c = typed(float, c[()] if isinstance(c, np.ndarray) else c, "quantile level")
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


_DOT_BLOCK = 2**13  # OpenBLAS splits a dot of over 10 000 terms across threads


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row of two (K, n) arrays, one product per
    block of _DOT_BLOCK columns, added left to right, so that the bits
    never depend on the BLAS thread count.  A C-ordered row of n <=
    _DOT_BLOCK is its 1-d dot bit for bit; a strided row sums in another
    order."""
    out = np.matmul(a[:, None, :_DOT_BLOCK], b[:, :_DOT_BLOCK, None])[:, 0, 0]
    for j in range(_DOT_BLOCK, a.shape[-1], _DOT_BLOCK):
        block = slice(j, j + _DOT_BLOCK)
        out += np.matmul(a[:, None, block], b[:, block, None])[:, 0, 0]
    return out


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
    s = _checked(scores, vector=True)
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
    inside = rows <= v_hi[:, None]
    if lo:
        inside &= rows >= v_lo[:, None]
    if np.count_nonzero(inside) == len(rows) * (hi - lo):
        return inside  # each row holds at least hi - lo, so exactly that
    # the rows where a tied run crosses an edge of the window
    for i in np.flatnonzero(np.count_nonzero(inside, axis=1) != hi - lo):
        s = rows[i]
        inside[i] = (s > v_lo[i]) & (s < v_hi[i])
        for v in {v_lo[i], v_hi[i]}:
            tied = np.flatnonzero(s == v)
            first = np.count_nonzero(s < v)
            inside[i, tied[max(lo - first, 0):hi - first]] = True
    return inside


def _window_weights(rows: np.ndarray, lo_hi) -> np.ndarray:
    """Weight 1/(hi - lo) on the stable ranks lo..hi-1 of each row,
    written over a partitioned copy of the rows once it has given each
    row's scores at ranks lo (-inf when lo is 0) and hi - 1."""
    lo, hi = lo_hi
    part = np.partition(rows, hi - 1, axis=-1)
    v_lo, v_hi = np.full(len(rows), -np.inf), part[:, hi - 1]
    if lo:
        v_hi = v_hi.copy()  # the second pass moves rank hi - 1
        # two single-rank passes: np.partition with two ranks took 6x as
        # long at n = 20 000
        part[:, :hi].partition(lo, axis=-1)
        v_lo = part[:, lo]
    np.copyto(part, _stable_window(rows, lo, hi, v_lo, v_hi))
    part *= 1.0 / (hi - lo)
    return part


def _point_weights(rows: np.ndarray, k: int) -> np.ndarray:
    """One-hot weight on the k-th order statistic of each row.

    With ties, the weight sits on the last input position holding that
    value (the last of its tied run in a stable sort), so the value
    still equals exact_quantile.
    """
    v = np.partition(rows, k - 1, axis=1)[:, k - 1 : k]
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] == v, axis=1)
    return (np.arange(rows.shape[1]) == last[:, None]) * 1.0


def _plan(spec: QuantileEstimatorSpec, rows: np.ndarray, c):
    """(weights_of, params) of a partition-based kind over (K, n) score
    rows: weights_of(block, params[j]) weighs each of a block of rows by
    row j's params.

    point puts a one-hot on rank k = max(1, max{k : k/N <= c});
    lower_mean averages ranks 0..k-1, so it lower-bounds the point
    estimate and makes the downstream loss convex for linear models
    (c < 1/N falls back to k=1, the minimum, so small constraint
    minibatches never abort training); interval averages the ascending
    order statistics at 1-based indices lo+1 through hi inclusive, with
    lo and hi the largest k with k/N <= k1 and k/N <= k2, and ignores c.
    """
    columns, n = rows.shape
    if spec.kind is EstimatorKind.INTERVAL:
        lo, hi = order_rank(n, spec.k1), order_rank(n, spec.k2)
        if hi <= lo:
            raise DegenerateInterval(
                f"window ({spec.k1}, {spec.k2}] selects no order statistics "
                f"for n={n}"
            )
        return _window_weights, [(lo, hi)] * columns
    levels = np.full(columns, c).tolist()
    ranks = {v: max(1, order_rank(n, v)) for v in set(levels)}
    ks = [ranks[v] for v in levels]
    if spec.kind is EstimatorKind.POINT:
        return _point_weights, ks
    return _window_weights, [(0, k) for k in ks]


def _kernel_at(ranks: np.ndarray, n: int, c, h: float, normalize: bool):
    """u_i = phi_h(i/N - c) at 1-based ranks i, (n,) or (K, n), with
    phi_h the Gaussian density of scale h and c a 1- or K-vector of levels.
    normalize=True divides by sum(u) (the default: value stays inside
    [min, max] of the scores), through a shifted exponent, so h -> 0
    tends to a one-hot at the rank nearest c instead of 0/0;
    normalize=False divides by N, as the paper does.
    """
    x = ranks / n - c[:, None]
    expo = -0.5 * (x / h) ** 2
    if normalize:
        shifted = np.exp(expo - expo.max(axis=-1, keepdims=True))
        return shifted / shifted.sum(axis=-1, keepdims=True)
    return np.exp(expo) / (h * _SQRT_2PI) / n


_TABLE_MAX = 2**16  # weights in a cached table (512 KiB); 16 tables at most


@functools.lru_cache(maxsize=16)
def _sorted_table(n: int, level, h: float, normalize: bool) -> np.ndarray:
    """Read-only (L, n) _kernel_at ranks 1..n at the L float64 levels in level."""
    c = np.frombuffer(level)
    return _frozen(_kernel_at(np.arange(1, n + 1), n, c, h, normalize))


def _kernel_weights(spec: QuantileEstimatorSpec, rows: np.ndarray, c) -> np.ndarray:
    """Gaussian-kernel weights of each row of (K, n) scores at its level:
    _kernel_at each score's tie-broken rank, which is 1..n in sorted
    order when no row has a tie, so that a cached table serves."""
    h, normalize, c = spec.bandwidth, spec.normalize, np.atleast_1d(c)
    n_rows, n = rows.shape
    order = np.argsort(rows, axis=1)  # ties share a weight: any order
    order += n * np.arange(n_rows)[:, None]  # flat indices into rows
    ranked = rows.ravel()[order]
    run_end = np.ones(rows.shape, dtype=bool)  # last of a run of ties
    run_end[:, :-1] = ranked[:, 1:] != ranked[:, :-1]
    if run_end.all() and n * c.size <= _TABLE_MAX:
        w = _sorted_table(n, c.tobytes(), h, normalize)
    else:  # tied, or too large to keep: rank i* is that of its run's end
        ends = np.where(run_end, np.arange(n), n)
        ranks = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1] + 1
        w = _kernel_at(ranks, n, c, h, normalize)
    dense = np.empty(rows.shape)
    dense.ravel()[order] = w
    return dense


def _row_weights(spec: QuantileEstimatorSpec, rows: np.ndarray, c) -> np.ndarray:
    """Weights of C-ordered (K, n) finite scores, row j at level c or
    c[j] of a float64 K-vector; unchecked (see estimate and core_eval)."""
    if spec.kind is EstimatorKind.KERNEL:
        return _kernel_weights(spec, rows, c)
    weights_of, params = _plan(spec, rows, c)
    if len(set(params)) == 1:  # no gather and scatter
        return weights_of(rows, params[0])
    w = np.empty(rows.shape)
    for p in set(params):  # the rows sharing a rank window at once
        idx = [j for j, q in enumerate(params) if q == p]
        w[idx] = weights_of(rows[idx], p)
    return w


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
    w = _row_weights(spec, rows, _check_level(c, s, spec.kind))
    if s.ndim == 1:
        return QuantileResult(float(row_dots(w, rows)[0]), w[0])
    return QuantileResult(row_dots(w, rows), w.T)

