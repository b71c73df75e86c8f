"""Empirical quantile estimators over score vectors.

Every estimator works along the sample axis of a vector of n scores.
Below the public calls there is one shape: a C-ordered (K, n) stack of
K score rows (one per model, say) at one level or one level per row,
each row weighed as a call on it alone would weigh it.  The estimate
is a weighted average of the scores; the weights are what the
surrogate-loss gradients differentiate through (weights themselves are
rank-dependent and treated as locally constant), and estimate computes
every value as that weighted sum.

The canonical exact quantile at level c of N ascending order statistics
is the k-th one with k = max{ integer k >= 1 : k/N <= c }; when no such
k exists (c < 1/N) it is the minimum score.  Duplicated values occupy
multiple ranks, so ties count multiply.

Ranks are those of a stable sort: tied scores take consecutive ranks in
input order.  The point, lower-mean and interval estimators and
exact_quantile find their order statistics with np.partition, in O(n)
and without sorting, and then pick exactly the positions a stable sort
would put at the selected ranks.  The kernel estimator weights every
rank, so it sorts along each row.  Untied rows scatter a cached
table of the weights at ranks 1..n; in tied ones each score of a run
takes the weight of the run's last rank, by the same formula, so the
weights are the same either way and the sort need not be stable.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateInterval, EmptyInput, InvalidSpec
from .types import EstimatorKind, QuantileEstimatorSpec, _frozen, typed, typed_array

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class QuantileResult:
    """Estimate plus the weights that produced it.

    value is a float and weights a read-only n-vector aligned with the
    *input* score order (not sorted order); value is weights times
    scores as row_dots sums it, whatever the BLAS thread count, which
    for n <= 8192 is float(weights @ scores).
    """

    def __init__(self, value: float, weights: np.ndarray):
        self.value = value
        self.weights = _frozen(weights)

    @property
    def support(self) -> np.ndarray:
        """The input indices carrying nonzero weight."""
        return _frozen(np.flatnonzero(self.weights))


def _checked(scores) -> np.ndarray:
    """Finite nonempty scores as a vector."""
    s = typed_array(scores, "scores", lambda shape: len(shape) == 1,
                    "scores must be a 1-d array")
    if s.size == 0:
        raise EmptyInput("empty score vector")
    return s


def _check_level(c) -> float:
    """c as a float in [0, 1]."""
    c = typed(float, c[()] if isinstance(c, np.ndarray) else c, "quantile level")
    if not 0.0 <= c <= 1.0:
        raise InvalidSpec(f"quantile level {c} outside [0, 1]")
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
    s = _checked(scores)
    k = max(1, order_rank(s.size, _check_level(c)))
    return float(np.partition(s, k - 1)[k - 1])


def _window_weights(rows: np.ndarray, hi: int, lo: int = 0) -> np.ndarray:
    """Weight 1/(hi - lo) on the positions a stable sort of each row puts
    at ranks lo..hi-1, written over a partitioned copy of the rows.

    Every score from the row's score at rank lo (the minimum when lo is
    0) to its score at rank hi - 1 is in, unless a tied run crosses an
    edge of the window.  A stable sort ranks the scores tied with an edge
    value in input order, starting from the count of smaller scores;
    those whose rank falls in the window are in.
    """
    part = np.partition(rows, hi - 1, axis=-1)
    if 0 < lo < hi - 1:
        # rank hi - 1 stays in place; two single-rank passes, since
        # np.partition with two ranks took 6x as long at n = 20 000
        part[:, : hi - 1].partition(lo, axis=-1)
    inside = rows <= part[:, hi - 1 : hi]
    if lo:
        inside &= rows >= part[:, lo : lo + 1]
    # each row holds hi - lo or more, more when a tied run crosses an edge
    if np.count_nonzero(inside) != rows.shape[0] * (hi - lo):
        for i in np.flatnonzero(np.count_nonzero(inside, axis=1) != hi - lo):
            s, v_lo, v_hi = rows[i], part[i, lo] if lo else -np.inf, part[i, hi - 1]
            inside[i] = (s > v_lo) & (s < v_hi)
            for v in {v_lo, v_hi}:
                tied = np.flatnonzero(s == v)
                first = np.count_nonzero(s < v)
                inside[i, tied[max(lo - first, 0):hi - first]] = True
    return np.multiply(inside, 1.0 / (hi - lo), out=part)


def _point_weights(rows: np.ndarray, k: int) -> np.ndarray:
    """One-hot weight on the k-th order statistic of each row.

    With ties, the weight sits on the last input position holding that
    value (the last of its tied run in a stable sort), so the value
    still equals exact_quantile.
    """
    v = np.partition(rows, k - 1, axis=1)[:, k - 1 : k]
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] == v, axis=1)
    return (np.arange(rows.shape[1]) == last[:, None]) * 1.0


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
    order += np.arange(0, n * n_rows, n)[:, None]  # flat indices into rows
    ranked = rows.ravel()[order]
    distinct = ranked[:, 1:] != ranked[:, :-1]
    if distinct.all() and n * c.size <= _TABLE_MAX:
        w = _sorted_table(n, c.tobytes(), h, normalize)
    else:  # tied, or too large to keep: rank i* is that of its run's end
        run_end = np.ones(rows.shape, dtype=bool)  # last of a run of ties
        run_end[:, :-1] = distinct
        ends = np.where(run_end, np.arange(n), n)
        ranks = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1] + 1
        w = _kernel_at(ranks, n, c, h, normalize)
    ranked.ravel()[order] = w  # the gather, free after the tie test
    return ranked


def _row_weights(spec: QuantileEstimatorSpec, rows: np.ndarray, c) -> np.ndarray:
    """Weights of C-ordered (K, n) finite scores, row j at level c or
    c[j] of a float64 K-vector; unchecked (see estimate and core_eval).

    point puts a one-hot on rank k = max(1, max{k : k/N <= c});
    lower_mean averages ranks 0..k-1, so it lower-bounds the point
    estimate and makes the downstream loss convex for linear models
    (c < 1/N falls back to k=1, the minimum, so small constraint
    minibatches never abort training); the rows of one rank are weighed
    at once.  interval averages the ascending order statistics at
    1-based indices lo+1 through hi inclusive, with lo and hi the
    largest k with k/N <= k1 and k/N <= k2, and ignores c.
    """
    if spec.kind is EstimatorKind.KERNEL:
        return _kernel_weights(spec, rows, c)
    n = rows.shape[1]
    if spec.kind is EstimatorKind.INTERVAL:
        lo, hi = order_rank(n, spec.k1), order_rank(n, spec.k2)
        if hi <= lo:
            raise DegenerateInterval(
                f"window ({spec.k1}, {spec.k2}] selects no order statistics "
                f"for n={n}"
            )
        return _window_weights(rows, hi, lo)
    weigh = _point_weights if spec.kind is EstimatorKind.POINT else _window_weights
    if np.ndim(c):
        if not (c == c[0]).all():  # the rows sharing a rank at once
            ranks = np.array([max(1, order_rank(n, v)) for v in c.tolist()])
            w = np.empty(rows.shape)
            for k in np.unique(ranks).tolist():
                at = ranks == k
                w[at] = weigh(rows[at], k)
            return w
        c = c[0]
    return weigh(rows, max(1, order_rank(n, float(c))))


def estimate(spec: QuantileEstimatorSpec, scores, c) -> QuantileResult:
    """The spec's estimate of a score vector at level c, which INTERVAL
    ignores: the weights _row_weights gives the one-row stack of the
    scores, and their dot product with the scores."""
    rows = _checked(scores)[None]
    level = c if spec.kind is EstimatorKind.INTERVAL else _check_level(c)
    w = _row_weights(spec, rows, level)
    return QuantileResult(float(row_dots(w, rows)[0]), w[0])
