"""Loader, split, standardization, and generator tests."""

import hashlib
import os

import numpy as np
import pytest

from quantrate import (
    Dataset,
    DegenerateSplit,
    EmptyInput,
    InvalidSpec,
    MixtureComponent,
    NonMonotonicIndex,
    NonpositiveScale,
    ParseError,
    RaggedRows,
    SplitSpec,
    SyntheticSpec,
    UnknownLabel,
    generate_mixture,
    generate_synthetic,
    load_delimited,
    load_sparse,
    split,
    standardize,
)
from quantrate.estimators import order_rank


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_delimited_basic(tmp_path):
    p = write(tmp_path, "a.csv", "1.0,2.0,g\n\n3.5,4.5,b\n")
    d = load_delimited(p, label_column=-1, positive_label_value="g")
    assert d.n == 2 and d.dim == 2
    assert d.features.tolist() == [[1.0, 2.0], [3.5, 4.5]]
    assert d.labels.tolist() == [1, -1]


def test_load_delimited_header_and_whitespace(tmp_path):
    p = write(tmp_path, "a.txt", "col1 col2 y\n1 2 yes\n3 4 no\n")
    d = load_delimited(p, label_column=2, positive_label_value="yes",
                       delimiter=None, header=True)
    assert d.labels.tolist() == [1, -1]
    assert d.features[1].tolist() == [3.0, 4.0]


def test_load_delimited_numeric_labels(tmp_path):
    # float comparison, not string: "50.0" and "50" both match 50.0
    p = write(tmp_path, "a.csv", "1.0,50.0\n2.0,50\n3.0,21.9\n")
    d = load_delimited(p, label_column=1, positive_label_value="50.0",
                       numeric_labels=True)
    assert d.labels.tolist() == [1, 1, -1]


def test_load_delimited_unknown_label_needs_both_values(tmp_path):
    p = write(tmp_path, "a.csv", "1.0,g\n2.0,x\n")
    # single-value mode folds everything else into -1
    d = load_delimited(p, label_column=1, positive_label_value="g")
    assert d.labels.tolist() == [1, -1]
    with pytest.raises(UnknownLabel):
        load_delimited(p, label_column=1, positive_label_value="g",
                       negative_label_value="b")


def test_load_delimited_ragged_reports_line(tmp_path):
    p = write(tmp_path, "a.csv", "h,h,h\n1,2,g\n3,4\n", )
    with pytest.raises(RaggedRows, match="row 3"):
        load_delimited(p, label_column=-1, positive_label_value="g",
                       header=True)


def test_load_delimited_parse_error_is_one_based(tmp_path):
    p = write(tmp_path, "a.csv", "1,2,g\n1,oops,g\n")
    with pytest.raises(ParseError) as info:
        load_delimited(p, label_column=-1, positive_label_value="g")
    assert info.value.row == 2
    assert info.value.col == 2
    p2 = write(tmp_path, "b.csv", "1,x\n")
    with pytest.raises(ParseError):
        load_delimited(p2, label_column=1, positive_label_value="5",
                       numeric_labels=True)


def test_load_delimited_label_column_bounds(tmp_path):
    p = write(tmp_path, "a.csv", "1,2,g\n")
    with pytest.raises(InvalidSpec):
        load_delimited(p, label_column=3, positive_label_value="g")
    with pytest.raises(EmptyInput):
        load_delimited(write(tmp_path, "e.csv", "\n\n"), 0, "g")


def test_load_sparse_zero_fills_to_global_width(tmp_path):
    p = write(tmp_path, "a.sp", "# comment line\n+1 1:2.5 3:1.0\n-1 5:4.0  # tail\n")
    d = load_sparse(p)
    assert d.dim == 5
    assert d.features[0].tolist() == [2.5, 0.0, 1.0, 0.0, 0.0]
    assert d.features[1].tolist() == [0.0, 0.0, 0.0, 0.0, 4.0]
    assert d.labels.tolist() == [1, -1]


def test_load_sparse_errors(tmp_path):
    with pytest.raises(ParseError, match="not numeric"):
        load_sparse(write(tmp_path, "a", "x 1:2\n"))
    with pytest.raises(ParseError, match="not \\+1 or -1"):
        load_sparse(write(tmp_path, "b", "2 1:2\n"))
    with pytest.raises(ParseError, match="idx:val"):
        load_sparse(write(tmp_path, "c", "+1 12\n"))
    with pytest.raises(ParseError, match="idx:val"):
        load_sparse(write(tmp_path, "d", "+1 a:b\n"))
    with pytest.raises(ParseError, match="1-based"):
        load_sparse(write(tmp_path, "e", "+1 0:2\n"))
    with pytest.raises(EmptyInput):
        load_sparse(write(tmp_path, "f", "# nothing\n\n"))


def delimited(**kwargs):
    return lambda path: load_delimited(path, **kwargs)


# (loader, file text, class, 1-based row and column, message)
PARSE_ERRORS = {
    "delimited_label": (
        delimited(label_column=0, positive_label_value="1", header=True,
                  numeric_labels=True),
        "y,x\n1,2\n\nx,3\n", ParseError, 4, 1, "label cell 'x' is not numeric"),
    "delimited_feature": (
        delimited(label_column=-1, positive_label_value="g"),
        "1,2,g\n1, oops ,g\n", ParseError, 2, 2, "feature cell 'oops' is not numeric"),
    "sparse_label": (
        load_sparse, "# c\n+1 1:2\nx 1:2\n", ParseError, 3, 1,
        "label 'x' is not numeric"),
    "sparse_label_not_signed_one": (
        load_sparse, "2 1:2\n", ParseError, 1, 1, "label '2' is not +1 or -1"),
    "sparse_no_colon": (
        load_sparse, "+1 12\n", ParseError, 1, 2, "expected idx:val, got '12'"),
    "sparse_no_value": (
        load_sparse, "+1 1:1 12:\n", ParseError, 1, 3, "expected idx:val, got '12:'"),
    "sparse_index_not_integer": (
        load_sparse, "-1 a:1\n", ParseError, 1, 2, "expected idx:val, got 'a:1'"),
    "sparse_value_not_numeric": (
        load_sparse, "-1 1:b\n", ParseError, 1, 2, "expected idx:val, got '1:b'"),
    "sparse_index_zero": (
        load_sparse, "+1 0:2\n", ParseError, 1, 2, "index 0 is not 1-based"),
    "sparse_index_repeated": (
        load_sparse, "+1 1:1 2:1\n-1 3:1 3:2\n", NonMonotonicIndex, 2, 3,
        "index 3 does not increase past 3"),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_loader_parse_errors_name_their_cell(tmp_path, case):
    load, text, cls, row, col, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as info:
        load(write(tmp_path, "data", text))
    assert type(info.value) is cls
    assert (info.value.row, info.value.col, info.value.message) == (row, col, message)
    assert str(info.value) == f"row {row}, col {col}: {message}"


def test_loaders_refuse_a_file_descriptor(tmp_path):
    # open() takes an int as a descriptor to read and then close
    fd = os.open(write(tmp_path, "a.csv", "+1 1:2\n"), os.O_RDONLY)
    try:
        with pytest.raises(InvalidSpec, match="path"):
            load_sparse(fd)
        with pytest.raises(InvalidSpec, match="path"):
            load_delimited(fd, label_column=0, positive_label_value="+1")
        os.fstat(fd)
    finally:
        os.close(fd)


def test_load_sparse_monotonic_index(tmp_path):
    p = write(tmp_path, "a.sp", "+1 1:1 2:1\n-1 3:1 3:2\n")
    with pytest.raises(NonMonotonicIndex) as info:
        load_sparse(p)
    assert info.value.row == 2
    assert info.value.col == 3  # second entry token, 2-based past the label
    assert isinstance(info.value, ParseError)


def ragged_dataset(rng, n=40):
    X = rng.standard_normal((n, 3))
    y = np.where(rng.random(n) < 0.35, 1, -1)
    if not (y == 1).any():
        y[0] = 1
    if not (y == -1).any():
        y[1] = -1
    return Dataset(X, y)


def largest_k(n, c):
    """max{k : k/n <= c}, by scanning every k."""
    return max(k for k in range(n + 1) if k / n <= c)


def test_split_sizes_and_partition():
    rng = np.random.default_rng(79)
    for _ in range(30):
        d = ragged_dataset(rng)
        frac = float(rng.uniform(0.2, 0.8))
        tr, te = split(d, SplitSpec(train_fraction=frac, seed=5))
        assert tr.n == largest_k(d.n, frac)
        assert tr.n + te.n == d.n
        n_pos = d.positive_indices().size
        assert tr.positive_indices().size == largest_k(n_pos, frac)
        # the two sides tile the original rows exactly once
        joined = np.vstack([tr.features, te.features])
        assert sorted(map(tuple, joined)) == sorted(map(tuple, d.features))


def test_split_size_at_a_float_edge():
    # 0.58 * 50 and 0.7 * 90 round just below 29 and 63
    for n, frac, size in ((50, 0.58, 29), (90, 0.7, 63)):
        assert largest_k(n, frac) == size
        d = Dataset(np.arange(float(n))[:, None], [1, -1] * (n // 2))
        tr, te = split(d, SplitSpec(frac, seed=1, stratified=False))
        assert (tr.n, te.n) == (size, n - size)


def test_split_sides_keep_original_order():
    d = Dataset(np.arange(20.0)[:, None], [1, -1] * 10)
    tr, te = split(d, SplitSpec(train_fraction=0.5, seed=3))
    assert np.all(np.diff(tr.features[:, 0]) > 0)
    assert np.all(np.diff(te.features[:, 0]) > 0)


def test_split_determinism_and_degenerate():
    d = ragged_dataset(np.random.default_rng(83))
    a1, b1 = split(d, SplitSpec(train_fraction=0.4, seed=11))
    a2, b2 = split(d, SplitSpec(train_fraction=0.4, seed=11))
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(b1.labels, b2.labels)
    a3, _ = split(d, SplitSpec(train_fraction=0.4, seed=12))
    assert not np.array_equal(a1.features, a3.features)
    tiny = Dataset([[1.0], [2.0], [3.0]], [1, -1, 1])
    with pytest.raises(DegenerateSplit):
        split(tiny, SplitSpec(train_fraction=0.1, seed=0))


def test_split_sweep_keeps_both_sides_and_the_train_count():
    # every n <= 60, positive count p, and fraction k/n or a float
    # neighbour of it.  A stratified train side takes pos of the p
    # positives and size - pos of the negatives, so it holds size rows
    # and leaves n - size >= 1 when 0 <= size - pos <= n - p.  Up to
    # n = 20, split runs once per distinct count pair: its sizes depend
    # on the fraction only through them.
    for n in range(2, 61):
        fractions = sorted({float(g) for k in range(1, n)
                            for g in (np.nextafter(k / n, 0.0), k / n,
                                      np.nextafter(k / n, 1.0))})
        seen = set()
        for p in range(n + 1):
            d = Dataset(np.arange(float(n))[:, None], [1] * p + [-1] * (n - p))
            for f in fractions:
                size, pos = order_rank(n, f), order_rank(p, f)
                if 1 <= size < n:
                    assert 0 <= pos <= p and 0 <= size - pos <= n - p
                for key in ((False, size), (True, size, pos, p)):
                    if n > 20 or key in seen:
                        continue
                    seen.add(key)
                    spec = SplitSpec(f, seed=n, stratified=key[0])
                    if not 1 <= size < n:
                        with pytest.raises(DegenerateSplit):
                            split(d, spec)
                        continue
                    train, test = split(d, spec)
                    assert (train.n, test.n) == (size, n - size)
                    assert train.n == largest_k(n, f)
                    if key[0]:
                        assert train.positive_indices().size == pos


def test_split_spec_validation():
    with pytest.raises(InvalidSpec):
        SplitSpec(train_fraction=0.0, seed=0)
    with pytest.raises(InvalidSpec):
        SplitSpec(train_fraction=1.0, seed=0)
    with pytest.raises(InvalidSpec):
        SplitSpec(train_fraction=0.5, seed=-1)


def test_standardize_statistics_and_roundtrip():
    rng = np.random.default_rng(89)
    X = rng.standard_normal((50, 3)) * 4.0 + 2.0
    X[:, 2] = 7.0  # zero-variance column
    y = np.where(rng.random(50) < 0.5, 1, -1)
    y[:2] = [1, -1]
    d = Dataset(X, y)
    tr, te = split(d, SplitSpec(train_fraction=0.6, seed=1))
    tr_s, te_s, tf = standardize(tr, te)
    assert np.allclose(tr_s.features[:, :2].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(tr_s.features[:, :2].std(axis=0), 1.0, atol=1e-12)
    assert np.all(tr_s.features[:, 2] == 0.0)
    assert np.all(te_s.features[:, 2] == 0.0)
    assert tf.std[2] == 1.0
    assert np.array_equal(te_s.labels, te.labels)


def test_generate_synthetic_geometry():
    spec = SyntheticSpec(n=4000, mean_separation=6.0, sigma=0.01,
                         seed=97, positive_prior=0.3, dim=3)
    d = generate_synthetic(spec)
    assert d.features.shape == (4000, 3)
    assert set(np.unique(d.labels)) <= {-1, 1}
    pos = d.features[d.labels == 1]
    neg = d.features[d.labels == -1]
    assert abs(pos.shape[0] / 4000 - 0.3) < 0.05
    assert np.allclose(pos[:, 0].mean(), 3.0, atol=0.01)
    assert np.allclose(neg[:, 0].mean(), -3.0, atol=0.01)
    assert np.allclose(pos[:, 1:].mean(axis=0), 0.0, atol=0.01)


def test_generate_synthetic_per_class_scales():
    spec = SyntheticSpec(n=6000, mean_separation=1.0, sigma=1.0, seed=101,
                         positive_prior=0.5, positive_scale=3.0,
                         negative_scale=0.5)
    d = generate_synthetic(spec)
    pos_sd = d.features[d.labels == 1][:, 1].std()
    neg_sd = d.features[d.labels == -1][:, 1].std()
    assert abs(pos_sd - 3.0) < 0.2
    assert abs(neg_sd - 0.5) < 0.05


def test_generate_synthetic_determinism_and_validation():
    spec = SyntheticSpec(n=100, mean_separation=2.0, sigma=1.0, seed=7)
    d1 = generate_synthetic(spec)
    d2 = generate_synthetic(spec)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)
    with pytest.raises(NonpositiveScale):
        SyntheticSpec(n=10, mean_separation=0.0, sigma=1.0, seed=0)
    with pytest.raises(NonpositiveScale):
        SyntheticSpec(n=10, mean_separation=1.0, sigma=-1.0, seed=0)
    with pytest.raises(NonpositiveScale):
        SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=0,
                      positive_scale=0.0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(n=0, mean_separation=1.0, sigma=1.0, seed=0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(n=10, mean_separation=1.0, sigma=1.0, seed=0,
                      positive_prior=1.0)


@pytest.mark.parametrize("params, digest", [
    (dict(n=500, mean_separation=2.0, sigma=1.0, seed=7),
     "963e5636be4a9bfc5e97f9bd9b002d791d5a4b76f1dcd5e6dcfd1fa4229dba57"),
    (dict(n=300, mean_separation=1.5, sigma=0.8, seed=11, positive_prior=0.3,
          dim=4, positive_scale=0.5, negative_scale=2.0),
     "8db51067264b5caa41ade43f9fa34fbcb61612d7d1388b031b009f7a79a5aeaf"),
    (dict(n=257, mean_separation=3.0, sigma=1.2, seed=5, positive_prior=0.85,
          dim=1, positive_scale=1.7),
     "b58fa6995ad5ba5c38fed8bce837d0c320f57fa2a2d04318c836a76bdb7bb097"),
    (dict(n=400, mean_separation=2.0, sigma=1.0, seed=3, positive_prior=0.001,
          dim=3),
     "2dcf6a8f34b039e6ef916b6a94dd0dc0159da448182b4fa44af81dc1b446a974"),
])
def test_generate_synthetic_frozen_bits(params, digest):
    # sha256 of the features' then the labels' bytes: any change to the
    # draw order or the arithmetic shows here
    d = generate_synthetic(SyntheticSpec(**params))
    data = d.features.tobytes() + d.labels.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_generate_mixture_labels_and_weight_scaling():
    comps = [
        MixtureComponent(label=-1, weight=1.0, mean=(0.0, 0.0), sigma=1.0),
        MixtureComponent(label=1, weight=1.0, mean=(4.0, 0.0), sigma=0.5),
    ]
    d = generate_mixture(comps, n=500, seed=13)
    assert d.n == 500 and d.dim == 2
    assert set(np.unique(d.labels)) <= {-1, 1}
    # scaling all weights together cannot change the draw
    doubled = [
        MixtureComponent(label=-1, weight=2.0, mean=(0.0, 0.0), sigma=1.0),
        MixtureComponent(label=1, weight=2.0, mean=(4.0, 0.0), sigma=0.5),
    ]
    d2 = generate_mixture(doubled, n=500, seed=13)
    assert np.array_equal(d.features, d2.features)
    assert np.array_equal(d.labels, d2.labels)


def test_generate_mixture_validation():
    good = MixtureComponent(label=1, weight=1.0, mean=(0.0,), sigma=1.0)
    with pytest.raises(EmptyInput):
        generate_mixture([], n=10, seed=0)
    with pytest.raises(InvalidSpec):
        generate_mixture([good], n=0, seed=0)
    short = MixtureComponent(label=-1, weight=1.0, mean=(0.0, 1.0), sigma=1.0)
    with pytest.raises(InvalidSpec):
        generate_mixture([good, short], n=10, seed=0)
    with pytest.raises(InvalidSpec):
        MixtureComponent(label=0, weight=1.0, mean=(0.0,), sigma=1.0)
    with pytest.raises(InvalidSpec):
        MixtureComponent(label=1, weight=0.0, mean=(0.0,), sigma=1.0)
    with pytest.raises(NonpositiveScale):
        MixtureComponent(label=1, weight=1.0, mean=(0.0,), sigma=0.0)


def test_dataset_validation_and_immutability():
    with pytest.raises(InvalidSpec):
        Dataset([[1.0]], [0])
    with pytest.raises(EmptyInput):
        Dataset(np.empty((0, 2)), [])
    with pytest.raises(InvalidSpec):
        Dataset([[np.inf]], [1])
    with pytest.raises(InvalidSpec):
        Dataset([[1.0], [2.0]], [1])
    d = Dataset([[1.0], [2.0]], [1, -1])
    with pytest.raises(ValueError):
        d.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        d.labels[0] = -1


def test_take_is_a_new_dataset_of_the_rows_bit_for_bit():
    # take skips the checks its rows passed when the set was built; its
    # arrays match a Dataset built from the same rows in bytes and flags
    rng = np.random.default_rng(55)
    d = Dataset(rng.standard_normal((40, 3)), np.where(rng.random(40) < 0.5, 1, -1))
    flags = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")
    for size in (1, 2, 3, 17, 40, 90):
        idx = rng.integers(-40, 40, size)
        for indices in (idx, list(idx), idx.astype(np.int32)):
            got, want = d.take(indices), Dataset(d.features[idx], d.labels[idx])
            assert type(got) is Dataset
            for a, b in ((got.features, want.features), (got.labels, want.labels)):
                assert a.tobytes() == b.tobytes()
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert [a.flags[f] for f in flags] == [b.flags[f] for f in flags]
                assert not a.flags.writeable and a.base is None
    with pytest.raises(EmptyInput):
        d.take([])
    with pytest.raises(EmptyInput):
        d.take(np.array([], dtype=np.int64))
    with pytest.raises(InvalidSpec):
        d.take([[0, 1]])  # rows of a 3-d matrix
