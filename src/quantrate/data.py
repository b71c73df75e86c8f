"""Dataset ingestion, splitting, standardization, and synthetic generators.

File loaders read their rows through one reader and report problems
by 1-based row and column.  Randomized operations (splits, generators)
are driven by numpy's PCG64 generator seeded explicitly, so identical
specs reproduce identical datasets bitwise on any platform with the
same numpy generator algorithm; the identifier "numpy-pcg64" is
recorded in trained-model outputs for that reason.  A named random
stream, a tuple of integer tags, gives its generator (stream) or a seed
(seed_of) through numpy's SeedSequence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyInput,
    InvalidSpec,
    NonMonotonicIndex,
    NonpositiveScale,
    ParseError,
    RaggedRows,
    UnknownLabel,
)
from .estimators import order_rank
from .types import Dataset, check_fraction, typed, typed_fields

GENERATOR_NAME = "numpy-pcg64"


def stream(*tags: int) -> np.random.Generator:
    """The random stream the tags name: PCG64 on SeedSequence(tags)."""
    return np.random.default_rng(np.random.SeedSequence(tags))


def seed_of(*tags: int) -> int:
    """A seed the tags name: SeedSequence(tags)'s first state word."""
    return int(np.random.SeedSequence(tags).generate_state(1)[0])


@dataclass(frozen=True)
class SplitSpec:
    """Train/test partition parameters.

    The train size is the largest k with k/n <= train_fraction, and
    stratified mode applies the same rule to the positive class, so both
    sides keep the original positive fraction within one sample.
    """

    train_fraction: float
    seed: int
    stratified: bool = True

    def __post_init__(self):
        typed_fields(self)
        check_fraction(self.train_fraction, "train_fraction", open_top=True)
        if self.seed < 0:
            raise InvalidSpec("seed must be a nonnegative integer")


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-class isotropic Gaussian generator parameters.

    Class means sit at +/- mean_separation/2 along the first axis.  The
    optional per-class scale factors multiply sigma for that class only
    (both default 1, the symmetric case).
    """

    n: int
    mean_separation: float
    sigma: float
    seed: int
    positive_prior: float = 0.1
    dim: int = 2
    positive_scale: float = 1.0
    negative_scale: float = 1.0

    def __post_init__(self):
        typed_fields(self)
        if self.n < 1:
            raise InvalidSpec("n must be positive")
        check_fraction(self.positive_prior, "positive_prior", open_top=True)
        if self.dim < 1:
            raise InvalidSpec("dim must be positive")
        for name in ("mean_separation", "sigma", "positive_scale", "negative_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise NonpositiveScale(f"{name} must be positive and finite")
        if self.seed < 0:
            raise InvalidSpec("seed must be a nonnegative integer")


@dataclass(frozen=True)
class MixtureComponent:
    """One Gaussian blob of a labeled mixture."""

    label: int
    weight: float
    mean: Tuple[float, ...]
    sigma: float

    def __post_init__(self):
        typed_fields(self)
        if self.label not in (-1, 1):
            raise InvalidSpec("component label must be -1 or +1")
        if not 0 < self.weight < np.inf:
            raise InvalidSpec("component weight must be positive and finite")
        if not 0 < self.sigma < np.inf:
            raise NonpositiveScale("component sigma must be positive and finite")
        if not np.all(np.isfinite(self.mean)):
            raise InvalidSpec("component mean must be finite")


@dataclass(frozen=True)
class StandardizeTransform:
    """Per-feature affine map fit on a training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def inverse(self, features) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) * self.std + self.mean


def _parsed(read, text: str, what: str, row: int, col: int):
    """read(text), the one reading of a data cell: a ValueError becomes
    ParseError(what.format(text)) at the cell's 1-based row and column."""
    try:
        return read(text)
    except ValueError:
        raise ParseError(what.format(text), row, col) from None


def _entry(token: str) -> Tuple[int, float]:
    head, _, tail = token.partition(":")
    return int(head), float(tail)


def _data_rows(path, skip: int = 0, comment: Optional[str] = None):
    """(1-based row number, row) of each non-blank row of a UTF-8 text
    file after its first skip rows, with the text from comment on cut;
    EmptyInput when there is none."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidSpec(f"path must be a str or path-like, got {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[skip:]
    rows = []
    for lineno, line in enumerate(lines, start=1 + skip):
        if comment:
            line = line.split(comment, 1)[0]
        if line.strip():
            rows.append((lineno, line))
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    return rows


def load_delimited(
    path,
    label_column: int,
    positive_label_value: str,
    delimiter: Optional[str] = ",",
    header: bool = False,
    negative_label_value: Optional[str] = None,
    numeric_labels: bool = False,
) -> Dataset:
    """Parse a rectangular delimited text file into a Dataset.

    Parameters
    ----------
    path : path-like
        UTF-8 text file, one sample per line.
    label_column : int
        Column holding the class label; negative values index from the
        end (-1 is the last column).
    positive_label_value : str
        Cell value mapped to +1.
    delimiter : str or None
        Cell separator; None splits on arbitrary whitespace.
    header : bool
        Skip the first line when true.
    negative_label_value : str, optional
        When given, any label cell matching neither value raises
        UnknownLabel; when omitted every non-positive label maps to -1.
    numeric_labels : bool
        Compare label cells as floats instead of strings (for data
        where the label is a numeric column, e.g. a capped regression
        target).
    """
    rows = []
    for lineno, line in _data_rows(path, skip=int(header)):
        cells = line.split(delimiter) if delimiter else line.split()
        rows.append((lineno, [c.strip() for c in cells]))
    width = len(rows[0][1])
    for lineno, cells in rows:
        if len(cells) != width:
            raise RaggedRows(
                f"row {lineno} has {len(cells)} columns, expected {width}"
            )
    col = label_column if label_column >= 0 else width + label_column
    if not 0 <= col < width:
        raise InvalidSpec(
            f"label_column {label_column} outside a {width}-column file"
        )
    read = float if numeric_labels else str
    pos_value = read(positive_label_value.strip())
    neg_value = (
        read(negative_label_value.strip()) if negative_label_value is not None else None
    )
    features = np.empty((len(rows), width - 1), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    for i, (lineno, cells) in enumerate(rows):
        raw = cells[col]
        value = _parsed(read, raw, "label cell {!r} is not numeric", lineno, col + 1)
        if value == pos_value:
            labels[i] = 1
        elif neg_value is not None and value != neg_value:
            raise UnknownLabel(
                f"row {lineno}: label {raw!r} matches neither class value"
            )
        else:
            labels[i] = -1
        features[i] = [
            _parsed(float, cell, "feature cell {!r} is not numeric", lineno, j + 1)
            for j, cell in enumerate(cells) if j != col
        ]
    return Dataset(features, labels)


def load_sparse(path) -> Dataset:
    """Parse "label idx:val ..." lines into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a line;
    entries absent from a line are zero.  Text after "#" is a comment.
    """
    parsed = []
    max_index = 0
    for lineno, line in _data_rows(path, comment="#"):
        tokens = line.split()
        label_value = _parsed(float, tokens[0], "label {!r} is not numeric", lineno, 1)
        if label_value not in (-1.0, 1.0):
            raise ParseError(
                f"label {tokens[0]!r} is not +1 or -1", lineno, 1
            )
        entries = []
        previous = 0
        for pos, token in enumerate(tokens[1:], start=2):
            index, value = _parsed(_entry, token, "expected idx:val, got {!r}",
                                   lineno, pos)
            if index < 1:
                raise ParseError(
                    f"index {index} is not 1-based", lineno, pos
                )
            if index <= previous:
                raise NonMonotonicIndex(
                    f"index {index} does not increase past {previous}",
                    lineno,
                    pos,
                )
            previous = index
            entries.append((index, value))
        max_index = max(max_index, previous)
        parsed.append((int(label_value), entries))
    features = np.zeros((len(parsed), max_index), dtype=np.float64)
    labels = np.empty(len(parsed), dtype=np.int64)
    for i, (label, entries) in enumerate(parsed):
        labels[i] = label
        for index, value in entries:
            features[i, index - 1] = value
    return Dataset(features, labels)


def split(dataset: Dataset, spec: SplitSpec) -> Tuple[Dataset, Dataset]:
    """Deterministic train/test partition.

    The train side holds the largest k with k/n <= train_fraction
    samples; the stratified variant pins its positive count by the same
    rule against the number of positives.  Row order within each side
    follows the original dataset order.
    """
    n = dataset.n
    n_train = order_rank(n, spec.train_fraction)
    if n_train < 1 or n_train >= n:
        raise DegenerateSplit(
            f"fraction {spec.train_fraction} of {n} samples leaves an "
            "empty side"
        )
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        pos = dataset.positive_indices()
        neg = dataset.negative_indices()
        n_pos_train = order_rank(pos.size, spec.train_fraction)
        n_neg_train = n_train - n_pos_train
        pos_perm = pos[rng.permutation(pos.size)]
        neg_perm = neg[rng.permutation(neg.size)]
        train_idx = np.concatenate(
            [pos_perm[:n_pos_train], neg_perm[:n_neg_train]]
        )
        test_idx = np.concatenate(
            [pos_perm[n_pos_train:], neg_perm[n_neg_train:]]
        )
    else:
        perm = rng.permutation(n)
        train_idx = perm[:n_train]
        test_idx = perm[n_train:]
    return dataset.take(np.sort(train_idx)), dataset.take(np.sort(test_idx))


def standardize(
    train: Dataset, test: Dataset
) -> Tuple[Dataset, Dataset, StandardizeTransform]:
    """Shift/scale features to train mean 0 and stdev 1.

    Statistics come from the train side only (population stdev);
    zero-variance features keep scale 1, so they map to exactly 0.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    transform = StandardizeTransform(mean=mean, std=std)
    train_out = Dataset(transform.apply(train.features), train.labels)
    test_out = Dataset(transform.apply(test.features), test.labels)
    return train_out, test_out, transform


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample a two-class isotropic Gaussian dataset.

    Positives center at +mean_separation/2 along the first axis and
    negatives at the mirror image; each class has sigma times its own
    scale.  This is generate_mixture with the positive component first,
    so a sample is positive when its uniform draw is below the prior.
    """
    half = spec.mean_separation / 2.0
    rest = (0.0,) * (spec.dim - 1)
    return generate_mixture(
        (
            MixtureComponent(1, spec.positive_prior, (half, *rest),
                             spec.sigma * spec.positive_scale),
            MixtureComponent(-1, 1.0 - spec.positive_prior, (-half, *rest),
                             spec.sigma * spec.negative_scale),
        ),
        spec.n,
        spec.seed,
    )


def generate_mixture(
    components: Sequence[MixtureComponent], n: int, seed: int
) -> Dataset:
    """Sample a labeled mixture of isotropic Gaussian components.

    Component weights are normalized to probabilities; every component
    mean must share one dimension.  Draw order (component indices, then
    one noise block) is fixed for reproducibility.
    """
    if not components:
        raise EmptyInput("mixture needs at least one component")
    if typed(int, n, "n") < 1:
        raise InvalidSpec("n must be positive")
    dim = len(components[0].mean)
    if dim == 0 or any(len(c.mean) != dim for c in components):
        raise InvalidSpec("component means must share one nonzero dimension")
    weights = np.array([c.weight for c in components], dtype=np.float64)
    probs = weights / weights.sum()
    means = np.array([c.mean for c in components], dtype=np.float64)
    sigmas = np.array([c.sigma for c in components], dtype=np.float64)
    labels_by_comp = np.array([c.label for c in components], dtype=np.int64)
    rng = np.random.default_rng(typed(int, seed, "seed"))
    which = rng.choice(len(components), size=n, p=probs)
    noise = rng.standard_normal((n, dim))
    features = means[which] + sigmas[which][:, None] * noise
    return Dataset(features, labels_by_comp[which])
