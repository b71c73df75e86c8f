"""Exception types shared across the package.

Every error raised by this package derives from :class:`QuantrateError`,
so callers can catch one base type at the CLI boundary.
"""


class QuantrateError(Exception):
    """Base class for all package errors."""


class InvalidSpec(QuantrateError, ValueError):
    """A configuration or spec object failed validation."""


class DataError(QuantrateError):
    """A data file or dataset cannot serve the operation asked of it."""


class DimensionError(InvalidSpec):
    """Weight vector and feature dimension disagree."""


class UncalibratedError(QuantrateError):
    """An operation needed a threshold but the model has none."""


class EmptyInput(InvalidSpec):
    """An operation received an empty score or sample collection."""


class NonpositiveScale(InvalidSpec):
    """A scale (bandwidth, sigma, init_scale) must be positive and finite."""


class DegenerateInterval(InvalidSpec):
    """The interval estimator's index window contains no order statistics."""


class NoConstraintSubset(QuantrateError):
    """The rate-constraint subset selects no samples from the dataset."""


class EmptyObjective(QuantrateError):
    """The penalized side of a surrogate loss selects no samples."""


class ConstraintBatchEmpty(QuantrateError):
    """A minibatch intersected with the constraint subset came up empty.

    Only possible in intersection mode (constraint_batch_size = full);
    remedied by configuring an independent constraint minibatch size.
    """


class BatchTooLarge(InvalidSpec):
    """Requested minibatch size exceeds the dataset size."""


class Diverged(QuantrateError):
    """Training drove the weights or the scores to inf or nan."""


class ParseError(DataError):
    """A cell in a data file failed to parse.

    Carries 1-based row and column of the offending cell.
    """

    def __init__(self, message, row, col):
        super().__init__(f"row {row}, col {col}: {message}")
        self.message = message
        self.row = row
        self.col = col

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the formatted
        # text, so the error survives pickling across processes
        return type(self), (self.message, self.row, self.col)


class RaggedRows(DataError):
    """Rows of a delimited file disagree on column count."""


class UnknownLabel(DataError):
    """A label value is outside the declared label mapping."""


class NonMonotonicIndex(ParseError):
    """Sparse feature indices are not strictly increasing within a row."""


class DegenerateSplit(DataError):
    """A split would leave the train or test side empty."""


class SingleClass(DataError):
    """An operation requires both classes but the data has only one."""
