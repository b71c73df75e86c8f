"""Every package error survives pickling, as it must to leave a worker
process."""

import inspect
import pickle

import pytest

from quantrate import errors

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.QuantrateError)
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    args = ("m", 1, 2) if issubclass(cls, errors.ParseError) else ("m",)
    original = cls(*args)
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert getattr(copy, "row", None) == getattr(original, "row", None)
    assert getattr(copy, "col", None) == getattr(original, "col", None)
