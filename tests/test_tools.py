"""The scripts under tools/ import package internals, so each one is
loaded here as a module, without running its main: a helper that moves
breaks this test instead of the tool."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(monkeypatch, name):
    # each tool puts src/ and the repository root in front of sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["step_cost", "digests"])
def test_tool_imports_as_a_module(monkeypatch, name):
    assert callable(load(monkeypatch, name).main)


def test_full_batch_steps_make_no_more_package_calls(monkeypatch):
    # step_cost's count of the calls a full-batch lockstep step at K=4
    # makes from package frames, on Python 3.11 and numpy 2.4; a change
    # that adds a call to the descent loop, the loss or the estimator
    # moves it
    step_cost = load(monkeypatch, "step_cost")
    spec, train_set = step_cost.ionosphere()
    _, first_level = step_cost.preset_models(spec)
    assert step_cost.full_batch_calls(train_set, first_level) == {
        "kernel": 30.0, "point": 33.0, "lower_mean": 36.0, "interval": 37.0}
