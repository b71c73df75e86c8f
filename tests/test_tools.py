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
    # step_cost's count of the calls a full-batch lockstep step makes
    # from package frames, on Python 3.11 and numpy 2.4; a change that
    # adds a call to the descent loop, the loss or the estimator moves
    # it, and one that adds a call per row makes it grow with K
    step_cost = load(monkeypatch, "step_cost")
    spec, train_set = step_cost.ionosphere()
    models, first_level = step_cost.preset_models(spec)
    at_k4 = step_cost.full_batch_calls(train_set, first_level)
    assert at_k4 == {
        "kernel": 29.0, "point": 33.0, "lower_mean": 32.0, "interval": 32.0}
    scaling = step_cost.scaling_calls(train_set, models, first_level,
                                      step_cost.logistic_fits(spec))
    assert scaling == {"kernel_k1": 29.0, "kernel_k60": 29.0,
                       "logistic_k1": 8.0, "logistic_k4": 8.0}
    assert scaling["kernel_k1"] == at_k4["kernel"] == scaling["kernel_k60"]
    assert scaling["logistic_k1"] == scaling["logistic_k4"]


def test_minibatch_steps_make_no_more_package_calls(monkeypatch):
    # the convex lab's path: 10 lower-mean rows with batches and
    # constraint batches of 50 drawn from each row's own queues
    assert load(monkeypatch, "step_cost").minibatch_calls() == 45.3
