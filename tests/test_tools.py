"""The scripts under tools/ import package internals, so each one is
loaded here as a module, without running its main: a helper that moves
breaks this test instead of the tool."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("name", ["step_cost", "digests"])
def test_tool_imports_as_a_module(monkeypatch, name):
    # each tool puts src/ and the repository root in front of sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
