"""Puts the checkout's src/ on the PYTHONPATH of every process the tests
start, as pyproject.toml's pytest pythonpath puts it on pytest's own
sys.path, so that `python3 -m pytest` runs in a checkout without an
install."""

import os
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))
