"""Access to packaged preset configs and published comparison tables.

Presets are JSON files shipped next to this module; each one is a full
experiment or concentration config with every hyperparameter pinned.
Published comparison numbers live in their own versioned file and are
transcribed external values, never recomputed; experiment outputs carry
them with source="published" so they are impossible to confuse with
computed aggregates.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, List

from ..errors import InvalidSpec

_COMPARISON_FILE = "published_comparison.json"


def _read_json(filename: str) -> dict:
    ref = resources.files(__name__).joinpath(filename)
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def preset_names() -> List[str]:
    """The stems of the package's JSON files, the comparison file aside."""
    return sorted(
        ref.name[: -len(".json")] for ref in resources.files(__name__).iterdir()
        if ref.name.endswith(".json") and ref.name != _COMPARISON_FILE
    )


def load_preset(name: str) -> dict:
    """The named preset's config dict (a fresh copy each call)."""
    if name not in preset_names():
        raise InvalidSpec(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return _read_json(f"{name}.json")


def published_tables() -> dict:
    """The full transcribed comparison table file."""
    return _read_json(_COMPARISON_FILE)


def published_rows(table: str) -> List[Dict]:
    """Flat rows of one published table.

    Each row: method, level (rate as a fraction), mean, std,
    source="published".
    """
    data = published_tables()
    if table not in data["tables"]:
        raise InvalidSpec(
            f"no published table {table!r}; available: "
            f"{', '.join(sorted(data['tables']))}"
        )
    block = data["tables"][table]
    rows = []
    for method, cells in sorted(block["methods"].items()):
        for level, (mean, std) in zip(block["levels"], cells):
            rows.append(
                {
                    "method": method,
                    "level": level,
                    "mean": mean,
                    "std": std,
                    "source": "published",
                }
            )
    return rows
