"""Tiny-size smoke tests of the benchmark harness.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import time
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS
from quantrate.cli import main as cli_main
from quantrate.presets import load_preset

ROOT = Path(__file__).resolve().parent.parent


def test_jobs_do_not_change_recall_point_output(tmp_path):
    config = WORKLOADS["recall_synthetic"].shrink(load_preset("synthetic"))
    config_path = tmp_path / "recall.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        argv = ["experiment", "--config", str(config_path), "--out", str(out),
                "--jobs", str(jobs), "--quiet"]
        assert cli_main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["pr_points.csv", "results.json", "summary.csv"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_harness_reports_every_declared_metric(tmp_path, name, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = harness.measure(
        name, seed=3, seconds=0.0, trace=trace, workdir=tmp_path,
        started=time.perf_counter(), tiny=True, probes=0,
    )
    line = results["result"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    block = declared["end_to_end" if trace == 0 else "per_layer"]
    assert {m["name"]: m["unit"] for m in block} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    if trace == 1:
        assert line["metrics"]["traced.coverage"]["value"] >= 0.9
    assert results["environment"]["numpy"]
