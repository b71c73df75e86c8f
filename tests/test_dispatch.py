"""Tier-1 checks both byte classes of numpy's float64 exp loop (see
simd.py): the tests that pin bytes through np.exp or np.log1p rerun in a
subprocess with numpy's AVX-512 dispatch turned off."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NO_AVX512 = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4")

# every test that picks its golden with simd.by_dispatch
PINNED = [
    "tests/test_losses.py::test_gradient_calls_return_golden_bytes_and_no_loss",
    "tests/test_losses.py::test_value_calls_frozen_bits",
    "tests/test_estimators.py::test_kernel_calls_frozen_bits",
    "tests/test_concentration.py::test_golden_stability_reports",
    "tests/test_concentration.py::test_golden_convex_report",
    "tests/test_baseline.py::test_lockstep_rows_equal_their_one_by_one_fits",
]


def test_pinned_bytes_hold_without_avx512_dispatch():
    target = subprocess.run(
        [sys.executable, "-c", "import simd; print(simd.exp_target())"],
        cwd=ROOT / "tests", env=NO_AVX512, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert "X86_V4" not in target and "AVX512" not in target, target
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
        cwd=ROOT, env=NO_AVX512, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(PINNED)} passed" in run.stdout, run.stdout
