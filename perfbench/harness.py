"""Measurement loop, output checks, metrics and results file.

One process measures one workload.  With trace 0 it reports the
end-to-end metrics; with trace 1 it first times untraced calls, then
the same calls traced, and reports the per-layer metrics and the
tracing overhead.  Set-up runs in a few fresh processes as well, so
that its median is steady.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from perfbench import tracing
from perfbench.workloads import WORKLOADS, Outcome, call_seed, nproc

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Typical fastest time of _reference_seconds within a run on the baseline
# host, rounded; scaled seconds then read close to raw seconds there.
REFERENCE_NOMINAL_S = 0.07


@dataclass
class Call:
    index: int
    seconds: float
    outcome: Optional[Outcome]
    problems: List[str] = field(default_factory=list)


def _closed_loop(
    workload, ctx, config, seed: int, indices: Iterable[int], seconds: float,
    min_calls: int, out_root: Path, digests: Dict[int, str],
    between: Callable[[float], None] = lambda elapsed: None,
) -> List[Call]:
    """Call after call until the next would likely overrun the budget.

    Calls with the same index get the same seed and must produce the
    same bytes; digests maps index to the first call's output hash.
    between(elapsed) runs after each call, untimed but inside the budget.
    """
    calls: List[Call] = []
    began = time.perf_counter()
    for index in indices:
        if len(calls) >= min_calls:
            typical = statistics.median(c.seconds for c in calls)
            if time.perf_counter() - began + typical > seconds:
                break
        out_dir = out_root / f"call{len(calls)}"
        start = time.perf_counter()
        try:
            outcome = workload.run(ctx, config, call_seed(seed, index), out_dir)
        except Exception:
            traceback.print_exc()
            outcome = None
        call = Call(index, time.perf_counter() - start, outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        if outcome is None:
            call.problems.append("raised")
        else:
            call.problems.extend(outcome.problems)
            digest = hashlib.sha256(outcome.output).hexdigest()
            if digests.setdefault(index, digest) != digest:
                call.problems.append("output differs from an earlier call with the same seed")
        calls.append(call)
        between(time.perf_counter() - began)
    return calls


def _fastest(calls: List[Call]) -> float:
    """Seconds of the fastest call.

    On a shared host, slow phases lasting seconds add up to half again
    to a call, so the median of a run moves with how much of the run
    they cover; the fastest call is the statistic they disturb least.
    """
    return min(c.seconds for c in calls)


def _reference_seconds() -> float:
    """Seconds of a fixed numpy loop that shares no code with quantrate.

    It mixes the two cost patterns of the workloads: many calls on small
    arrays, and sorts and gathers on larger ones.  Its fastest time in a
    run says how fast the host ran then, so dividing by it cancels slow
    phases of the host that last longer than a run.
    """
    rng = np.random.default_rng(0)
    X = rng.standard_normal((105, 35))
    w = rng.standard_normal(35)
    big = rng.standard_normal((20000, 8))
    rows = rng.permutation(20000)[:3200]
    start = time.perf_counter()
    for _ in range(3300):
        order = np.argsort(X @ w, kind="stable")
        w = 0.999 * w + 0.001 * X[order[:10]].mean(axis=0)
    for j in range(90):
        np.argsort(big[rows, j % 8], kind="stable")
    return time.perf_counter() - start


def high_percentile(samples: List[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(samples, n=100)[p - 1]}
    return None


def _setup_probe(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    script = Path(__file__).resolve().parent / "run.py"
    done = subprocess.run(
        [sys.executable, str(script), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, if it can be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def setup_only(name: str, seed: int, workdir: Path, started: float) -> float:
    """Set-up seconds of one fresh process, counted from `started`."""
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].setup(seed, workdir)
    return time.perf_counter() - started


def measure(
    name: str, seed: int, seconds: float, trace: int, workdir: Path,
    started: float, tiny: bool = False, probes: int = SETUP_PROBES,
) -> dict:
    """Run one workload and return the result line and the results file.

    started is the perf_counter reading taken before quantrate was
    imported; tiny swaps in the small config the warm-up call uses.
    """
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workload.setup(seed, workdir)
    setup_samples = [time.perf_counter() - started]
    small = workload.shrink(ctx["config"])
    config = small if tiny else ctx["config"]
    # warm-up: caches and lazy imports settle before anything is timed
    workload.run(ctx, small, call_seed(seed, 0), workdir / "warmup")
    shutil.rmtree(workdir / "warmup", ignore_errors=True)

    digests: Dict[int, str] = {}
    out_root = workdir / "calls"
    references: List[float] = []
    if trace == 0:
        # Set-up takes a fraction of a second, so back-to-back probes all
        # land in one phase of a shared host; spread over the run, their
        # median averages over phases.
        due = [j * seconds / probes for j in range(probes)]

        def probe_when_due(elapsed: float) -> None:
            while due and elapsed >= due[0]:
                due.pop(0)
                setup_samples.append(_setup_probe(name, seed))

        def after_call(elapsed: float) -> None:
            references.append(_reference_seconds())
            probe_when_due(elapsed)

        # index 0 twice: the second call checks byte-identical reruns
        indices = itertools.chain([0], itertools.count(0))
        calls = _closed_loop(
            workload, ctx, config, seed, indices, seconds, 2, out_root, digests,
            after_call,
        )
        probe_when_due(float("inf"))
        # seconds at the host speed where the reference takes its nominal time
        to_nominal = REFERENCE_NOMINAL_S / min(references)
        rates = [c.outcome.units / c.seconds for c in calls if c.outcome is not None]
        metrics = {
            "wall_s": (_fastest(calls) * to_nominal, "s"),
            "units_per_s": (max(rates, default=0.0) / to_nominal, "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        untraced = calls
    else:
        plain = _closed_loop(
            workload, ctx, config, seed, itertools.count(0), seconds / 2, 1,
            out_root, digests,
        )
        with tracing.Tracer() as tracer:
            traced = _closed_loop(
                workload, ctx, config, seed, itertools.count(0), seconds / 2, 1,
                out_root, digests,
            )
        calls = plain + traced
        traced_wall = sum(c.seconds for c in traced)
        layer = tracing.summarise(tracer.spans, len(traced), traced_wall)
        layer["traced.overhead"] = _fastest(traced) / _fastest(plain) - 1.0
        layer["traced.workload_calls"] = float(len(traced))
        layer["traced.wall_s"] = _fastest(traced)
        layer["traced.untraced_wall_s"] = _fastest(plain)
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in tracing.per_layer_metrics()}
        untraced = plain

    failed = sum(1 for c in calls if c.problems)
    line = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    walls = [c.seconds for c in untraced]
    results = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "environment": environment(),
        "unit_of_work": workload.unit,
        "reference_s": references,
        "wall_s": {
            "fastest": min(walls),
            "median": statistics.median(walls),
            "samples": len(walls),
            "high_percentile": high_percentile(walls),
        },
        "failed_ratio": failed / len(calls),
        "setup_samples_s": setup_samples,
        "calls": [
            {
                "traced": i >= len(untraced),
                "index": c.index,
                "seed": call_seed(seed, c.index),
                "seconds": c.seconds,
                "figures": c.outcome.figures if c.outcome else None,
                "problems": c.problems,
            }
            for i, c in enumerate(calls)
        ],
        "result": line,
    }
    return results

