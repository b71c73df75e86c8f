"""Span tracing for the benchmark's traced run, from outside the package.

Each traced function is replaced, at every place a quantrate module
looks its name up, by a wrapper that records one span per call: the
function, its start and end, the span that caused it, whether it
raised, and work counts taken from its arguments or result.  A
function with several call sites is still one layer metric.  Spans are
held in memory and summarised when tracing ends; nothing under src/ is
edited, and uninstalling restores every rebound name.

Spans nest through a thread-local stack.  A span that starts on a pool
thread with an empty stack takes as its parent the innermost open span
of the thread that installed the tracer, so a repetition run by the
--jobs pool is a child of the run_experiment call that submitted it.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

PACKAGE = "quantrate"

# Counts read from a call: (args, kwargs, result) -> {counter: amount}.
Counter = Callable[[tuple, dict, object], Dict[str, float]]


def _estimate_counts(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    scores = args[1] if len(args) > 1 else kwargs["scores"]
    return {"scores_in." + spec.kind.value: len(scores)}


def _core_eval_counts(args, kwargs, result):
    want_grad = args[7] if len(args) > 7 else kwargs.get("want_grad", False)
    return {"grad_calls" if want_grad else "value_calls": 1}


def _config_steps(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"steps": config.steps}


def _rows_out(args, kwargs, result):
    return {"rows": result.n}


# (module, function, counter): the layers' public entry points that the
# workloads reach.  Helpers below timer resolution (order_rank,
# with_bias) are left to their caller's self time.
TRACED: Tuple[Tuple[str, str, Optional[Counter]], ...] = (
    ("estimators", "estimate", _estimate_counts),
    ("losses", "core_eval", _core_eval_counts),
    ("losses", "surrogate_loss", None),
    ("train", "sgd_train", _config_steps),
    ("train", "multi_restart_train", None),
    ("baseline", "logistic_train", _config_steps),
    ("baseline", "logistic_objective", None),
    ("metrics", "precision_at_rate", None),
    ("metrics", "precision_at_recall", None),
    ("metrics", "calibrate_threshold", None),
    ("data", "load_delimited", _rows_out),
    ("data", "split", None),
    ("data", "standardize", None),
    ("data", "generate_mixture", None),
    ("experiment", "run_experiment", None),
    ("experiment", "write_results", None),
    ("concentration", "loss_uniform_deviation", None),
    ("concentration", "convex_sgd_convergence", None),
)

LAYERS = (
    "estimators", "losses", "train", "baseline",
    "metrics", "data", "experiment", "concentration",
)
ESTIMATOR_KINDS = ("kernel", "lower_mean", "point", "interval")
FUNCTION_STATS = ("calls", "busy_s", "self_s", "us_per_call", "failed")


class Span(NamedTuple):
    key: str
    span_id: int
    parent: Optional[int]
    start: float
    end: float
    failed: bool
    counts: Optional[Dict[str, float]]


class Tracer:
    """Rebinds the TRACED functions while active and collects spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: List[int] = []
        self._rebound: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn, counter: Optional[Counter]):
        spans, ids, home = self.spans, self._ids, self._home_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = home[-1] if home else None
            span_id = next(ids)
            stack.append(span_id)
            result, failed = None, True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if counter is not None and not failed:
                    counts = counter(args, kwargs, result)
                # list.append is atomic, so pool threads need no lock
                spans.append(Span(key, span_id, parent, start, end, failed, counts))

        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded quantrate module."""
        self._local.stack = self._home_stack
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, fn_name, counter in TRACED:
            defining = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(defining, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarise(
    spans: List[Span], workload_calls: int, traced_wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    Counts and times are per workload call; shares and coverage are
    fractions of traced_wall_s, the summed wall time of those calls.
    A span's self time is its duration minus the part of it that its
    child spans cover, children on pool threads included.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))

    per_call = 1.0 / max(1, workload_calls)
    stats = {f"{m}.{f}": defaultdict(float) for m, f, _ in TRACED}
    counts = defaultdict(float)
    layer_self = defaultdict(float)
    root_s = 0.0
    for s in spans:
        busy = s.end - s.start
        own = busy - _covered(children.get(s.span_id, []), s.start, s.end)
        entry = stats[s.key]
        entry["calls"] += 1
        entry["busy_s"] += busy
        entry["self_s"] += own
        entry["failed"] += s.failed
        layer_self[s.key.split(".")[0]] += own
        if s.parent is None:
            root_s += busy
        for name, amount in (s.counts or {}).items():
            counts[f"{s.key}.{name}"] += amount

    out: Dict[str, float] = {}
    for key, entry in stats.items():
        calls = entry["calls"]
        out[f"{key}.calls"] = calls * per_call
        out[f"{key}.busy_s"] = entry["busy_s"] * per_call
        out[f"{key}.self_s"] = entry["self_s"] * per_call
        out[f"{key}.us_per_call"] = 1e6 * entry["busy_s"] / calls if calls else 0.0
        out[f"{key}.failed"] = entry["failed"] * per_call
    for kind in ESTIMATOR_KINDS:
        name = f"estimators.estimate.scores_in.{kind}"
        out[name] = counts[name] * per_call

    model_steps = counts["train.sgd_train.steps"]
    evals = counts["losses.core_eval.grad_calls"] + counts["losses.core_eval.value_calls"]
    out["losses.core_eval.grad_calls"] = counts["losses.core_eval.grad_calls"] * per_call
    out["losses.core_eval.value_calls"] = counts["losses.core_eval.value_calls"] * per_call
    out["losses.core_eval.evals_per_step"] = evals / model_steps if model_steps else 0.0
    out["train.model_steps"] = model_steps * per_call
    logistic_steps = counts["baseline.logistic_train.steps"]
    objective_calls = stats["baseline.logistic_objective"]["calls"]
    out["baseline.logistic_objective.calls_per_step"] = (
        objective_calls / logistic_steps if logistic_steps else 0.0
    )
    load_s = stats["data.load_delimited"]["busy_s"]
    out["data.load_delimited.rows_per_s"] = (
        counts["data.load_delimited.rows"] / load_s if load_s else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / traced_wall_s
    out["traced.coverage"] = root_s / traced_wall_s
    return out


def metric_names() -> List[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = [f"{m}.{f}.{stat}" for m, f, _ in TRACED for stat in FUNCTION_STATS]
    names += [f"estimators.estimate.scores_in.{k}" for k in ESTIMATOR_KINDS]
    names += [
        "losses.core_eval.grad_calls",
        "losses.core_eval.value_calls",
        "losses.core_eval.evals_per_step",
        "train.model_steps",
        "baseline.logistic_objective.calls_per_step",
        "data.load_delimited.rows_per_s",
    ]
    names += [f"{layer}.self_share" for layer in LAYERS]
    names += [
        "traced.coverage",
        "traced.overhead",
        "traced.workload_calls",
        "traced.wall_s",
        "traced.untraced_wall_s",
    ]
    return names


def per_layer_metrics() -> List[dict]:
    """The per_layer block of BENCHMARK.json: name, unit and direction."""
    out = []
    for name in metric_names():
        stat = name.rsplit(".", 1)[-1]
        if stat == "rows_per_s":
            unit, better = "1/s", "higher"
        elif stat.endswith("_s"):
            unit, better = "s", "lower"
        elif stat == "us_per_call":
            unit, better = "us", "lower"
        elif stat in ("self_share", "coverage", "overhead", "evals_per_step", "calls_per_step"):
            unit, better = "ratio", "higher" if stat == "coverage" else "lower"
        else:
            unit, better = "count", "lower"
        out.append({"name": name, "unit": unit, "better": better})
    return out
