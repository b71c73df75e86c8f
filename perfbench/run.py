#!/usr/bin/env python3
"""quantrate benchmark: measure one workload, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload rate_table_iono351 --seed 1 \\
        --seconds 25 --trace 0

Workloads: rate_table_iono351, recall_synthetic, loss_deviation,
convex_minibatch (see perfbench/README.md).  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Every metric is
printed by name and unit; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  The full record,
with the environment, goes to .perfbench/results/.  The package is
imported from src/ of this checkout; without it the run fails.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("rate_table_iono351", "recall_synthetic", "loss_deviation", "convex_minibatch")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "quantrate" / "__init__.py").is_file():
        print(f"error: no quantrate package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    workdir = ROOT / ".perfbench" / "work" / str(os.getpid())
    try:
        if args.setup_probe:
            print(harness.setup_only(args.workload, args.seed, workdir, STARTED))
            return 0
        results = harness.measure(
            args.workload, args.seed, args.seconds, args.trace, workdir, STARTED
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    line = results["result"]
    env = results["environment"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{line['attempted']} calls, {line['failed']} failed; python {env['python']}, "
        f"numpy {env['numpy']}, {env['blas']} {env['blas_version']} "
        f"({env['blas_threads']} threads), nproc {env['nproc']}"
    )
    wall = results["wall_s"]
    print(
        f"raw per-call seconds over {wall['samples']} calls: fastest {wall['fastest']:.4f}, "
        f"median {wall['median']:.4f}, high percentile {wall['high_percentile']}"
    )
    print(f"result figures of the first call: {results['calls'][0]['figures']}")
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"results file: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
