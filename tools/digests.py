"""Sha256 of every output of a fixed list of CLI runs and benchmark calls.

    python tools/digests.py                    # print the manifest
    python tools/digests.py --write MANIFEST   # save it
    python tools/digests.py --check MANIFEST   # compare against a saved one

The runs go through the command-line entry point, in a fresh temporary
directory that is the working directory for all of them, so every
path a config echoes is the same relative one on every run:

* `train` on the CLI tests' toy CSV and config, then `eval` of the
  model with each of the four metrics;
* a second `train` on that CSV in minibatch intersection mode
  (`batch_size` 30, no `constraint_batch_size`, 2 restarts, no
  standardizing) on `p_at_ppr_fp`, whose constraint subset is every
  sample, so no minibatch misses it: its restarts take the lockstep
  trainer's one-model-per-loop path.  Then `eval --metric report` of
  that model, whose file has `"transform": null`;
* every self-contained preset at full size: `experiment synthetic` and
  `concentration` of the two stability labs, `loss_deviation` and
  `convex_convergence`;
* `experiment ionosphere` at reps 3 on the 351x34 file that
  perfbench.workloads.write_ionosphere writes at seed 1;
* both experiments again at `--jobs 2`, into `synthetic_jobs2` and
  `ionosphere_jobs2`: their files must match the `--jobs 1` ones, or
  the tool stops with an error;
* one full-size call of each perfbench workload: its setup at seed 1,
  then one run at call seed 7, hashed as the call's Outcome.output
  under the name `perfbench/<workload>`.

The manifest is {"environment": ..., "outputs": {path: sha256}}.  The
bytes depend on the host's numpy build and BLAS, so compare two runs
on one host, such as a parent commit and a change: --check names each
output whose digest differs, or that is missing on one side, and
exits 1 if there is any.  Some outputs also depend on the SIMD loop
numpy dispatches float64 exp and log1p to; the environment records
both targets under "dispatch", and --check notes when they differ.  It
takes about 5 s on a 2-core x86-64 host.

No output may depend on the BLAS thread count.  To check, write the
manifest at one thread and check it at two (the --check note on the
environments differing is expected; the thread count is part of it):

    OPENBLAS_NUM_THREADS=1 python tools/digests.py --write one.json
    OPENBLAS_NUM_THREADS=2 python tools/digests.py --check one.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import environment  # noqa: E402
from perfbench.workloads import WORKLOADS, write_ionosphere  # noqa: E402
from quantrate.cli import main as cli_main  # noqa: E402
from quantrate.presets import load_preset  # noqa: E402
from tests.test_cli import write_csv, write_train_config  # noqa: E402

EVALS = (
    ("report",),
    ("p_at_rate", "--level", "0.3"),
    ("p_at_recall", "--level", "0.5"),
    ("pr_auc", "--grid", "0.2,0.4,0.6,0.8,1.0"),
)
INPUTS = {"toy.csv", "train_config.json", "minibatch_config.json", "ionosphere.json",
          "ionosphere.data"}
JOBS2 = "_jobs2"  # the suffix of an experiment's --jobs 2 output directory
CONCENTRATION_PRESETS = (
    "stability_kernel", "stability_interval", "loss_deviation", "convex_convergence",
)


def commands() -> list:
    """The argument lists to run, once their inputs are written to the
    working directory."""
    here = Path(".")
    csv_path = write_csv(here)
    config_path, config = write_train_config(here, csv_path)
    minibatch = dict(
        config, standardize=False,
        loss=dict(config["loss"], objective="p_at_ppr_fp",
                  constraint={"subset": "all", "direction": "at_least", "target": 0.3}),
        train=dict(config["train"], batch_size=30, constraint_batch_size=None),
    )
    Path("minibatch_config.json").write_text(json.dumps(minibatch), encoding="utf-8")
    iono = load_preset("ionosphere")
    iono["reps"] = 3
    Path("ionosphere.json").write_text(json.dumps(iono), encoding="utf-8")
    write_ionosphere(Path("ionosphere.data"), 1)
    runs = [["train", "--config", str(config_path), "--out", "model.json"]]
    for metric, *extra in EVALS:
        runs.append(["eval", "--config", "model.json", "--data", str(csv_path),
                     "--metric", metric, *extra, "--out", f"eval_{metric}.json"])
    runs += [["train", "--config", "minibatch_config.json", "--out", "minibatch.json"],
             ["eval", "--config", "minibatch.json", "--data", str(csv_path),
              "--metric", "report", "--out", "eval_minibatch_report.json"]]
    runs += [["concentration", "--config", name, "--out", name]
             for name in CONCENTRATION_PRESETS]
    for name, args in (("synthetic", ["--config", "synthetic"]),
                       ("ionosphere", ["--config", "ionosphere.json",
                                       "--data", "ionosphere.data"])):
        runs += [["experiment", *args, "--out", name],
                 ["experiment", *args, "--out", f"{name}{JOBS2}", "--jobs", "2"]]
    return runs


def digests() -> dict:
    """{output path: sha256} of every file the commands write, run in a
    fresh temporary working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands():
                started = time.perf_counter()
                # eval echoes its result to stdout; its --out file is kept
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv + ["--quiet"])
                print(f"{time.perf_counter() - started:6.2f}s  exit {code}  "
                      + " ".join(argv), file=sys.stderr)
                if code != 0:
                    raise SystemExit(f"digests: `{' '.join(argv)}` exited {code}")
            outputs = {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(".").rglob("*"))
                if p.is_file() and p.name not in INPUTS
            }
            for path, digest in outputs.items():
                top, _, rest = path.partition("/")
                if top.endswith(JOBS2) and outputs.get(
                        f"{top[:-len(JOBS2)]}/{rest}") != digest:
                    raise SystemExit(f"digests: {path} differs from its --jobs 1 run")
            return outputs
        finally:
            os.chdir(home)


def workload_digests() -> dict:
    """{"perfbench/<workload>": sha256} of one full-size call of each
    benchmark workload, set up at seed 1 and run at call seed 7."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            started = time.perf_counter()
            workdir = Path(tmp) / name
            workdir.mkdir()
            ctx = workload.setup(1, workdir)
            outcome = workload.run(ctx, ctx["config"], 7, workdir / "out")
            print(f"{time.perf_counter() - started:6.2f}s  workload {name}",
                  file=sys.stderr)
            if outcome.problems:
                raise SystemExit(f"digests: workload {name}: {outcome.problems}")
            outputs[f"perfbench/{name}"] = hashlib.sha256(outcome.output).hexdigest()
    return outputs


def dispatch_targets() -> dict:
    """{"exp": target, "log1p": target}: the SIMD loop numpy runs for
    float64 exp and log1p here, which rounds some outputs differently
    from the other targets; empty where numpy (< 2.0) cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return {}
    info = opt_func_info(func_name="^exp$|^log1p$", signature="float64")
    return {name: next(iter(loops.values()))["current"] for name, loops in info.items()}


def compare(saved: dict, outputs: dict) -> list:
    """Lines naming each path whose digest differs or is on one side only."""
    lines = []
    for path in sorted(set(saved) | set(outputs)):
        if path not in outputs:
            lines.append(f"missing: {path}")
        elif path not in saved:
            lines.append(f"new: {path}")
        elif saved[path] != outputs[path]:
            lines.append(f"changed: {path}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", metavar="MANIFEST", help="save the manifest here")
    parser.add_argument("--check", metavar="MANIFEST",
                        help="compare against this manifest; exit 1 on any change")
    args = parser.parse_args(argv)
    outputs = {**digests(), **workload_digests()}
    manifest = {"environment": {**environment(), "dispatch": dispatch_targets()},
                "outputs": outputs}
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    if args.write:
        Path(args.write).write_text(text, encoding="utf-8")
    if not (args.write or args.check):
        sys.stdout.write(text)
    if not args.check:
        return 0
    saved = json.loads(Path(args.check).read_text(encoding="utf-8"))
    env = {k: v for k, v in manifest["environment"].items() if k != "git_commit"}
    old_env = {k: v for k, v in saved["environment"].items() if k != "git_commit"}
    if env != old_env:
        print("note: the manifests come from different environments", file=sys.stderr)
    if env["dispatch"] != old_env.get("dispatch"):
        print(f"note: numpy's float64 exp/log1p dispatch targets differ: "
              f"{old_env.get('dispatch', 'unrecorded')} in {args.check}, "
              f"{env['dispatch']} here; README lists the outputs that move "
              "with them", file=sys.stderr)
    lines = compare(saved["outputs"], manifest["outputs"])
    for line in lines:
        print(line)
    print(f"{len(manifest['outputs'])} outputs, {len(lines)} differ from {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
