"""Benchmark entry point: time-to-target for EP / AP / ADMM.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own child process (``measure.py``) with one BLAS
thread, set before the child imports numpy.  Fits run back to back, one at
a time: a closed loop with one client.  ``--trace 0`` prints the end-to-end
metrics of untraced fits; ``--trace 1`` prints the per-layer metrics of a
separate traced run.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "lvggm" / "__init__.py"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, args):
    """Run one workload in a child process; relay its lines, return its result."""
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: measurement process exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload}: unreadable result line {lines[-1]!r}") from exc


def report(workload, result, metric_decls):
    """Check the child's metric set against the declaration and print it;
    returns ``(correct, {name: {"value", "unit"}})``."""
    got = result["metrics"]
    names = [m["name"] for m in metric_decls]
    if set(got) != set(names):
        raise BenchError(
            f"{workload}: metrics {sorted(set(got) ^ set(names))} declared "
            "but not emitted, or emitted but not declared"
        )
    correct = result["failed"] == 0
    metrics = {}
    for m in metric_decls:
        value = got[m["name"]]
        if value is None or not math.isfinite(value):
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"[{workload}] {m['name']:<40} {value!r:>24} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{workload}] {'fail_frac':<40} {failed / max(attempted, 1)!r:>24} share "
          f"({failed} of {attempted} attempted fits)")
    for message in result["failures"]:
        print(f"[{workload}] failure: {message}")
    print(f"[{workload}] {len(result['above_target'])} fits converged above the "
          "target, within the sampling noise of F(L*)")
    return correct, metrics


def main(argv=None):
    decl = declared()
    names = [w["name"] for w in decl["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="run at p=24 (smoke test)")
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"error: package source {SOURCE.relative_to(ROOT)} not found", file=sys.stderr)
        return 2
    metric_decls = decl["per_layer"] if args.trace else decl["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run_child(workload, args)
            correct, metrics = report(workload, result, metric_decls)
            out["correct"] = out["correct"] and correct
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
            if len(workloads) > 1:
                metrics = {f"{workload}.{k}": v for k, v in metrics.items()}
            out["metrics"].update(metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
