#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and the working tree.

For ``--pairs`` consecutive seeds from ``--first-seed``, runs

    python3 perfbench/run.py --workload all --trace 0 --seconds 30 --seed <seed>

once in a checkout of the parent commit (``git archive`` unpacked by
``tar`` into a temporary directory) and once in this working tree, the
parent first when the seed is odd and the working tree first when it is
even.  The JSON file it writes holds ``command``, ``parent`` (the parent's
commit hash), ``change``, ``host`` (as given), ``order``, ``summary`` and
``runs`` (one entry per run: ``pair``, ``seed``, ``side``, ``finished`` and
the run's result line).
``summary`` gives, for every metric, each side's median and quartiles
(numpy's linear percentiles) over its finite values, ``change_over_parent``
(the change's median over the parent's, NaN when the parent's is 0), and
in how many of the ``pairs`` where both sides have one the change read
lower, ties counting for neither side, and ``gain_resolved``: true when
the change read lower in at least 9 of 10 of those pairs and its median
lies further from the parent's than the parent's interquartile range, and
``worse_beyond_bound``: true when the change's median is worse than the
parent's by more than the ``bound`` (a fraction of the parent's median)
that ``BENCHMARK.json`` declares for the metric's name after its workload
prefix, in the direction its ``better`` gives, false when it is not, and
null (unresolved) for a metric it does not declare, a median that is
missing, or a parent whose interquartile range is wider than that bound;
under ``fits``, each side's
attempted and failed fits summed over its runs and its failed share.  The file is rewritten after
every pair.

    OPENBLAS_NUM_THREADS=1 python scripts/bench_pairs.py --parent HEAD \\
        --first-seed 701 --pairs 10 --change "what the change does" \\
        --host "CPU, cores, BLAS threads" --out BENCH_x.json
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "30"
COMMAND = (
    f"python3 perfbench/run.py --workload all --trace 0 --seconds {SECONDS} --seed <seed>"
)
ORDER = (
    "pair i runs the parent first when its seed is odd "
    "and the change first when its seed is even"
)


def declared_metrics():
    """``BENCHMARK.json``'s end-to-end metrics by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def worse_beyond_bound(row, metric):
    """Whether the change's median is worse than the parent's by more than
    ``metric``'s bound; None (unresolved) for an undeclared metric, a
    missing median or a parent spread wider than the bound."""
    if metric is None:
        return None
    bound = metric["bound"] * abs(row["parent_median"])
    worse = row["change_median"] - row["parent_median"]
    if metric["better"] == "higher":
        worse = -worse
    if math.isnan(worse) or row["parent_q3"] - row["parent_q1"] > bound:
        return None
    return bool(worse > bound)


def summarize(runs):
    """Per metric: each side's median and quartiles over its finite values,
    the change's median over the parent's, the count of pairs with both
    values in which the change is lower, whether that gain is resolved and
    whether the change is worse beyond the metric's declared bound; under
    ``fits``, each side's attempted and failed fits and failed share."""
    declared = declared_metrics()
    values = {"parent": {}, "change": {}}
    fits = dict.fromkeys(
        ("parent_attempted", "parent_failed", "change_attempted", "change_failed"), 0
    )
    for run in runs:
        for total in ("attempted", "failed"):
            fits[f"{run['side']}_{total}"] += run["result"][total]
        for name, metric in run["result"]["metrics"].items():
            value = metric["value"]
            if value is not None and math.isfinite(value):
                values[run["side"]].setdefault(name, {})[run["pair"]] = value
    summary = {}
    for name, parent in values["parent"].items():
        change = values["change"].get(name, {})
        row = {}
        for side, side_values in (("parent", parent), ("change", change)):
            q1, median, q3 = (
                np.percentile(list(side_values.values()), [25, 50, 75])
                if side_values else (math.nan,) * 3
            )
            row.update({
                f"{side}_median": float(median),
                f"{side}_q1": float(q1),
                f"{side}_q3": float(q3),
            })
        row["change_over_parent"] = (
            row["change_median"] / row["parent_median"]
            if row["parent_median"] else math.nan
        )
        pairs = parent.keys() & change.keys()
        row["pairs_change_lower"] = sum(change[i] < parent[i] for i in pairs)
        row["pairs"] = len(pairs)
        # the claim rule: lower in 9 of 10 pairs, by more than the parent's IQR
        row["gain_resolved"] = bool(
            pairs and 10 * row["pairs_change_lower"] >= 9 * len(pairs)
            and abs(row["change_median"] - row["parent_median"])
            > row["parent_q3"] - row["parent_q1"]
        )
        # the no-regression rule, by the name after the workload prefix
        row["worse_beyond_bound"] = worse_beyond_bound(
            row, declared.get(name.split(".", 1)[-1])
        )
        summary[name] = row
    for side in ("parent", "change"):
        fits[f"{side}_failed_share"] = (
            fits[f"{side}_failed"] / max(fits[f"{side}_attempted"], 1)
        )
    summary["fits"] = fits
    return summary


def run_once(checkout, seed):
    """One benchmark run in ``checkout``; returns its result line."""
    cmd = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", "all", "--trace", "0", "--seconds", SECONDS,
        "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: seed {seed}: benchmark exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", default="HEAD", help="git revision (default HEAD)")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--change", required=True, help="one line on what the change does")
    ap.add_argument("--host", required=True, help="the machine the runs share")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    parent = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", args.parent],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    doc = {
        "command": COMMAND,
        "parent": parent,
        "change": args.change,
        "host": args.host,
        "order": ORDER,
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as parent_dir:
        tarball = os.path.join(parent_dir, "parent.tar")
        subprocess.run(["git", "-C", ROOT, "archive", "-o", tarball, parent], check=True)
        subprocess.run(["tar", "-xf", tarball, "-C", parent_dir], check=True)
        os.remove(tarball)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in sides:
                result = run_once(checkouts[side], seed)
                finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                doc["runs"].append({
                    "pair": pair, "seed": seed, "side": side,
                    "finished": finished, "result": result,
                })
                print(f"pair {pair} seed {seed} {side}: correct={result['correct']}",
                      flush=True)
            doc["summary"] = summarize(doc["runs"])
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
