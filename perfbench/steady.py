"""Steadiness check: repeat a workload and compare sets of runs.

    python3 perfbench/steady.py run --workload sim_geo_chat --runs 10 \
        --seconds 20 --out geo-a.json
    python3 perfbench/steady.py compare geo-a.json geo-b.json

``run`` calls ``perfbench/run.py`` once per seed (``--seed-base`` plus
the run index), one after another, with ``PYTHONHASHSEED=0``, saves every
result line and prints each metric's median, quartiles and spread (the
interquartile range as a share of the median) next to its bound from
``BENCHMARK.json``.  ``compare`` checks that the second set's median is
no worse than the first's by more than the bound, and that both sets
failed the same share of operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _metric_specs() -> Dict[str, Dict[str, Any]]:
    return {m["name"]: m for m in _spec()["end_to_end"]}


def _quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(args: argparse.Namespace) -> int:
    results = []
    env = dict(os.environ, PYTHONHASHSEED="0")
    for index in range(args.runs):
        seed = args.seed_base + index
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", file=sys.stderr)
    saved = {"workload": args.workload, "seconds": args.seconds,
             "runs": results}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(saved, handle, indent=1)
    return report(saved)


def report(saved: Dict[str, Any]) -> int:
    specs = _metric_specs()
    runs = saved["runs"]
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{saved['workload']}: {len(runs)} runs, failed share "
          f"{sorted(shares)}")
    status = 0 if len(shares) == 1 else 1
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2:
            continue
        q1, q2, q3 = _quartiles(values)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = spec["bound"]
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"  {name:34s} median {q2:14.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {spread:7.2%}  bound {bound:.0%}"
              + flag)
    return status


def compare(args: argparse.Namespace) -> int:
    with open(args.first) as handle:
        first = json.load(handle)
    with open(args.second) as handle:
        second = json.load(handle)
    specs = _metric_specs()
    status = 0
    share_a = {r["failed"] / r["attempted"] for r in first["runs"]}
    share_b = {r["failed"] / r["attempted"] for r in second["runs"]}
    if share_a != share_b or len(share_a) != 1:
        print(f"failed share differs: {share_a} vs {share_b}")
        status = 1
    for name, spec in specs.items():
        bound = spec["bound"]
        a = statistics.median(r["metrics"][name]["value"]
                              for r in first["runs"])
        b = statistics.median(r["metrics"][name]["value"]
                              for r in second["runs"])
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= bound else "WORSE"
        if verdict != "ok":
            status = 1
        print(f"  {name:34s} {a:14.6g} -> {b:14.6g}  "
              f"worse by {worse:7.2%} (bound {bound:.0%})  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="repeat one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--seed-base", type=int, default=0)
    run.add_argument("--out")
    cmp_ = sub.add_parser("compare", help="compare two saved sets")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_set(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
