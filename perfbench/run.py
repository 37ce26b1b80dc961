"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sim_geo_chat --seed 1 \
        --seconds 20 --trace 0

Workloads: ``live_group_chat``, ``sim_geo_chat``, ``sim_session_fanout``
(see ``perfbench/README.md``).  A run repeats whole rounds of the
workload's seeded posts, each on a freshly built world, until
``--seconds`` have passed (at least one round).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  A failed check exits
with status 1, after printing the result and the problems (on stderr).
The program is loaded from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("live_group_chat", "sim_geo_chat", "sim_session_fanout")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _round(workload: str, seed: int, tracer=None):
    if workload == "live_group_chat":
        from perfbench import live
        return live.run_round(seed, tracer)
    from perfbench import des
    return des.run_round(workload, seed, tracer)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    # Simulated runs repeat exactly only under one string-hash seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]]
                  if argv is None else
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.rounds import (END_TO_END_UNITS, PER_LAYER_UNITS,
                                  end_to_end, peak_rss_mb, per_layer)
    from perfbench.tracing import Tracer

    began = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(_round(args.workload, args.seed))
        plain[-1].rss_mb = peak_rss_mb()
        if args.trace:
            traced.append(_round(args.workload, args.seed, Tracer()))
        if time.perf_counter() - began >= args.seconds:
            break
    rounds = plain + traced
    if args.trace:
        values = per_layer(plain, traced)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(plain)
        units = END_TO_END_UNITS
    problems = [p for r in rounds for p in r.check.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    for problem in sorted(set(problems)):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
