"""Check that the per-layer counters repeat exactly between traced passes.

    python3 perfbench/check_counters.py [--workload NAME ...] [--seed N]

Runs two traced passes of each workload (default: all), each in a fresh
process, and compares every count the tracer keeps (``*.calls``,
``*.elements``, ``*.points``, ``pointsets.gauge_evals``,
``analysis.sublaplacian_spectrum.misses``, ``frames.reconstruct.iterations``)
and the cache hits and misses of each ``report.json``.  Prints the
differences and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import sys

from run import WORK, remove_work, spawn
from worker import WORKLOADS


def counts(res):
    out = {k: v for k, v in res["trace"]["metrics"].items() if not k.endswith("_s")}
    for row in res["experiments"]:
        for key, v in row["cache"].items():
            out[f"report_cache.{row['label']}.{key}"] = v
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    work = WORK / "check-counters"
    bad = 0
    try:
        for workload in args.workload:
            a, b = (counts(spawn(workload, args.seed, True, work / f"{workload}-{i}", 170))
                    for i in range(2))
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            for k in diff:
                print(f"{workload}: {k} {a.get(k)} != {b.get(k)}")
            bad += len(diff)
            print(f"{workload}: {len(a)} counters, {len(diff)} differ; "
                  f"analysis.splu.calls = {a.get('analysis.splu.calls', 0)}")
    finally:
        remove_work(work)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
