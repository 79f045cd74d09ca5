"""Record the outputs the benchmark checks against, into ``reference.json``.

    python3 perfbench/reference.py

Runs one untraced pass of every workload for experiment seeds
0 .. N_SEEDS-1 and stores, per experiment, its check verdicts, its
``table.csv`` sha256 and the ``dim`` / ``c_g`` values of its checks.  Run it
on the commit whose outputs are the reference, and only there: ``run.py``
counts every difference from this file as a failure.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORK, remove_work, spawn
from worker import WORKLOADS

N_SEEDS = 16


def main():
    out = {"n_seeds": N_SEEDS, "workloads": {}}
    work = WORK / "reference"
    try:
        for workload in WORKLOADS:
            per_seed = out["workloads"][workload] = {}
            for seed in range(N_SEEDS):
                res = spawn(workload, seed, False, work / f"{workload}-{seed}", timeout=600)
                out["version_hash"] = res["provenance"]["version_hash"]
                per_seed[str(seed)] = {
                    row["label"]: {"verdicts": row["verdicts"], "digest": row["digest"],
                                   "details": row["details"]}
                    for row in res["experiments"]
                }
                print(workload, seed, f"{res['wall_s']:.1f} s", file=sys.stderr)
    finally:
        remove_work(work)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
