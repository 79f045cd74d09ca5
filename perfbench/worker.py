"""One benchmark process: set up, run one timed pass of a workload, report.

Started by ``run.py`` as a fresh interpreter for every pass, with the BLAS
thread caps and ``GROUPSAMPLE_CACHE`` (an empty directory) already in its
environment.  It imports ``groupsample`` from the checkout's ``src/``, runs
the workload's experiments in sequence through
``groupsample.cli.run_experiment`` and writes what it saw to ``--out`` as
JSON: timings, each experiment's check verdicts, its ``table.csv`` digest and
the ``dim`` / ``c_g`` values of its checks.  Judging them is left to
``run.py``.

    python3 perfbench/worker.py --workload line --seed 0 --out r.json \
        --t-spawn <time.monotonic() of the parent just before the spawn>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each entry: experiment, config overrides, and whether table.csv is gated on
# its digest.  The H^1 grids are smaller than the experiments' defaults so
# that three fresh-process passes fit in one benchmark run; the same layers
# do the work.  The digest is not gated where table.csv depends on
# eigenvectors, whose basis a cold eigensolve picks differently in each
# process; those experiments are gated on verdicts, dim and c_g instead.
WORKLOADS = {
    # R, the affine group and the H^1 group law without eigensolves; no cache.
    # wavelet-frame is left out: one run takes 28-36 s (see run.UNMEASURED)
    "line": {
        "experiments": [
            ("shannon", {}, True),
            ("beurling-scan", {}, True),
            ("partition", {"model": "r1"}, True),
            ("oscillation", {"model": "r1"}, True),
            ("quasilattice", {"model": "rn:2"}, True),
            ("quasilattice", {"model": "affine"}, True),
            ("quasilattice", {"model": "heis1"}, True),
        ],
        "prefill": None,
    },
    # H^1 sampling hot paths on a warm eigenpair cache filled during set-up
    "h1-sampling": {
        "experiments": [
            ("partition", {"model": "heis1", "resolution": 9}, False),
            ("oscillation", {"model": "heis1", "resolution": 5}, True),
        ],
        "prefill": 9,
    },
    # the cold spectral path, from an empty cache
    "h1-spectral": {
        "experiments": [
            ("constants", {"resolution": 17}, False),
            ("heisenberg", {"resolution": 17}, False),
        ],
        "prefill": None,
    },
}

# gate values read from the checks, compared to 1e-9 relative
GATED_DETAILS = ("dim", "c_g")


def label(experiment, overrides):
    return " ".join([experiment, *(f"{k}={v}" for k, v in sorted(overrides.items()))])


def provenance(cli):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "version_hash": cli.version_hash(),
    }


def cpu_seconds():
    """User plus system CPU time of this process and its ended children."""
    return sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(workload, seed, work, traced, t_spawn):
    """Set up and run one pass; returns the observations as a dict."""
    sys.path.insert(0, str(ROOT / "src"))
    from groupsample import cli
    from groupsample import Grid, HeisenbergModel, sublaplacian_spectrum

    spec = WORKLOADS[workload]
    cache = os.environ["GROUPSAMPLE_CACHE"]
    os.makedirs(cache)
    configs = [
        (label(exp, ov), gate, cli.ExperimentConfig(
            experiment=exp, seed=seed, outdir=str(work / "out" / str(i)), **ov).validate())
        for i, (exp, ov, gate) in enumerate(spec["experiments"])
    ]
    if spec["prefill"]:
        n = spec["prefill"]
        grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (n,) * 3)
        sublaplacian_spectrum(grid, 1.0, cache_dir=cache)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    t_setup = time.monotonic()
    ru0 = cpu_seconds()
    t0 = time.perf_counter()
    results = []
    for name, gate, cfg in configs:
        before = tracer and tracer.cache_work()
        t = time.perf_counter()
        try:
            out, error = cli.run_experiment(cfg), None
        except Exception:  # a failed experiment is counted, the pass goes on
            out, error = None, traceback.format_exc()
        secs = time.perf_counter() - t
        # the cache work this experiment really did, to set against its report
        measured = tracer and {k: v - before[k] for k, v in tracer.cache_work().items()}
        results.append((name, gate, cfg, out, error, secs, measured))
    wall = time.perf_counter() - t0
    ru1 = cpu_seconds()
    trace = None if tracer is None else {
        "metrics": tracer.metrics(), "covered_s": tracer.covered_s(),
        "layer_self_s": tracer.layer_self_s()}

    experiments = []
    for name, gate, cfg, out, error, secs, measured in results:
        row = {"label": name, "experiment": cfg.experiment, "s": secs, "error": error,
               "gate_digest": gate, "measured_cache": measured}
        if out is not None:
            report = out[0]
            cli._emit(cfg, *out)  # the CLI's own writer, so the bytes match `groupsample run`
            with open(os.path.join(cfg.outdir, "table.csv"), "rb") as fh:
                row["digest"] = hashlib.sha256(fh.read()).hexdigest()
            row["verdicts"] = [[c["name"], c["verdict"]] for c in report["checks"]]
            row["details"] = {f"{c['name']}.{k}": float(c[k])
                              for c in report["checks"] for k in GATED_DETAILS if k in c}
            row["cache"] = report["cache"]
        experiments.append(row)
    return {
        "setup_s": t_setup - t_spawn,
        "wall_s": wall,
        "cpu_s": ru1 - ru0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "experiments": experiments,
        "trace": trace,
        "provenance": provenance(cli),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    out = Path(args.out)
    result = run_pass(args.workload, args.seed, out.parent, args.trace, args.t_spawn)
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
