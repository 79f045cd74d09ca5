"""Benchmark of the groupsample CLI experiments, end to end and per layer.

    python3 perfbench/run.py --workload {line,h1-sampling,h1-spectral,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``all`` runs the workloads one after the
other.  Each timed pass is a fresh process (``worker.py``): one client,
closed loop, the workload's experiments in sequence through
``groupsample.cli.run_experiment``, with a new empty ``GROUPSAMPLE_CACHE``
under ``.perfbench_work/`` and one BLAS thread.  Passes repeat while the
next one still fits in ``--seconds``, and at least three times.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the passes: ``wall_s`` and ``cpu_s`` of the timed pass,
``setup_s`` from process start until the pass can begin (import, configs,
cache directory, the workload's cache pre-fill) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``spans.py``), the tracing overhead, the share of
wall time no span covers, the time by layer, and each experiment's cache
work as its ``report.json`` claims it next to what the spans saw.
``check_counters.py`` checks that the counts repeat exactly.

Every experiment run is checked against ``reference.json``, recorded from
the seed commit by ``reference.py``: the check verdicts must match, and so
must the ``table.csv`` sha256, or, for experiments whose table depends on
eigenvectors, the ``dim`` and ``c_g`` values of the checks to 1e-9
relative.  ``--seed`` picks the experiments' ``seed`` as N modulo the number
of recorded seeds.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the same numbers for a reader, with quartiles, ``fail_rate``, the
distinct ``table.csv`` digests and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
# One BLAS/OpenMP thread, inside the nproc cap: on a 2-core machine a second
# thread shortened an h1-sampling pass by 17% and the others not at all, but
# about doubled the spread of wall_s between runs, because a thread that any
# other process deschedules stalls its partner at the next barrier.
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # the whole run must end well inside 180 s
REL_TOL = 1e-9
# Per-layer metrics of interest that no workload reaches: only wavelet-frame
# calls them, and one wavelet-frame run takes 28-36 s, too long to repeat
# three times within one benchmark run.
UNMEASURED = ("kernels.transform_eta_direct", "kernels.wavelet_transform",
              "kernels.mollified_vector", "frames.wavelet_frame_bounds")


class WorkerError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def spawn(workload, seed, traced, work, timeout):
    """Run one pass in a fresh interpreter; returns its observations."""
    work.mkdir(parents=True)
    out = work / "result.json"
    env = dict(os.environ, GROUPSAMPLE_CACHE=str(work / "cache"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--t-spawn", repr(t0)], env=env, cwd=work,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"pass did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(proc.stderr[-4000:] or f"worker exited {proc.returncode}")
    res = json.loads(out.read_text())
    res["duration"] = time.monotonic() - t0
    res["traced"] = traced
    return res


def remove_work(work):
    """Delete a scratch directory under WORK, and WORK once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def run_passes(workload, seed, seconds, trace, work):
    start = time.monotonic()
    passes = []
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + max(p["duration"] for p in passes) > seconds:
            return passes
        traced = trace and len(passes) % 2 == 1
        timeout = max(1.0, DEADLINE_S - elapsed)
        passes.append(spawn(workload, seed, traced, work / str(len(passes)), timeout))


def judge(row, ref):
    """Reasons why one experiment run counts as failed (empty if it passed)."""
    if row["error"]:
        return ["raised " + row["error"].strip().splitlines()[-1]]
    reasons = []
    if row["verdicts"] != ref["verdicts"]:
        reasons.append(f"verdicts {row['verdicts']} != reference {ref['verdicts']}")
    if row["gate_digest"] and row["digest"] != ref["digest"]:
        reasons.append("table.csv differs from the reference")
    for key, want in ref["details"].items():
        got = row["details"].get(key)
        if got is None or abs(got - want) > REL_TOL * abs(want):
            reasons.append(f"{key} = {got} != reference {want}")
    return reasons


def end_to_end(passes, spec):
    """Median, first and third quartile and count of each metric."""
    out = {}
    for m in spec:
        vals = [p[m["name"]] for p in passes]
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out[m["name"]] = (statistics.median(vals), q1, q3, len(vals))
    return out


def unreported_misses(row):
    """Cache misses the traced experiment made (eigensolves and C_G
    estimates) beyond those its ``report.json`` claims."""
    m = row["measured_cache"]
    return max(0, m["spectrum_misses"] + m["constants_misses"]
               - row.get("cache", {}).get("misses", 0))


def print_trace_detail(passes):
    """Where the first traced pass spent its time, and its cache work as
    ``report.json`` claims it and as the spans saw it."""
    p = next(p for p in passes if p["traced"])
    wall = p["wall_s"]
    print("  time by layer, share of traced wall (self / inclusive):")
    for layer, secs in sorted(p["trace"]["layer_self_s"].items(), key=lambda kv: -kv[1]):
        incl = p["trace"]["metrics"].get(f"{layer}.inclusive_s", 0.0)
        print(f"    {layer:<10} {secs / wall:6.1%} / {incl / wall:6.1%}")
    print("  cache per experiment: report.json hits/misses vs measured")
    for e in p["experiments"]:
        c, m = e.get("cache", {}), e["measured_cache"]
        print(f"    {e['label']:<40} report {c.get('hits', 0)}/{c.get('misses', 0)}; "
              f"spectrum calls {m['spectrum_calls']}, eigensolves {m['spectrum_misses']}, "
              f"estimate_constants {m['constants_misses']}")
    print("  not measured on any workload: " + ", ".join(UNMEASURED)
          + " (only wavelet-frame reaches them)")


def per_layer(passes, spec):
    """Per-layer metrics: counts from the first traced pass, times as the
    median over traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in traced)

    def value(p, name):
        if name == "trace.wall_s":
            return p["wall_s"]
        if name == "trace.uncovered_share":
            return (p["wall_s"] - p["trace"]["covered_s"]) / p["wall_s"]
        if name == "cli.report_cache.unreported_misses":
            return sum(unreported_misses(e) for e in p["experiments"])
        if name.startswith("cli.report_cache."):
            key = name.rsplit(".", 1)[1]
            return sum(e.get("cache", {}).get(key, 0) for e in p["experiments"])
        if name.startswith("cli."):  # cli.<experiment>.s
            exp = name[len("cli."):-len(".s")]
            return sum(e["s"] for e in p["experiments"] if e["experiment"] == exp)
        return p["trace"]["metrics"].get(name, 0)

    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            out[name] = wall - statistics.median(p["wall_s"] for p in plain)
        elif m["unit"] == "count":
            out[name] = value(traced[0], name)
        else:
            out[name] = statistics.median(value(p, name) for p in traced)
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def report(workload, seed_arg, seconds, trace, bench, reference):
    """Run one workload and print its metrics; the last line is the JSON result."""
    seed = seed_arg % reference["n_seeds"]
    refs = reference["workloads"][workload][str(seed)]
    work = WORK / str(os.getpid())
    try:
        passes = run_passes(workload, seed, seconds, trace, work)
    finally:
        remove_work(work)

    attempted = failed = 0
    digests = {}
    for i, ps in enumerate(passes):
        for row in ps["experiments"]:
            attempted += 1
            digests.setdefault(row["label"], set()).add(row.get("digest"))
            reasons = judge(row, refs[row["label"]])
            failed += bool(reasons)
            for r in reasons:
                print(f"FAIL pass {i} {row['label']}: {r}")

    n_traced = sum(ps["traced"] for ps in passes)
    print(f"workload {workload}, seed {seed_arg} (experiment seed {seed}), "
          f"{len(passes)} passes ({n_traced} traced)")
    if trace:
        spec = bench["per_layer"]
        values = per_layer(passes, spec)
        for m in spec:
            print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
        idle = [m["name"] for m in spec if values[m["name"]] == 0]
        if idle:
            print("  reading 0 (not reached on this workload): " + ", ".join(idle))
        print_trace_detail(passes)
    else:
        spec = bench["end_to_end"]
        stats = end_to_end([ps for ps in passes if not ps["traced"]], spec)
        values = {k: v[0] for k, v in stats.items()}
        for m in spec:
            med, q1, q3, n = stats[m["name"]]
            print(f"  {m['name']:<12} {med:>12.4f} {m['unit']:<6} "
                  f"(median of {n}; quartiles {q1:.4f} .. {q3:.4f})")
        for name in ("wall_s", "setup_s"):
            print(f"  {name} per pass: " + " ".join(f"{ps[name]:.3f}" for ps in passes))
    print(f"  {'fail_rate':<12} {failed / attempted:>12.4f} 1      "
          f"({failed} of {attempted} experiment runs)")
    print("  distinct table.csv digests: "
          + ", ".join(f"{k} {len(v)}" for k, v in digests.items()))
    prov = dict(passes[0]["provenance"], nproc=nproc(), blas_threads=int(BLAS_THREADS),
                git_commit=git_commit(),
                reference_version_hash=reference["version_hash"])
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "groupsample" / "__init__.py").is_file():
        print(f"error: no groupsample sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    try:
        for workload in workloads:
            report(workload, args.seed, args.seconds, bool(args.trace), bench, reference)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
