#!/usr/bin/env python3
"""Run the benchmark twice over ten seeds and record the baseline.

    python3 perfbench/sweep.py

Every workload of ``BENCHMARK.json`` runs with ``run_seconds`` on seeds
0-9 (first pass), then again on seeds 10-19 (second pass).  For each pass,
workload and end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound; then how far the second
pass's median moved from the first's.  One traced run per workload (seed
0) gives the per-layer values.  Everything, with the source commit and the
machine's environment, goes to ``perfbench/baseline.json``.

The exit code is 1 when a spread other than that of ``setup_s`` exceeds
its bound, or when a second-pass median is worse than the first by more
than the bound.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "baseline.json")
SEEDS = 10
PASSES = 2


def run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    print(f"    {workload} seed {seed} trace {trace}: "
          f"{time.perf_counter() - t0:.1f} s", flush=True)
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def source_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas": {"name": blas["name"], "version": blas["version"],
                 "configuration": blas.get("openblas configuration")},
        # Unset means OpenBLAS starts one thread per processor.
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def worse_by(first, second, better):
    """Share by which ``second`` is worse than ``first`` (<= 0: not worse)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True

    passes = []
    for number in range(PASSES):
        seeds = list(range(number * SEEDS, (number + 1) * SEEDS))
        record = {}
        print(f"pass {number + 1}, seeds {seeds[0]}-{seeds[-1]}", flush=True)
        for workload in workloads:
            results = [run(workload, seed, seconds, 0) for seed in seeds]
            entry = {"seeds": seeds, "attempted": results[0]["attempted"],
                     "failed": results[0]["failed"], "end_to_end": {}}
            print(f"  {workload}")
            for name, metric in metrics.items():
                stats = summarize([r["metrics"][name]["value"]
                                   for r in results])
                stats["unit"] = results[0]["metrics"][name]["unit"]
                entry["end_to_end"][name] = stats
                flag = ""
                if stats["spread"] > metric["bound"] and name != "setup_s":
                    flag, ok = "  <-- above bound", False
                elif stats["spread"] > metric["bound"] / 3:
                    flag = "  <-- above bound/3"
                print(f"    {name:14s} median {stats['median']:12.6g} "
                      f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                      f"spread {stats['spread']:.4f} "
                      f"(bound {metric['bound']}){flag}", flush=True)
            record[workload] = entry
        passes.append(record)

    print("second pass against first: share by which the median got worse")
    for workload in workloads:
        for name, metric in metrics.items():
            first, second = (p[workload]["end_to_end"][name]["median"]
                             for p in passes)
            worse = worse_by(first, second, metric["better"])
            flag = ""
            if worse > metric["bound"]:
                flag, ok = "  <-- above bound", False
            print(f"  {workload:15s} {name:14s} {first:12.6g} -> "
                  f"{second:12.6g}  worse by {worse:+.4f} "
                  f"(bound {metric['bound']}){flag}")

    per_layer = {}
    for workload in workloads:
        traced = run(workload, 0, seconds, 1)
        per_layer[workload] = {"seed": 0, "metrics": {
            k: m["value"] for k, m in traced["metrics"].items()}}

    with open(RECORD, "w") as fh:
        json.dump({"commit": source_commit(), "environment": environment(),
                   "run_seconds": seconds, "passes": passes,
                   "per_layer": per_layer}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"written {os.path.relpath(RECORD, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
