#!/usr/bin/env python3
"""slipstokes benchmark: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload stokes_ladder --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  A run
draws its data parameters from ``--seed``, builds meshes and data
(``setup_s``: the median package import time plus the median time of
several set-ups), then
repeats the workload until ``--seconds`` have passed and reports the
median iteration time as ``wall_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics from the
traced ones, plus ``trace.overhead_s``: the median, over the traced
iterations, of each one's time minus the mean of the untraced iterations
just before and after it, so that a steady drift of the machine cancels.
Its spans go to ``.perfbench_out/``.  A traced run makes at least
``TRACE_PAIRS`` traced iterations, ends with an untraced one, and starts
with one untimed warm-up iteration, so that neither side of the
comparison is the process's cold first iteration.  Every iteration's
outputs are checked; any failed check makes the exit code 1.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import Calls, Checks, WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
TRACE_PAIRS = 3


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import slipstokes; "
                "print(time.perf_counter() - t0)")


def import_package():
    """Import slipstokes from the checkout's ``src/``.

    Returns the module and the median import time over this import and
    ``SETUP_REPEATS - 1`` imports in fresh interpreters.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "slipstokes", "__init__.py")):
        raise SystemExit(f"error: no slipstokes sources under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import slipstokes
    samples = [time.perf_counter() - t0]
    if not os.path.abspath(slipstokes.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: slipstokes imported from {slipstokes.__file__}")
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               check=True)
        samples.append(float(probe.stdout))
    return slipstokes, statistics.median(samples)


def _seconds(walls):
    return " ".join(f"{w:.3f}" for w in walls) + " s"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    workload = WORKLOADS[args.workload]
    params = workload.params(random.Random(args.seed))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"params {json.dumps(params)}")
    ss, import_s = import_package()
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root, prefix=f"{workload.name}-")
    try:
        return _measure(args, workload, params, ss, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass


def _measure(args, workload, params, ss, import_s, scratch):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup(ss, params, scratch)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    calls, checks = Calls(ss), Checks()
    tracer = Tracer() if args.trace else None
    walls, traced_walls, layers = [], [], []
    start = time.perf_counter()
    if args.trace:
        # The first iteration of a process runs cold; keep it out of the
        # traced-versus-untraced comparison.
        workload.check(ss, ctx, workload.run(ss, ctx, calls), checks)
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        if traced:
            tracer.tag = len(traced_walls)
            first = len(tracer.spans)
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = workload.run(ss, ctx, calls)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer.spans[first:]))
        else:
            walls.append(wall)
        workload.check(ss, ctx, out, checks)
        del out
        if (time.perf_counter() - start >= args.seconds
                and (not args.trace
                     or len(walls) > len(traced_walls) >= TRACE_PAIRS)):
            break

    if args.trace:
        path = os.path.join(ROOT, ".perfbench_out",
                            f"spans-{workload.name}-seed{args.seed}.ndjson")
        tracer.write_ndjson(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        values = {name: statistics.median(row[name] for row in layers)
                  for name in LAYER_METRICS}
        values["trace.overhead_s"] = statistics.median(
            t - (before + after) / 2
            for t, before, after in zip(traced_walls, walls, walls[1:]))
        metrics = {name: _metric(values[name], unit)
                   for name, unit in LAYER_METRICS.items()}
        samples = (f"{len(traced_walls)} traced between "
                   f"{len(walls)} untraced after 1 warm-up (untraced {_seconds(walls)}, traced "
                   f"{_seconds(traced_walls)}; the tracer's counters took "
                   f"{tracer.paused_s / len(traced_walls):.3f} s per traced "
                   "iteration)")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "success_share": _metric(1.0 - calls.failed / calls.attempted,
                                     "share"),
        }
        samples = f"{len(walls)} ({_seconds(walls)})"

    print(f"iterations {samples}; setup_s = import {import_s:.4f} s + "
          f"set-up {statistics.median(setups):.4f} s, medians of "
          f"{SETUP_REPEATS} each")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_share':36s} {calls.failed / calls.attempted:>16.6g} "
          f"share ({calls.failed} of {calls.attempted} calls failed)")
    for error in sorted(set(calls.errors)):
        print(f"  failed call: {error}")
    failed_checks = checks.failed
    print(f"checks: {len(checks.results) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed")
    for name, ok, detail in dict.fromkeys(checks.results):
        print(f"  {'ok' if ok else 'FAILED':6s} {name}: {detail}")
    result = {"correct": not failed_checks, "attempted": calls.attempted,
              "failed": calls.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed_checks else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    status, rows = 0, []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode or result is None:
            status = 1
        rows.append((name, proc.returncode, result))
    print("\nsummary")
    for name, code, result in rows:
        if result is None:
            print(f"  {name}: exited {code} without a result")
            continue
        parts = [f"{k} {m['value']:.6g} {m['unit']}"
                 for k, m in result["metrics"].items()]
        parts.append(f"failed_share {result['failed'] / result['attempted']:.4g}"
                     f" share ({result['failed']}/{result['attempted']})")
        print(f"  {name}: correct {result['correct']}; " + "; ".join(parts))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
