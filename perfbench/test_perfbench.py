"""Tests of the benchmark's tracer and harness.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import slipstokes as ss  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings():
    """Every module-level binding of a tracer target, keyed by location."""
    found = {}
    for _, module_name, attr in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        prefix = "scipy.sparse.linalg" if module_name.startswith("scipy") \
            else "slipstokes"
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(prefix):
                continue
            for key, value in vars(module).items():
                if value is original:
                    found[(name, key)] = value
    return found


def _solves():
    stokes = ss.solve_stokes(ss.make_unit_square(8),
                             ss.stokes_mms(alpha=1.0)["data"])
    ns, _ = ss.solve_navier_stokes(ss.make_unit_square(8),
                                   ss.navier_stokes_mms()["data"])
    return [(sol.u.tobytes(), sol.p.tobytes()) for sol in (stokes, ns)]


def _reports(outdir):
    configs = [
        ss.ExperimentConfig(kind="mms", levels=(4, 8, 16)),
        ss.ExperimentConfig(kind="alpha_to_infinity", levels=(8,)),
        ss.ExperimentConfig(kind="compat_disk", domain="disk",
                            levels=(1, 2, 3)),
    ]
    csv = []
    for cfg in configs:
        path, _ = ss.write_report(ss.run_experiment(cfg),
                                  os.path.join(outdir, cfg.kind))
        with open(path, "rb") as fh:
            csv.append(fh.read())
    return csv


def test_traced_and_untraced_outputs_are_bitwise_identical(tmp_path):
    plain = _solves(), _reports(str(tmp_path / "plain"))
    with Tracer() as tracer:
        traced = _solves(), _reports(str(tmp_path / "traced"))
    assert traced == plain
    names = {s["name"] for s in tracer.spans}
    assert {"saddle.factor_solve", "stokes.solve_stokes",
            "navierstokes.solve_navier_stokes", "experiments.run_experiment",
            "scipy.splu"} <= names


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    try:
        assert ss.stokes.factor_solve is not before[("slipstokes.saddle",
                                                     "factor_solve")]
        assert ss.navierstokes.apply_plan.__wrapped__ is before[
            ("slipstokes.constraints", "apply_plan")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_fill_counts_reach_the_factorization():
    with Tracer() as tracer:
        ss.solve_stokes(ss.make_unit_square(8), ss.stokes_mms()["data"])
    by_id = {s["id"]: s for s in tracer.spans}
    factor = [s for s in tracer.spans if s["name"] == "saddle.factor_solve"]
    assert len(factor) == 1
    assert by_id[factor[0]["parent"]]["name"] == "stokes.solve_stokes"
    metrics = layer_metrics(tracer.spans)
    assert metrics["saddle.factor_calls"] == 1
    assert metrics["stokes.solves"] == 1
    assert metrics["saddle.fill_nnz"] == metrics["saddle.fill_nnz_max"] > 0
    assert 0.0 < metrics["stokes.self_s"] < metrics["stokes.solve_s"]


def test_self_time_subtracts_child_coverage_once():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0},
                {"start": 9.0, "end": 12.0}]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0)


def test_seed_draws_only_data_parameters():
    for workload in WORKLOADS.values():
        a = workload.params(random.Random(3))
        assert a == workload.params(random.Random(3))
        b = workload.params(random.Random(4))
        assert a != b
        shape = {k: len(v) if isinstance(v, list) else None
                 for k, v in a.items()}
        assert shape == {k: len(v) if isinstance(v, list) else None
                         for k, v in b.items()}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disk_kernel",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
