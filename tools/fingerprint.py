#!/usr/bin/env python3
"""Byte fingerprint of the deterministic outputs of a source checkout.

    python3 tools/fingerprint.py

Prints one JSON object of SHA-256 digests:

* ``report.csv`` of each experiment kind at its defaults (``compat_disk``
  on disk levels 1-3, as the command line runs it), and of
  ``spectra_suite`` on disk levels 1-4 (radius 1, alpha 1), where the
  frictionless Korn constant is the disk's kernel;
* the run id and the sidecar of three command line solves: the default
  ``solve-stokes``, ``solve-ns --data mms`` and the guarded
  ``solve-stokes --domain disk --level 3 --alpha 0 --data disk-compatible``;
* ``IterationLog.to_csv`` of ``navier_stokes_mms`` on the level-16 square;
* the bytes of every velocity and the GMRES iteration list of
  ``solve_friction_sweep`` of ``sweep_forcing`` on disk 3 over
  ``[1e-2, 1, 1e2, 1e4]``, where ``compat_disk``'s velocity is zero to
  rounding and so shows no change in the disk friction systems;
* the volume and boundary constants of ``beta_inequality_checks`` on disk
  levels 1-4 at radius 1 and at radius 0.01, each written with 17
  significant digits.

A refactor that keeps the numerics prints the same object before and after.
The package is imported from ``src/`` next to this directory, and no
temporary path reaches the output.  It takes about ten seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from slipstokes import cli  # noqa: E402
from slipstokes.experiments import (KINDS, ExperimentConfig,  # noqa: E402
                                    run_experiment)
from slipstokes.fields import navier_stokes_mms, sweep_forcing  # noqa: E402
from slipstokes.mesh import make_disk, make_unit_square  # noqa: E402
from slipstokes.navierstokes import solve_navier_stokes  # noqa: E402
from slipstokes.spectra import beta_inequality_checks  # noqa: E402
from slipstokes.stokes import solve_friction_sweep  # noqa: E402

CLI_RUNS = {
    "solve-stokes": ["solve-stokes"],
    "solve-ns-mms": ["solve-ns", "--data", "mms"],
    "solve-stokes-disk3-guarded": ["solve-stokes", "--domain", "disk",
                                   "--level", "3", "--alpha", "0",
                                   "--data", "disk-compatible"],
}


def _sha(data):
    return hashlib.sha256(data.encode("ascii") if isinstance(data, str)
                          else data).hexdigest()


def _report_digests():
    out = {}
    for kind in KINDS:
        cfg = ExperimentConfig(kind=kind)
        if kind == "compat_disk":
            cfg.domain, cfg.levels = "disk", (1, 2, 3)
        out[kind] = _sha(run_experiment(cfg).to_csv())
    out["spectra_suite_disk"] = _sha(run_experiment(ExperimentConfig(
        kind="spectra_suite", domain="disk", levels=(1, 2, 3, 4),
        alpha=1.0)).to_csv())
    return out


def _cli_digests():
    out = {}
    for name, argv in CLI_RUNS.items():
        with tempfile.TemporaryDirectory() as root:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + ["--out", root])
            if code != 0:
                raise SystemExit(f"{name} exited with {code}")
            record = json.loads(buf.getvalue())
            with open(record["path"] + ".json", "rb") as fh:
                sidecar = fh.read()
        out[name] = {"run_id": record["run_id"], "sidecar": _sha(sidecar)}
    return out


def _disk_sweep_digest():
    solutions, iterations = solve_friction_sweep(
        make_disk(3), sweep_forcing(), [1e-2, 1.0, 1e2, 1e4])
    return _sha(b"".join(s.u.tobytes() for s in solutions)
                + json.dumps(iterations).encode("ascii"))


def _moment_digest():
    lines = []
    for radius in (1.0, 0.01):
        for level in (1, 2, 3, 4):
            reports = beta_inequality_checks(make_disk(level, radius))
            lines.append(f"{radius} {level} "
                         f"{reports['volume'].constant:.17g} "
                         f"{reports['boundary'].constant:.17g}\n")
    return _sha("".join(lines))


def main():
    _, log = solve_navier_stokes(make_unit_square(16),
                                 navier_stokes_mms()["data"])
    print(json.dumps({"report_csv": _report_digests(), "cli": _cli_digests(),
                      "iteration_log_csv": _sha(log.to_csv()),
                      "disk3_friction_sweep": _disk_sweep_digest(),
                      "rotation_moments": _moment_digest()},
                     indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
