#!/usr/bin/env python3
"""Peak resident memory of the largest single calls, each in a fresh process.

    python3 tools/peak_memory.py [CASE ...]

Runs each case (all of them by default) in a new interpreter that imports
the package from ``src/`` next to this directory, and prints one JSON
object mapping each case to that process's ``ru_maxrss`` in MB, import
and mesh construction included:

* ``solve_stokes_square64``, ``solve_stokes_square128``: ``solve_stokes``
  on the unit square with the manufactured data at alpha 1;
* ``beta_inequality_checks_disk5``: the two rotation-moment constants of
  disk 5;
* ``infsup_constant_square128``: the inf-sup constant of square 128;
* ``alpha_to_infinity_square64``: ``run_experiment`` of the default
  ``alpha_to_infinity`` study on square 64 (the clamped reference and
  the friction sweep over 1, 10, ..., 1e6).

The cases run one after another; the largest peaks near 1 GB.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

CASES = {
    "solve_stokes_square64":
        "ss.solve_stokes(ss.make_unit_square(64), ss.stokes_mms(1.0)['data'])",
    "solve_stokes_square128":
        "ss.solve_stokes(ss.make_unit_square(128), ss.stokes_mms(1.0)['data'])",
    "beta_inequality_checks_disk5": "ss.beta_inequality_checks(ss.make_disk(5))",
    "infsup_constant_square128": "ss.infsup_constant(ss.make_unit_square(128))",
    "alpha_to_infinity_square64": "ss.run_experiment(ss.ExperimentConfig("
                                  "kind='alpha_to_infinity', levels=(64,)))",
}

PROBE = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
         "import slipstokes as ss; exec(sys.argv[2]); "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)")


def peak_mb(call):
    """``ru_maxrss`` in MB of a fresh interpreter that runs ``call``."""
    out = subprocess.run([sys.executable, "-c", PROBE, SRC, call],
                         stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout.split()[-1])


def main(argv):
    unknown = sorted(set(argv) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; choose from {sorted(CASES)}")
    print(json.dumps({name: round(peak_mb(CASES[name]), 1)
                      for name in argv or CASES}, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
