"""Manufactured-solution convergence study for Stokes flow with slip.

The exact velocity is a stream-function vortex that is tangential on all
four sides of the square, so it satisfies the impermeability condition
exactly; the boundary data carries both the traction and the friction
term.  Taylor-Hood elements should deliver order 2 in H1 for velocity
and order 2 in L2 for pressure, and every solve must satisfy the
discrete energy identity to near machine precision.
"""

import numpy as np

from slipstokes import make_unit_square, solve_stokes, stokes_mms
from slipstokes.fem import pressure_error_l2, velocity_error_h1

mms = stokes_mms(alpha=1.0)

print("friction coefficient alpha = 1, levels 8..64")
print(f"{'n':>4} {'h':>8} {'H1 velocity err':>16} {'rate':>6} "
      f"{'L2 pressure err':>16} {'rate':>6} {'energy defect':>14}")

prev = None
for n in (8, 16, 32, 64):
    sol = solve_stokes(make_unit_square(n), mms["data"])
    _, eu = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
    ep = pressure_error_l2(sol.fe, sol.p, mms["p"])
    if prev is None:
        ru = rp = float("nan")
    else:
        ru = np.log(prev[0] / eu) / np.log(2.0)
        rp = np.log(prev[1] / ep) / np.log(2.0)
    defect = (sol.diagnostics["energy_residual"]
              / sol.diagnostics["energy_scale"])
    print(f"{n:>4} {1.0 / n:>8.4f} {eu:>16.6e} {ru:>6.2f} "
          f"{ep:>16.6e} {rp:>6.2f} {defect:>14.2e}")
    prev = (eu, ep)

print()
print("the same exact solution with a much larger friction coefficient:")
sol = solve_stokes(make_unit_square(32), stokes_mms(alpha=25.0)["data"])
_, eu = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
print(f"alpha = 25, n = 32: H1 velocity error {eu:.3e}")
print(f"pressure mean after gauging: "
      f"{sol.diagnostics['pressure_mean']:.2e} (pinned to zero)")
