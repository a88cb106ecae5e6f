"""Stationary Navier-Stokes by damped Picard iteration with a skew form.

The convective term enters through the antisymmetrized trilinear form, so
each linearized operator inherits the energy identity of the Stokes part
and the iteration is a contraction whenever the data are small.  The
smallness indicator S estimates the contraction condition from sampled
trilinear-form ratios; S < 1 certifies uniqueness, and then every initial
guess lands on the same solution.  Every sweep is solved by GMRES on the
one factorization of the Stokes system; the log shows its iterations.
"""

import numpy as np

from slipstokes import (build_taylor_hood, make_unit_square,
                        navier_stokes_mms, solve_navier_stokes)
from slipstokes.errors import MaxIterations
from slipstokes.fem import velocity_error_h1
from slipstokes.navierstokes import (PicardOptions, smallness_indicator,
                                     trilinear_defects)

mesh = make_unit_square(16)
mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)

print("== structure of the convection form ==")
rng = np.random.default_rng(1)
fe = build_taylor_hood(mesh)
w = rng.standard_normal(fe.num_velocity_dofs)
v = rng.standard_normal(fe.num_velocity_dofs)
d = trilinear_defects(mesh, w, v, v)
print(f"diagonal defect |v.C(w)v| (relative): {d['skew_diagonal']:.2e}")
print(f"antisymmetry defect of C + C^T:       {d['antisymmetry']:.2e}")

print()
print("== smallness indicator and the iteration ==")
S = smallness_indicator(mesh, mms["data"], n_triples=60, seed=0)
print(f"S = {S:.4f} (< 1 certifies a contraction; this data is deep inside)")
sol, log = solve_navier_stokes(mesh, mms["data"])
print("iteration  increment      energy residual  GMRES iterations")
for (it, inc, er), krylov in zip(log.rows, log.krylov):
    gmres = "refactored" if krylov is None else krylov
    print(f"{it:>9}  {inc:>13.6e}  {er:>15.6e}  {gmres:>16}")
_, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
print(f"H1 error against the manufactured solution: {h1:.3e}")

print()
print("== guess independence ==")
rng = np.random.default_rng(7)
guess = sol.u + 0.5 * rng.standard_normal(sol.u.shape)
sol2, log2 = solve_navier_stokes(mesh, mms["data"],
                                 PicardOptions(initial_guess=guess))
print(f"restarting from a randomly perturbed guess "
      f"({len(log2.rows)} sweeps): |u_a - u_b|_max = "
      f"{np.abs(sol.u - sol2.u).max():.2e}")

print()
print("== outside the contraction regime ==")
big = navier_stokes_mms(alpha=1.0, amplitude=1000.0)
try:
    solve_navier_stokes(make_unit_square(8), big["data"],
                        PicardOptions(max_iterations=12))
except MaxIterations as exc:
    print(f"MaxIterations: {exc}")
