"""Spectral constants: Korn quotients, inf-sup stability, rotation bounds.

Eigenvalue computations on the constrained velocity spaces quantify what
the solver relies on: coercivity away from symmetric geometry, its exact
collapse on the frictionless disk, the friction term restoring it, and a
mesh- and friction-independent inf-sup constant for the pressure.
"""

from slipstokes import (beta_inequality_checks, infsup_constant,
                        korn_quotient_min, make_disk, make_unit_square)

print("== Korn quotient minimum over impermeable fields ==")
print(f"{'case':<28} {'constant':>12} {'raw eigenvalue':>16}")
for n in (4, 8, 16):
    rep = korn_quotient_min(make_unit_square(n))
    print(f"{f'square n={n}, alpha=0':<28} {rep.constant:>12.6f} "
          f"{rep.detail['raw_eigenvalue']:>16.3e}")
for level in (1, 2, 3):
    rep = korn_quotient_min(make_disk(level))
    print(f"{f'disk level {level}, alpha=0':<28} {rep.constant:>12.6f} "
          f"{rep.detail['raw_eigenvalue']:>16.3e}")
for level in (1, 2, 3):
    rep = korn_quotient_min(make_disk(level), alpha=1.0)
    print(f"{f'disk level {level}, alpha=1+bnd':<28} {rep.constant:>12.6f} "
          f"{rep.detail['raw_eigenvalue']:>16.3e}")
print("the disk constant is exactly zero: the interpolated rigid rotation")
print("is a discrete kernel vector, not merely a small eigenvalue")

print()
print("== inf-sup (LBB) constant of the divergence pairing ==")
print(f"{'mesh':<18} {'gamma':>10}")
for n in (4, 8, 16):
    rep = infsup_constant(make_unit_square(n))
    print(f"{f'square n={n}':<18} {rep.constant:>10.6f}")
rep = infsup_constant(make_unit_square(4), cross_check=True)
print(f"dense-oracle cross check at n=4: "
      f"{abs(rep.detail['dense_oracle'] - rep.constant):.2e} apart")
base = infsup_constant(make_unit_square(8), alpha=0.0).constant
dev = max(abs(infsup_constant(make_unit_square(8), alpha=a).constant - base)
          for a in (1e-2, 1.0, 1e4))
print(f"friction sweep at n=8 changes gamma by {dev:.1e} "
      "(the pairing never sees alpha)")

print()
print("== rotation-moment inequalities on the disk ==")
for level in (1, 2):
    reports = beta_inequality_checks(make_disk(level))
    for name in ("volume", "boundary"):
        rep = reports[name]
        print(f"level {level}, {name:>8} moment: min eigenvalue "
              f"{rep.constant:.4f}, optimal constant "
              f"{rep.detail['optimal_inequality_constant']:.4f}")
print("adding either moment as a rank-one term makes the strain form")
print("definite again, with constants stable under refinement")
