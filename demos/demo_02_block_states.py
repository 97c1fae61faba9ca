"""
Wavefunctions from conformal blocks
===================================

Builds the five block states, confirms their quantum numbers, and shows
how the torus radius interpolates between two solvable limits.
"""

import numpy as np

from idmps.blocks import (BlockSpec, build_record, build_state,
                          momentum_eigenvalue)
from idmps.hilbert import (apply_site_unitary, fidelity_per_site,
                           total_spin_quantum, translate)
from idmps.refstates import U_CIRC_TO_SPIN, mg_combination

# the SU(2) level-1 theory has two blocks (k = 0, 1/2) on spin-1/2 sites;
# level 2 has three (nu = 2, 3, 4) on spin-1 sites in the circular basis
specs = [BlockSpec("su2_1", 0, 6), BlockSpec("su2_1", "half", 6),
         BlockSpec("su2_2", 2, 6), BlockSpec("su2_2", 3, 6),
         BlockSpec("su2_2", 4, 6)]

print("momentum eigenvalue and total spin at R = 1:")
for spec in specs:
    state, log_scale = build_record(spec, 1.0)
    lam = momentum_eigenvalue(spec)
    mom = np.linalg.norm(translate(state).amplitudes
                         - lam * state.amplitudes)
    spun = state if spec.d == 2 else apply_site_unitary(state,
                                                        U_CIRC_TO_SPIN)
    s, sz = total_spin_quantum(spun)
    print(f"  {spec.name:9s} T-eig {lam:+.3f}  |T psi - lam psi| = "
          f"{mom:.2e}  S = {s:.2e}  log scale {log_scale:+.2f}")

# shrinking R drives psi0 into the Majumdar-Ghosh dimer pair: one of the
# two sign combinations D0 +- D1 takes over
print("\nthin-torus pairing of psi0 as R shrinks:")
mg = {"mg+": mg_combination(6, +1), "mg-": mg_combination(6, -1)}
for R in (0.2, 0.1, 0.05):
    psi = build_state(BlockSpec("su2_1", 0, 6), R)
    fids = {name: fidelity_per_site(psi, ref) for name, ref in mg.items()}
    best = max(fids, key=fids.get)
    print(f"  R={R:5.2f} -> {best}  fidelity/site {fids[best]:.12f}")

# the opposite limit has a closed form: sin / tan kernels on the cylinder
psi = build_state(BlockSpec("su2_1", 0, 6), 30.0)
cyl = build_state(BlockSpec("su2_1", 0, 6), None)
print(f"\n|<psi0(R=30)|psi0_cyl>| = {abs(psi.overlap(cyl)):.12f}")
