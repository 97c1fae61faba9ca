"""
Exact diagonalization and the parent Hamiltonian
================================================

Cross-checks the chain spectra against closed forms and shows that the
cot-coupling parent chain annihilates the k = 0 cylinder state.
"""

import math

from idmps.blocks import BlockSpec, build_state
from idmps.hamiltonians import (HamiltonianSpec, build, eigenstate_residual,
                                ground_states, parent_annihilation_check)

# 1/sin^2 chain: E0 = -(N^3 + 5N)/24, and the k = 1/2 block sits exactly
# N/2 above it
for N in (4, 6, 8):
    e0, _ = ground_states(HamiltonianSpec("hs", N))
    formula = -(N ** 3 + 5 * N) / 24
    h = build(HamiltonianSpec("hs", N))
    psi = build_state(BlockSpec("su2_1", "half", N), None)
    res = eigenstate_residual(h, psi, formula + N / 2)
    print(f"N={N}: E0 = {e0:+.10f} (formula {formula:+.10f}), "
          f"psi_half residual at E0+N/2: {res:.2e}")

# Majumdar-Ghosh point: two-fold degenerate ground level at -3N/8
e0, ground = ground_states(HamiltonianSpec("j1j2", 8, J2=0.5))
print(f"\nJ2 = 1/2, N = 8: E0 = {e0:+.6f} = -3N/8, "
      f"degeneracy {len(ground)}")

# bilinear-biquadratic chain at theta = arctan(1/3): unique AKLT ground
# state with closed-form energy -2N/sqrt(10)
theta = math.atan(1 / 3)
e0, ground = ground_states(HamiltonianSpec("qbq", 6, theta=theta))
print(f"theta = arctan(1/3), N = 6: E0 = {e0:+.10f} "
      f"(formula {-12 / math.sqrt(10):+.10f}), degeneracy {len(ground)}")

# the parent chain is PSD and annihilates the k = 0 cylinder state
print("\nparent chain at uniform insertions:")
for N in (4, 6):
    res, min_eig = parent_annihilation_check(N)
    print(f"  N={N}: |H psi0| = {res:.2e}, min eigenvalue {min_eig:+.2e}")
