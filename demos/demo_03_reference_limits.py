"""
Exact reference states and convergence to them
==============================================

Builds dimer, Majumdar-Ghosh, and AKLT states three independent ways and
tables the block states' approach to them in both torus limits.
"""

from idmps.blocks import BlockSpec
from idmps.experiments import limit_convergence
from idmps.hamiltonians import HamiltonianSpec, ground_states
from idmps.refstates import (aklt_state, cvo_tensor, dimer_state,
                             mg_combination, mps_trace_state,
                             spin1_dimer_combinations)

# the same dimer covering from a brute-force product and from a trace MPS
# over chiral-vertex-operator tensors
N = 6
alt = [cvo_tensor("su2_1", 0, 0.5, 0.5), cvo_tensor("su2_1", 0.5, 0.5, 0)]
tr = mps_trace_state(alt, N)
print(f"dimer covering, trace MPS vs product: "
      f"|<a|b>| = {abs(tr.overlap(dimer_state(N, 0))):.15f}")
cell = [cvo_tensor("su2_2", 0.5, 1, 0.5)]
tr = mps_trace_state(cell, N)
print(f"AKLT chain,     trace MPS vs product: "
      f"|<a|b>| = {abs(tr.overlap(aklt_state(N))):.15f}")

# thin torus: psi0 approaches the span of the two MG combinations
rows = limit_convergence(BlockSpec("su2_1", 0, 8),
                         [mg_combination(8, +1), mg_combination(8, -1)],
                         [0.4, 0.2, 0.1, 0.05])
print("\npsi0 (N=8) vs MG subspace:")
for R, infid in rows:
    print(f"  R={R:5.2f}  infidelity/site = {infid:.3e}")

# same construction for the spin-1 blocks
rows = limit_convergence(BlockSpec("su2_2", 4, 6),
                         [aklt_state(6, basis="circular")],
                         [0.4, 0.2, 0.1, 0.05])
print("psi4 (N=6) vs circular-basis AKLT:")
for R, infid in rows:
    print(f"  R={R:5.2f}  infidelity/site = {infid:.3e}")
rows = limit_convergence(BlockSpec("su2_2", 2, 6),
                         [spin1_dimer_combinations(6, +1),
                          spin1_dimer_combinations(6, -1)],
                         [0.4, 0.2, 0.1, 0.05])
print("psi2 (N=6) vs spin-1 dimer combinations:")
for R, infid in rows:
    print(f"  R={R:5.2f}  infidelity/site = {infid:.3e}")

# cylinder: psi0 approaches the 1/sin^2 chain's exact ground state
_, ground = ground_states(HamiltonianSpec("hs", 6))
rows = limit_convergence(BlockSpec("su2_1", 0, 6), ground, [2, 5, 10, 20])
print("psi0 (N=6) vs 1/sin^2 ground state:")
for R, infid in rows:
    print(f"  R={R:5.2f}  infidelity/site = {infid:.3e}")
