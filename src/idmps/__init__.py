"""Spin-chain wavefunctions from chiral CFT conformal blocks on a torus.

The package evaluates the SU(2) level-1 and level-2 conformal blocks at
equidistant insertion points as wavefunctions of periodic spin-1/2 and
spin-1 chains, follows them between their thin-torus (dimer / AKLT) and
cylinder (1/sin^2 chain) limits, and scans the torus radius as a one-
parameter variational family across the J1-J2 and bilinear-biquadratic
phase diagrams.
"""
__version__ = "0.1.0"

from .errors import (AccuracyError, ConsistencyError, DomainError, Error,
                     InputError, NumericalError, PoleError)
from .logcomplex import LogComplex
from .special import (ModularParam, modular_residual, prime_form,
                      prime_form_log, theta_char, theta_char_log, theta_nu,
                      theta_nu_log, weierstrass_nu, weierstrass_nu_log)
from .hilbert import (SectorIndex, StateVector, Subspace, apply_site_unitary,
                      embed_sector, enumerate_sector, fidelity_per_site,
                      fidelity_per_site_subspace,
                      spin_matrices, total_spin_quantum, translate)
from .numerics import (LinearOperator, eig_smallest, minimize_scalar,
                       pfaffian, pfaffian_log)
from .refstates import (U_CIRC_TO_SPIN, aklt_state, cvo_tensor, dimer_state,
                        flavor_pair, mg_combination, mps_trace_state,
                        singlet_pair, spin1_dimer_combinations)
from .blocks import (BlockSpec, amplitude, build_record, build_state,
                     insertion_points, marshall_sign, momentum_eigenvalue)
from .hamiltonians import (HamiltonianSpec, build, eigenstate_residual,
                           ground_states, ground_subspace,
                           parent_annihilation_check)
from .experiments import (ScanResult, block_state_spin_basis, default_grid,
                          identity_suite, j1j2_family, limit_convergence,
                          qbq_family, scan_radius, sweep_csv,
                          sweep_phase_diagram)

__all__ = [
    "AccuracyError", "BlockSpec", "ConsistencyError",
    "DomainError", "Error", "HamiltonianSpec", "InputError", "LinearOperator",
    "LogComplex", "ModularParam", "NumericalError", "PoleError",
    "ScanResult", "SectorIndex", "StateVector", "Subspace", "U_CIRC_TO_SPIN",
    "aklt_state", "amplitude", "apply_site_unitary",
    "block_state_spin_basis", "build", "build_record", "build_state",
    "cvo_tensor",
    "default_grid", "dimer_state", "eig_smallest", "eigenstate_residual",
    "embed_sector", "enumerate_sector", "fidelity_per_site",
    "fidelity_per_site_subspace", "flavor_pair", "ground_states",
    "ground_subspace", "identity_suite", "insertion_points", "j1j2_family",
    "limit_convergence", "marshall_sign", "mg_combination",
    "minimize_scalar", "modular_residual", "momentum_eigenvalue",
    "mps_trace_state", "parent_annihilation_check", "pfaffian",
    "pfaffian_log", "prime_form", "prime_form_log",
    "qbq_family", "scan_radius", "singlet_pair", "spin1_dimer_combinations",
    "spin_matrices", "sweep_csv", "sweep_phase_diagram", "theta_char",
    "theta_char_log", "theta_nu", "theta_nu_log", "total_spin_quantum",
    "translate", "weierstrass_nu", "weierstrass_nu_log",
]
