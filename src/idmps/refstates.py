"""Exact reference states: dimer coverings, Majumdar-Ghosh combinations,
AKLT in two bases, and trace-MPS built from chiral-vertex-operator tensors.

Tensor conventions: a site tensor is a complex array A[s, l, r] of shape
(d, D_left, D_right). Bond spaces carry the weight states of the module labels
(0 -> dim 1, 1/2 -> dim 2, 1 -> dim 3) ordered by descending weight; physical
axes follow the label order of hilbert.LABELS. Tensors are stored up to
overall scale, so every comparison against them is collinearity-based.
"""
import math

import numpy as np

from .errors import ConsistencyError, InputError
from .hilbert import (StateVector, apply_site_unitary, check_size, norm,
                      spin_matrices, translate)

# local unitary between circular-polarization flavors (x, y, z) = labels
# (+1, 0, -1) and spin-1 weights (+1, 0, -1); rows are spin, columns flavor
U_CIRC_TO_SPIN = np.array([[-1, -1j, 0],
                           [0, 0, math.sqrt(2)],
                           [1, -1j, 0]]) / math.sqrt(2)

_PHYS_SPIN = {"su2_1": 0.5, "su2_2": 1.0}


def _norm_label(x):
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise InputError(f"bad module label {x!r}")
    if v not in (0.0, 0.5, 1.0):
        raise InputError(f"module label must be 0, 1/2 or 1, got {x!r}")
    return v


def cvo_tensor(model, left, phys, right):
    """Chiral-vertex-operator tensor of the fusion triple (left, phys, right)
    as a (d, D_left, D_right) complex array.

    The physical spin j is 1/2 (su2_1) or 1 (su2_2) and d = 2j + 1. Fusing j
    with the vacuum gives (j, j, 0), A^s[m, 0] = delta_{s,m}, and (0, j, j),
    A^s[0, m'] = (-1)^s delta_{m', d-1-s}, counting s and m' from the top
    weight. su2_2's bond-1/2 tensor (1/2, 1, 1/2) is the u-conjugate of the
    Pauli-matrix AKLT tensor.
    """
    triple = (_norm_label(left), _norm_label(phys), _norm_label(right))
    if model not in _PHYS_SPIN:
        raise InputError(f"model must be 'su2_1' or 'su2_2', got {model!r}")
    j = _PHYS_SPIN[model]
    d = int(2 * j + 1)
    s = np.arange(d)
    if triple == (j, j, 0.0):
        a = np.zeros((d, d, 1), dtype=complex)
        a[s, s, 0] = 1.0
        return a
    if triple == (0.0, j, j):
        # assigned into zeros: a product with the signs would leave -0.0
        a = np.zeros((d, 1, d), dtype=complex)
        a[s, 0, d - 1 - s] = (-1.0) ** s
        return a
    if model == "su2_2" and triple == (0.5, 1.0, 0.5):
        r2 = 1 / math.sqrt(2)
        return np.array([[[0, -1], [0, 0]],    # s = +1 raises the bond weight
                         [[r2, 0], [0, -r2]],  # s = 0
                         [[0, 0], [1, 0]]],    # s = -1 lowers it
                        dtype=complex)
    raise InputError(f"fusion triple {triple} is not allowed for {model}")


def mps_trace_state(tensors, N):
    """StateVector with amplitudes tr(A_1^{s_1} ... A_N^{s_N}).

    `tensors` is a cyclic unit cell of (d, Dl, Dr) arrays repeated to length
    N; bond dimensions must match around the ring. The output is normalized.
    """
    if not tensors:
        raise InputError("need at least one tensor")
    cell = [np.asarray(t, dtype=complex) for t in tensors]
    for a in cell:
        if a.ndim != 3:
            raise InputError(f"tensor must be (d, Dl, Dr), got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError("tensor contains non-finite entries")
    if N % len(cell):
        raise InputError(f"N={N} is not a multiple of the unit cell "
                         f"{len(cell)}")
    d = cell[0].shape[0]
    check_size(N, d)
    chain = [cell[i % len(cell)] for i in range(N)]
    for a, b in zip(chain, chain[1:] + chain[:1]):
        if a.shape[0] != d or a.shape[2] != b.shape[1]:
            raise InputError("bond dimensions do not close cyclically")
    # running contraction: C[config_prefix, l, r]
    c = chain[0]
    for t in chain[1:]:
        c = np.einsum("mab,sbc->msac", c, t)
        c = c.reshape(-1, c.shape[-2], c.shape[-1])
    amps = np.trace(c, axis1=1, axis2=2)
    nrm = norm(amps)
    if nrm == 0:
        raise ConsistencyError("trace MPS evaluated to the zero state")
    return StateVector(N, d, amps / nrm, normalized=True)


def singlet_pair():
    """Two-site spin-1/2 singlet (|+-> - |-+>)/sqrt(2)."""
    pair = np.zeros(4, dtype=complex)
    pair[1] = 1 / math.sqrt(2)   # (+1, -1)
    pair[2] = -1 / math.sqrt(2)  # (-1, +1)
    return StateVector(2, 2, pair, normalized=True)


def flavor_pair():
    """Two-site (|11> + |00> + |-1-1>)/sqrt(3) in the circular basis."""
    pair = np.zeros(9, dtype=complex)
    for i in range(3):
        pair[i * 3 + i] = 1 / math.sqrt(3)
    return StateVector(2, 3, pair, normalized=True)


def dimer_state(N, offset=0, pair_state=None):
    """Product of pair_state on bonds (1,2)(3,4)... shifted by offset.

    offset 1 shifts every bond by one site, wrapping the last pair around
    the ring. The pair is a 2-site StateVector, by default the singlet.
    """
    if N < 2 or N % 2:
        raise InputError(f"N must be even and >= 2, got {N}")
    if offset not in (0, 1):
        raise InputError(f"offset must be 0 or 1, got {offset!r}")
    pair_state = singlet_pair() if pair_state is None else pair_state
    if not isinstance(pair_state, StateVector) or pair_state.N != 2:
        raise InputError(f"pair state must be a 2-site StateVector, "
                         f"got {pair_state!r}")
    d = pair_state.d
    check_size(N, d)
    pair = pair_state.amplitudes.reshape(d, d)
    t = pair
    for _ in range(N // 2 - 1):
        t = np.multiply.outer(t, pair)
    v = StateVector(N, d, t.reshape(-1)).normalize()
    return translate(v) if offset else v


def _dimer_combination(N, sign, pair_state):
    """Normalized D0 + sign D1 over pair_state dimers, sign +1 or -1."""
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign!r}")
    d0 = dimer_state(N, 0, pair_state)
    d1 = dimer_state(N, 1, pair_state)
    return StateVector(N, d0.d,
                       d0.amplitudes + sign * d1.amplitudes).normalize()


def mg_combination(N, sign):
    """Normalized D0 +- D1 over spin-1/2 singlet dimers."""
    return _dimer_combination(N, sign, singlet_pair())


def spin1_dimer_combinations(N, sign):
    """Normalized D0 +- D1 over (|11>+|00>+|-1-1>)/sqrt(3) pairs."""
    return _dimer_combination(N, sign, flavor_pair())


def aklt_state(N, basis="standard"):
    """AKLT chain state from the Pauli-matrix MPS A^a = sigma_a = 2 S_a.

    basis="circular" keeps the flavor labels (x, y, z) as (+1, 0, -1);
    basis="standard" rotates each site by the polarization unitary u.
    """
    if basis not in ("standard", "circular"):
        raise InputError(f"basis must be 'standard' or 'circular', got {basis!r}")
    # s + s, not 2 * s: a complex product drops the sign of a -0.0 entry
    s = np.stack(spin_matrices(2))
    v = mps_trace_state([s + s], N)
    if basis == "circular":
        return v
    return apply_site_unitary(v, U_CIRC_TO_SPIN)
