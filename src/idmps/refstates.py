"""Exact reference states: dimer coverings, Majumdar-Ghosh combinations,
AKLT in two bases, and trace-MPS built from chiral-vertex-operator tensors.

Tensor conventions: bond spaces carry the weight states of the module labels
(0 -> dim 1, 1/2 -> dim 2, 1 -> dim 3) ordered by descending weight; physical
axes follow the label order of hilbert.LABELS. Tensors are stored up to
overall scale, so every comparison against them is collinearity-based.
"""
import math

import numpy as np

from .errors import ConsistencyError, InputError
from .hilbert import StateVector, apply_site_unitary, check_size, translate

# local unitary between circular-polarization flavors (x, y, z) = labels
# (+1, 0, -1) and spin-1 weights (+1, 0, -1); rows are spin, columns flavor
U_CIRC_TO_SPIN = np.array([[-1, -1j, 0],
                           [0, 0, math.sqrt(2)],
                           [1, -1j, 0]]) / math.sqrt(2)

_BOND_DIM = {0.0: 1, 0.5: 2, 1.0: 3}

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class MPSTensor:
    """Site tensor A^s of shape (d, D_left, D_right)."""

    def __init__(self, matrices):
        a = np.asarray(matrices, dtype=complex)
        if a.ndim != 3:
            raise InputError(f"tensor must be (d, Dl, Dr), got shape {a.shape}")
        if not np.all(np.isfinite(a.view(float))):
            raise InputError("tensor contains non-finite entries")
        self.matrices = a
        self.d = a.shape[0]
        self.D_left = a.shape[1]
        self.D_right = a.shape[2]


def _norm_label(x):
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise InputError(f"bad module label {x!r}")
    if v not in _BOND_DIM:
        raise InputError(f"module label must be 0, 1/2 or 1, got {x!r}")
    return v


def cvo_tensor(model, left, phys, right):
    """Chiral-vertex-operator tensor for the fusion triple (left, phys, right).

    Catalog: su2_1 supports (1/2, 1/2, 0) identity-type and (0, 1/2, 1/2)
    singlet-type; su2_2 supports (1, 1, 0), (0, 1, 1) and the bond-1/2 tensor
    (1/2, 1, 1/2) whose u-conjugate is the Pauli-matrix AKLT tensor.
    """
    left, phys, right = _norm_label(left), _norm_label(phys), _norm_label(right)
    triple = (left, phys, right)
    if model == "su2_1":
        if triple == (0.5, 0.5, 0.0):
            # A^s[m, 0] = delta_{s,m}
            a = np.zeros((2, 2, 1), dtype=complex)
            a[0, 0, 0] = 1.0
            a[1, 1, 0] = 1.0
            return MPSTensor(a)
        if triple == (0.0, 0.5, 0.5):
            # A^s[0, m'] = (-1)^(s - 1/2) delta_{s, -m'}
            a = np.zeros((2, 1, 2), dtype=complex)
            a[0, 0, 1] = 1.0   # s = +1/2 pairs with m' = -1/2
            a[1, 0, 0] = -1.0  # s = -1/2 picks up the sign
            return MPSTensor(a)
    elif model == "su2_2":
        if triple == (1.0, 1.0, 0.0):
            a = np.zeros((3, 3, 1), dtype=complex)
            for i in range(3):
                a[i, i, 0] = 1.0
            return MPSTensor(a)
        if triple == (0.0, 1.0, 1.0):
            # (-1)^(s-1) delta_{s,-m'}: signs (+, -, +) for s = (1, 0, -1)
            a = np.zeros((3, 1, 3), dtype=complex)
            a[0, 0, 2] = 1.0
            a[1, 0, 1] = -1.0
            a[2, 0, 0] = 1.0
            return MPSTensor(a)
        if triple == (0.5, 1.0, 0.5):
            r2 = 1 / math.sqrt(2)
            a = np.zeros((3, 2, 2), dtype=complex)
            a[0] = [[0, -1], [0, 0]]       # s = +1 raises the bond weight
            a[1] = [[r2, 0], [0, -r2]]     # s = 0
            a[2] = [[0, 0], [1, 0]]        # s = -1 lowers it
            return MPSTensor(a)
    else:
        raise InputError(f"model must be 'su2_1' or 'su2_2', got {model!r}")
    raise InputError(f"fusion triple {triple} is not allowed for {model}")


def mps_trace_state(tensors, N):
    """StateVector with amplitudes tr(A_1^{s_1} ... A_N^{s_N}).

    `tensors` is a cyclic unit cell repeated to length N; bond dimensions
    must match around the ring. The output is normalized.
    """
    if not tensors:
        raise InputError("need at least one tensor")
    cell = [t if isinstance(t, MPSTensor) else MPSTensor(t) for t in tensors]
    if N % len(cell):
        raise InputError(f"N={N} is not a multiple of the unit cell "
                         f"{len(cell)}")
    check_size(N, cell[0].d)
    chain = [cell[i % len(cell)] for i in range(N)]
    d = chain[0].d
    for a, b in zip(chain, chain[1:] + chain[:1]):
        if a.d != d or a.D_right != b.D_left:
            raise InputError("bond dimensions do not close cyclically")
    # running contraction: C[config_prefix, l, r]
    c = chain[0].matrices
    for t in chain[1:]:
        c = np.einsum("mab,sbc->msac", c, t.matrices)
        c = c.reshape(-1, c.shape[-2], c.shape[-1])
    amps = np.trace(c, axis1=1, axis2=2)
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ConsistencyError("trace MPS evaluated to the zero state")
    return StateVector(N, d, amps / nrm, normalized=True)


def _pair_tensor(pair_state):
    pair = np.asarray(getattr(pair_state, "amplitudes", pair_state),
                      dtype=complex)
    for dim in (2, 3):
        if pair.shape == (dim * dim,):
            return pair.reshape(dim, dim), dim
    raise InputError(f"pair state must have length 4 or 9, got {pair.shape}")


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
    the ring. Default pair is the spin-1/2 singlet.
    """
    if N < 2 or N % 2:
        raise InputError(f"N must be even and >= 2, got {N}")
    if offset not in (0, 1):
        raise InputError(f"offset must be 0 or 1, got {offset!r}")
    pair, d = _pair_tensor(pair_state if pair_state is not None
                           else singlet_pair())
    check_size(N, d)
    t = pair
    for _ in range(N // 2 - 1):
        t = np.multiply.outer(t, pair)
    v = StateVector(N, d, t.reshape(-1)).normalize()
    return translate(v) if offset else v


def _signed(sign):
    if sign in (1, +1, "+", "+1"):
        return 1.0
    if sign in (-1, "-", "-1"):
        return -1.0
    raise InputError(f"sign must be + or -, got {sign!r}")


def mg_combination(N, sign):
    """Normalized D0 +- D1 over spin-1/2 singlet dimers."""
    s = _signed(sign)
    d0 = dimer_state(N, 0)
    d1 = dimer_state(N, 1)
    return StateVector(N, 2, d0.amplitudes + s * d1.amplitudes).normalize()


def spin1_dimer_combinations(N, sign):
    """Normalized D0 +- D1 over (|11>+|00>+|-1-1>)/sqrt(3) pairs."""
    s = _signed(sign)
    d0 = dimer_state(N, 0, flavor_pair())
    d1 = dimer_state(N, 1, flavor_pair())
    return StateVector(N, 3, d0.amplitudes + s * d1.amplitudes).normalize()


def aklt_state(N, basis="standard"):
    """AKLT chain state from the Pauli-matrix MPS A^a = sigma_a.

    basis="circular" keeps the flavor labels (x, y, z) as (+1, 0, -1);
    basis="standard" rotates each site by the polarization unitary u.
    """
    if basis not in ("standard", "circular"):
        raise InputError(f"basis must be 'standard' or 'circular', got {basis!r}")
    a = np.stack([PAULI["x"], PAULI["y"], PAULI["z"]])
    v = mps_trace_state([MPSTensor(a)], N)
    if basis == "circular":
        return v
    return apply_site_unitary(v, U_CIRC_TO_SPIN)
