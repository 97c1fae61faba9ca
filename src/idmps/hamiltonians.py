"""Spin-chain Hamiltonians and Sz-sector exact diagonalization.

Four periodic chains share one representation: a constant plus a list of
two-site terms (coupling, i, j, gate) where gate is a d^2 x d^2 matrix acting
on sites i and j. Heisenberg exchange S_i.S_j and its square (S_i.S_j)^2 both
conserve total Sz exactly, so operators restrict cleanly to Sz sectors and
sector matrices are assembled by scattering gate entries over configuration
ranks. The cotangent parent chain carries long-range couplings built from
w_jk = i cot(pi (z_j - z_k)) at uniform z_j = j/N; every w product is real
there, which the build asserts rather than assumes.
"""
import math

import numpy as np
import scipy.sparse

from . import blocks
from .errors import ConsistencyError, InputError
from .hilbert import (StateVector, digits, embed_sector, enumerate_sector,
                      spin_matrices)
from .numerics import DENSE_DIM_MAX, LinearOperator, eig_smallest

HS = "hs"
J1J2 = "j1j2"
QBQ = "qbq"
PARENT = "parent"
_KINDS = (HS, J1J2, QBQ, PARENT)

DEGENERACY_TOL = 1e-9
IMAG_TOL = 1e-12


class HamiltonianSpec:
    """Chain kind (hs, j1j2, qbq, parent), site count, and couplings.

    J1/J2 apply to the j1j2 kind, theta to qbq; the others take no
    parameters. All chains are periodic.
    """

    def __init__(self, kind, N, J1=1.0, J2=0.0, theta=0.0):
        kind = str(kind).lower()
        if kind not in _KINDS:
            raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
        N = int(N)
        if N < 2:
            raise InputError(f"N must be >= 2, got {N}")
        self.kind = kind
        self.N = N
        self.J1 = float(J1)
        self.J2 = float(J2)
        self.theta = float(theta)

    @property
    def d(self):
        return 3 if self.kind == QBQ else 2

    def __repr__(self):
        extra = ""
        if self.kind == J1J2:
            extra = f", J1={self.J1}, J2={self.J2}"
        elif self.kind == QBQ:
            extra = f", theta={self.theta}"
        return f"HamiltonianSpec({self.kind!r}, N={self.N}{extra})"


def _real_part(m, what):
    m = np.asarray(m)
    if np.abs(m.imag).max() > IMAG_TOL * max(1.0, np.abs(m).max()):
        raise ConsistencyError(f"{what} has non-real entries")
    return np.ascontiguousarray(m.real)


def heisenberg_gate(d):
    """Two-site S.S as a d^2 x d^2 real symmetric matrix."""
    sx, sy, sz = spin_matrices(d)
    g = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    return _real_part(g, "S.S gate")


def biquadratic_gate(d):
    """Two-site (S.S)^2."""
    g = heisenberg_gate(d)
    return g @ g


def _parent_terms(N, gate):
    """Constant and exchange couplings of the cotangent parent chain.

    H = -sum_{i<j} [w_ij^2/4 + (1/3)(w_ij^2 + sum_{k!=i,j} w_ki w_kj) S_i.S_j]
    with w_jk = i cot(pi (z_j - z_k)) on the uniform layout z_j = j/N.
    """
    z = blocks.insertion_points(N)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 0.25)
    w = 1j / np.tan(np.pi * diff)
    np.fill_diagonal(w, 0.0)
    wsq = _real_part(w ** 2, "w_ij^2")
    # [i,j] = sum_k w_ki w_kj; the k = i, j terms drop since w_kk = 0
    cross = _real_part(w.T @ w, "w_ki w_kj cross sums")
    iu, ju = np.triu_indices(N, k=1)
    const = -float(wsq[iu, ju].sum()) / 4.0
    coup = -(wsq + cross) / 3.0
    pairs = [(float(coup[i, j]), int(i), int(j), gate)
             for i, j in zip(iu, ju)]
    return const, pairs


def _terms(spec):
    """(constant, [(coupling, i, j, gate), ...]) with i < j throughout.

    Periodic sums are kept literal: a bond reached from two values of the
    site index (N=2 nearest neighbor, N=4 next-nearest) appears twice, and a
    step that wraps onto its own site contributes the constant s(s+1).
    """
    N = spec.N
    heis = heisenberg_gate(spec.d)
    if spec.kind == HS:
        pairs = [(1.0 / math.sin(math.pi * (i - j) / N) ** 2, i, j, heis)
                 for i in range(N) for j in range(i + 1, N)]
        return 0.0, pairs
    if spec.kind == J1J2:
        const = 0.0
        pairs = []
        for step, coupling in ((1, spec.J1), (2, spec.J2)):
            if coupling == 0.0:
                continue
            for i in range(N):
                j = (i + step) % N
                if j == i:
                    const += coupling * 0.75
                else:
                    pairs.append((coupling, min(i, j), max(i, j), heis))
        return const, pairs
    if spec.kind == QBQ:
        biq = biquadratic_gate(spec.d)
        pairs = []
        for i in range(N):
            j = (i + 1) % N
            a, b = min(i, j), max(i, j)
            pairs.append((math.cos(spec.theta), a, b, heis))
            pairs.append((math.sin(spec.theta), a, b, biq))
        return 0.0, pairs
    return _parent_terms(N, heis)


def _scatter_matrix(N, d, const, pairs, ranks):
    """Hamiltonian matrix on the basis {ranks} as a sparse CSR.

    Each gate conserves two-site Sz, so scattering never leaves an
    Sz-closed basis; a rank-lookup miss means the basis is not closed.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    m = len(ranks)
    site_digits = digits(ranks, N, d)
    weight = d ** np.arange(N - 1, -1, -1, dtype=np.int64)
    rows, cols, vals = [], [], []
    if const:
        rows.append(np.arange(m))
        cols.append(np.arange(m))
        vals.append(np.full(m, const))
    for coupling, i, j, gate in pairs:
        g4 = gate.reshape(d, d, d, d)
        for a2, b2, a, b in np.argwhere(np.abs(g4) > 1e-14):
            sel = np.nonzero((site_digits[:, i] == a)
                             & (site_digits[:, j] == b))[0]
            if not sel.size:
                continue
            dest = ranks[sel] + (a2 - a) * weight[i] + (b2 - b) * weight[j]
            pos = np.searchsorted(ranks, dest)
            if np.any(pos >= m) or np.any(ranks[np.minimum(pos, m - 1)] != dest):
                raise ConsistencyError("a gate entry left the Sz sector")
            rows.append(pos)
            cols.append(sel)
            vals.append(np.full(sel.size, coupling * g4[a2, b2, a, b]))
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m))
    return mat.tocsr()


def _stream_apply(N, d, const, pairs):
    """Matrix-free matvec streaming two-site gates over the state tensor."""
    shape = (d,) * N
    gates = [(c, i, j, gate.reshape(d, d, d, d)) for c, i, j, gate in pairs]

    def apply(v):
        t = np.asarray(v, dtype=complex).reshape(shape)
        out = const * t
        for c, i, j, g in gates:
            w = np.tensordot(g, t, axes=([2, 3], [i, j]))
            out += c * np.moveaxis(w, (0, 1), (i, j))
        return out.reshape(-1)

    return apply


def _operator_from_sparse(mat):
    dim = mat.shape[0]
    dense = mat.toarray() if dim <= DENSE_DIM_MAX else None
    return LinearOperator(dim, lambda v: mat @ v, hermitian=True, dense=dense)


def build(spec, sector=None):
    """Hermitian LinearOperator for the chain, on the full d^N space or,
    given a SectorIndex, restricted to that total-Sz sector.

    Full-space operators at d=3, N >= 9 stream their two-site gates on the
    fly instead of storing a matrix; everything smaller is assembled
    explicitly (dense up to dimension 4096, sparse above).
    """
    const, pairs = _terms(spec)
    N, d = spec.N, spec.d
    if sector is not None:
        if (sector.N, sector.d) != (N, d):
            raise InputError(
                f"sector ({sector.N},{sector.d}) does not match spec ({N},{d})")
        return _operator_from_sparse(_scatter_matrix(N, d, const, pairs,
                                                     sector.ranks))
    if d == 3 and N >= 9:
        return LinearOperator(d ** N, _stream_apply(N, d, const, pairs),
                              hermitian=True)
    return _operator_from_sparse(_scatter_matrix(N, d, const, pairs,
                                                 np.arange(d ** N)))


def eigenstate_residual(h, v, energy):
    """||H v - E v|| / ||v|| for a StateVector or raw amplitude vector."""
    amps = v.amplitudes if isinstance(v, StateVector) else np.asarray(v)
    amps = amps.astype(complex)
    if amps.shape != (h.dim,):
        raise InputError(f"state has length {amps.shape}, operator {h.dim}")
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise InputError("residual of a zero state is undefined")
    return float(np.linalg.norm(h.apply(amps) - energy * amps) / nrm)


def parent_annihilation_check(N):
    """(residual, min eigenvalue) of the parent chain on the uniform layout.

    The residual is ||H psi0_cyl|| / ||psi0_cyl||; the smallest eigenvalue
    confirms positive semidefiniteness.
    """
    if N % 2 or not 2 <= N <= 12:
        raise InputError(f"need even N <= 12, got {N}")
    h = build(HamiltonianSpec(PARENT, N))
    psi = blocks.build_cylinder_state(blocks.BlockSpec("su2_1", 0, N))
    residual = eigenstate_residual(h, psi, 0.0)
    min_eig = eig_smallest(h, 1)[0][0]
    return residual, float(min_eig)


def _sz_values(N, d):
    smax = 0.5 * N if d == 2 else float(N)
    return np.arange(-smax, smax + 0.5)


def ground_subspace(spec, k=1):
    """k lowest eigenpairs over the full spectrum as (energy, StateVector).

    Each Sz sector is diagonalized separately and the results are merged.
    Ordering is deterministic: energies agreeing within 1e-9 form one group,
    sorted inside by Sz and then by rank within the sector.
    """
    N, d = spec.N, spec.d
    if not 1 <= k <= d ** N:
        raise InputError(f"need 1 <= k <= {d ** N}, got {k}")
    entries = []
    for sz in _sz_values(N, d):
        sector = enumerate_sector(N, d, sz)
        if not sector.size:
            continue
        op = build(spec, sector=sector)
        for rank, (energy, vec) in enumerate(eig_smallest(op,
                                                          min(k, sector.size))):
            entries.append((energy, sz, rank, vec, sector))
    entries.sort(key=lambda t: t[0])
    group = [0]
    for prev, cur in zip(entries, entries[1:]):
        group.append(group[-1] + int(cur[0] - prev[0] > DEGENERACY_TOL))
    order = sorted(range(len(entries)),
                   key=lambda i: (group[i], entries[i][1], entries[i][2]))
    out = []
    for i in order[:k]:
        energy, _, _, vec, sector = entries[i]
        out.append((float(energy), embed_sector(vec, sector, normalized=True)))
    return out


def ground_states(spec, k0=4):
    """(E0, [states]) with every state within 1e-9 of the ground energy."""
    dim = spec.d ** spec.N
    k = min(k0, dim)
    while True:
        pairs = ground_subspace(spec, k)
        e0 = pairs[0][0]
        kept = [sv for e, sv in pairs if e - e0 <= DEGENERACY_TOL]
        if len(kept) < k or k == dim:
            return e0, kept
        k = min(2 * k, dim)
