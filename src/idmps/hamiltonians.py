"""Spin-chain Hamiltonians and Sz-sector exact diagonalization.

Four periodic chains share one representation: a constant plus a list of
two-site terms (coupling, i, j, gate) where gate is a d^2 x d^2 matrix acting
on sites i and j. Heisenberg exchange S_i.S_j and its square (S_i.S_j)^2 both
conserve total Sz exactly, so operators restrict cleanly to Sz sectors.
Every operator, full-space or sector, is one sparse CSR matrix filled in
place with gate entries over configuration ranks: its arrays are allocated
once, at final size, so a build peaks below 2x the CSR it returns (1.3x
for j1j2). Every chain also conserves total spin, so the ground energy
lies in the sector of lowest |Sz|, which holds a member of every
multiplet: ground_states solves that sector alone, while ground_subspace
can still merge all of them. The cotangent parent chain carries long-range
couplings built from w_jk = i cot(pi (z_j - z_k)) at uniform z_j = j/N;
every w product is minus a product of two real cotangents, so the
couplings are real by construction and are built from the cotangents
alone. The gates are built from the real ladder operators of
hilbert.spin_ladder, so no operator passes through complex arithmetic.

scipy.sparse is imported in _scatter_matrix, at the first operator build,
so importing this module (and the package) loads no scipy module.
"""
import math

import numpy as np

from . import blocks
from .errors import ConsistencyError, InputError
from .hilbert import (StateVector, check_sites, check_size, embed_sector,
                      enumerate_sector, norm, spin_ladder)
from .numerics import DEGENERACY_TOL, LinearOperator, eig_smallest

HS = "hs"
J1J2 = "j1j2"
QBQ = "qbq"
PARENT = "parent"
_KINDS = (HS, J1J2, QBQ, PARENT)

# coupling scale max(|J1|, |J2|) that HamiltonianSpec accepts besides
# J1 = J2 = 0, bounds included. Only J2/J1 shapes the state, but
# DEGENERACY_TOL is absolute: roundoff grows with the scale (at 1e5 dense
# eigh spreads the exact 7-fold N = 12 ground level of J1 = 0, J2 < 0 over
# 2e-9, so the level splits), gaps shrink with it toward DEGENERACY_TOL, and
# 1e308 overflows the operator. At both ends the ground levels up to N = 16
# match scale 1, in the time of scale 1.
COUPLING_RANGE = (1e-2, 1e3)


class HamiltonianSpec:
    """Chain kind (hs, j1j2, qbq, parent), site count, and couplings.

    J1/J2 (default 1, 0) apply to the j1j2 kind, theta (default 0) to
    qbq; the others take no parameters, and a coupling given to a kind that
    does not take it, or a NaN or infinite coupling, is an InputError, and
    so is a nonzero max(|J1|, |J2|) outside COUPLING_RANGE. All chains are
    periodic.
    """

    def __init__(self, kind, N, J1=None, J2=None, theta=None):
        kind = str(kind).lower()
        if kind not in _KINDS:
            raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
        N = check_sites(N)
        takes = {J1J2: ("J1", "J2"), QBQ: ("theta",)}.get(kind, ())
        extra = [name for name, v in (("J1", J1), ("J2", J2), ("theta", theta))
                 if v is not None and name not in takes]
        if extra:
            raise InputError(f"the {kind} chain takes no {', '.join(extra)}")
        self.kind = kind
        self.N = N
        self.J1 = 1.0 if J1 is None else float(J1)
        self.J2 = 0.0 if J2 is None else float(J2)
        self.theta = 0.0 if theta is None else float(theta)
        for name in takes:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        scale = max(abs(self.J1), abs(self.J2))
        lo, hi = COUPLING_RANGE
        if scale and not lo <= scale <= hi:
            raise InputError(
                f"max(|J1|, |J2|) = {scale!r} lies outside COUPLING_RANGE = "
                f"[{lo:g}, {hi:g}]; only J2/J1 shapes the state, so rescale "
                f"both couplings into it")

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


def heisenberg_gate(d):
    """Two-site S.S = Sz Sz + (S^+ S^- + S^- S^+)/2 as a d^2 x d^2 real
    symmetric matrix."""
    sp, sz = spin_ladder(d)
    return np.kron(sz, sz) + (np.kron(sp, sp.T) + np.kron(sp.T, sp)) / 2


def biquadratic_gate(d):
    """Two-site (S.S)^2."""
    g = heisenberg_gate(d)
    return g @ g


def _parent_terms(N, gate):
    """Constant and exchange couplings of the cotangent parent chain.

    H = -sum_{i<j} [w_ij^2/4 + (1/3)(w_ij^2 + sum_{k!=i,j} w_ki w_kj) S_i.S_j]
    with w_jk = i cot(pi (z_j - z_k)) on the uniform layout z_j = j/N.
    With c_jk = cot(pi (z_j - z_k)), every product of two w's is
    -c c, so H = sum_{i<j} [c_ij^2/4 + (1/3)(c_ij^2 + sum_k c_ki c_kj) S_i.S_j]
    in real arithmetic.
    """
    z = blocks.insertion_points(N)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 0.25)
    c = 1 / np.tan(np.pi * diff)
    np.fill_diagonal(c, 0.0)
    csq = c * c
    # [i,j] = sum_k c_ki c_kj; the k = i, j terms drop since c_kk = 0
    cross = c.T @ c
    iu, ju = np.triu_indices(N, k=1)
    const = float(csq[iu, ju].sum()) / 4.0
    coup = (csq + cross) / 3.0
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


def _gate_moves(gate, d):
    """(diagonal, n_off, moves) of a two-site gate, its exact zeros left
    out.

    n_off[c] counts the off-diagonal entries of gate row c. moves[t] is
    (da, db, value), each indexed by a destination code c: the digit
    steps from c to the source code of the t-th such entry, by ascending
    source code, and the entry itself.
    """
    kept = np.array(gate)
    diagonal = np.diagonal(kept).copy()
    np.fill_diagonal(kept, 0.0)
    n_off = np.count_nonzero(kept, axis=1).astype(np.uint8)
    dest = np.arange(d * d)
    moves = []
    for t in range(n_off.max(initial=0)):
        # rows with fewer entries take code 0, which no row r then reads
        src = np.array([np.flatnonzero(row)[t] if n > t else 0
                        for row, n in zip(kept, n_off)])
        moves.append((src // d - dest // d, src % d - dest % d,
                      gate[dest, src]))
    return diagonal, n_off, moves


def _scatter_matrix(N, d, const, pairs, ranks):
    """Hamiltonian matrix on the basis {ranks} as a sparse CSR, filled in
    place.

    Each bond's two-site code digits[i] * d + digits[j] is taken from one
    row of small-int digits per site. A first pass gathers the diagonal
    and each row's entry count: row r receives one entry per kept
    off-diagonal gate entry in gate row code[r]. The int32 indptr and
    indices and the float64 data are then allocated once, at final size.
    Each row holds its diagonal entry first, zero or not, then its
    off-diagonal entries bond by bond, by ascending source code: the order
    a COO scatter of the same entries would give. Each gate conserves
    two-site Sz, so a closed basis holds every source config, and a
    rank-lookup miss means the basis is not closed. scipy's
    sum_duplicates sorts each row and merges bonds that repeat (N = 2
    nearest, N = 4 next-nearest neighbors), as a COO conversion does, so
    every array keeps the bytes of coo.tocsr(). The peak is the returned
    CSR plus about 60 bytes per row (115 for the spin-1 qbq gates): the
    digits, the diagonal or the fill pointers, and one bond's index arrays
    (j1j2 at N = 14: 3.8 MB traced for a 3.0 MB CSR).
    """
    import scipy.sparse

    ranks = np.asarray(ranks, dtype=np.int64)
    m = len(ranks)
    # a basis of all d^N configurations is ranks 0..m-1: no lookup needed
    full = m == d ** N
    weight = d ** np.arange(N - 1, -1, -1, dtype=np.int64)
    # codes stay below d^2 <= 9, so one byte per site and rank holds them
    site_digits = [(ranks // w % d).astype(np.uint8) for w in weight]

    def bond_code(i, j):
        # an intp index gathers about 3x faster than a uint8 one
        return (site_digits[i] * d + site_digits[j]).astype(np.intp)

    gates = {}
    diag = np.full(m, float(const))
    # row counts, turned into row starts in place; MAX_CONFIGS keeps nnz
    # far below 2^31, where scipy would switch to int64 indices
    indptr = np.ones(m + 1, dtype=np.int32)
    indptr[0] = 0
    for coupling, i, j, gate in pairs:
        if id(gate) not in gates:
            gates[id(gate)] = _gate_moves(gate, d)
        gdiag, n_off, _ = gates[id(gate)]
        code = bond_code(i, j)
        diag += coupling * gdiag[code]
        indptr[1:] += n_off[code]
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    data[indptr[:-1]] = diag
    indices[indptr[:-1]] = np.arange(m)
    del diag
    slot = indptr[:-1] + 1
    for coupling, i, j, gate in pairs:
        _, n_off, moves = gates[id(gate)]
        code = bond_code(i, j)
        n_row = n_off[code]
        for t, (da, db, value) in enumerate(moves):
            rows = np.flatnonzero(n_row > t)
            rc = code[rows]
            shift = (da * weight[i] + db * weight[j])[rc]
            if full:
                cols = np.add(shift, rows, out=shift)
            else:
                src = ranks[rows] + shift
                cols = np.searchsorted(ranks, src)
                if np.any(ranks.take(cols, mode="clip") != src):
                    raise ConsistencyError("a gate entry left the Sz sector")
            at = slot[rows]
            at += t
            indices[at] = cols
            data[at] = (coupling * value)[rc]
        slot += n_row
    mat = scipy.sparse.csr_matrix((data, indices, indptr), shape=(m, m))
    mat.sum_duplicates()
    return mat


def build(spec, sector=None):
    """Hermitian LinearOperator for the chain, on the full d^N space or,
    given a SectorIndex, restricted to that total-Sz sector.

    The operator is always one sparse CSR matrix scattered over the basis
    ranks; only eig_smallest densifies it (up to DENSE_DIM_MAX).
    """
    N, d = spec.N, spec.d
    if sector is None:
        ranks = np.arange(check_size(N, d))
    elif (sector.N, sector.d) != (N, d):
        raise InputError(
            f"sector ({sector.N},{sector.d}) does not match spec ({N},{d})")
    else:
        ranks = sector.ranks
    const, pairs = _terms(spec)
    return LinearOperator(_scatter_matrix(N, d, const, pairs, ranks))


def eigenstate_residual(h, v, energy):
    """||H v - E v|| / ||v|| for a StateVector or raw amplitude vector."""
    amps = v.amplitudes if isinstance(v, StateVector) else np.asarray(v)
    amps = amps.astype(complex)
    if amps.shape != (h.dim,):
        raise InputError(f"state has length {amps.shape}, operator {h.dim}")
    nrm = norm(amps)
    if nrm == 0:
        raise InputError("residual of a zero state is undefined")
    return norm(h.apply(amps) - energy * amps) / nrm


def parent_annihilation_check(N):
    """(residual, min eigenvalue) of the parent chain on the uniform layout.

    The residual is ||H psi0_cyl|| / ||psi0_cyl||; the smallest eigenvalue
    confirms positive semidefiniteness.
    """
    if N % 2 or not 2 <= N <= 12:
        raise InputError(f"need even N <= 12, got {N}")
    h = build(HamiltonianSpec(PARENT, N))
    psi = blocks.build_state(blocks.BlockSpec("su2_1", 0, N), None)
    residual = eigenstate_residual(h, psi, 0.0)
    min_eig = eig_smallest(h, 1)[0][0]
    return residual, float(min_eig)


def _sz_values(N, d):
    smax = 0.5 * N if d == 2 else float(N)
    return np.arange(-smax, smax + 0.5)


def ground_subspace(spec, k=1, sz=None):
    """Lowest eigenpairs as (energy, StateVector).

    With sz=None over the full spectrum: each Sz sector is diagonalized
    separately, the results are merged and the k lowest are kept, and k is
    at most d^N. Given sz, only that total-Sz sector is solved, k is at
    most its size, and every pair eig_smallest returns is kept: the k
    lowest plus every copy of the k-th level. Ordering is deterministic:
    energies agreeing within DEGENERACY_TOL form one group, sorted inside
    by Sz and then by rank within the sector.
    """
    N, d = spec.N, spec.d
    if sz is None:
        sectors = [enumerate_sector(N, d, s) for s in _sz_values(N, d)]
        dim = d ** N
    else:
        sectors = [enumerate_sector(N, d, sz)]
        dim = sectors[0].size
        if not dim:
            raise InputError(f"no configuration of N={N}, d={d} has Sz={sz}")
    if not 1 <= k <= dim:
        raise InputError(f"need 1 <= k <= {dim}, got {k}")
    entries = []
    for sector in sectors:
        op = build(spec, sector=sector)
        for rank, (energy, vec) in enumerate(eig_smallest(op,
                                                          min(k, sector.size))):
            entries.append((energy, sector.Sz, rank, vec, sector))
    entries.sort(key=lambda t: t[0])
    group = [0]
    for prev, cur in zip(entries, entries[1:]):
        group.append(group[-1] + int(cur[0] - prev[0] > DEGENERACY_TOL))
    order = sorted(range(len(entries)),
                   key=lambda i: (group[i], entries[i][1], entries[i][2]))
    out = []
    for i in order if sz is not None else order[:k]:
        energy, _, _, vec, sector = entries[i]
        out.append((float(energy), embed_sector(vec, sector, normalized=True)))
    return out


def ground_states(spec):
    """(E0, [states]) with every state within DEGENERACY_TOL of the ground
    energy, from one ground_subspace(spec, 1, sz) call.

    Only the sector of lowest |Sz| is solved: (N (d-1) / 2) mod 1, so 0
    for d=3 or even N and 1/2 for odd N at d=2. Every chain here conserves
    total spin and every multiplet has a member in that sector, so E0 is
    the exact ground energy; the states are the ground level's members in
    that sector. For a singlet ground level that is the whole
    ground space. For a multiplet ground level (the ferromagnetic qbq
    chain, for one) only one member per multiplet comes back, which is
    all that a projector onto it needs for an Sz = 0 block state.
    """
    sz = (spec.N * (spec.d - 1) / 2) % 1
    pairs = ground_subspace(spec, 1, sz)
    return pairs[0][0], [sv for _, sv in pairs]
