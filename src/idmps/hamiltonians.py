"""Spin-chain Hamiltonians and Sz-sector exact diagonalization.

Four periodic chains share one representation: a constant plus a list of
two-site terms (coupling, i, j, gate) where gate names a d^2 x d^2 matrix
(S_i.S_j or its square) acting on sites i and j. Both conserve total Sz
exactly, so operators restrict cleanly to Sz sectors. Every operator,
full-space or sector, is one sparse CSR matrix over configuration ranks,
made in two steps. The pattern of a chain shape (N, d, its bonds with
their gate kinds, and the basis) holds the CSR's int32 indptr and
indices and a uint8 code per stored entry (uint16 past 255 codes) that
says which couplings times which gate entries it sums; it is built once,
in place, and kept read-only in a cache of PATTERN_CACHE_SIZE = 2
shapes: the Sz sector and the full space of one scan's chain. A build
then fills only a fresh float64 data array from the spec's couplings and
wraps it, with the shared indptr and indices, in a fresh CSR and
LinearOperator. For j1j2 a pattern holds about 0.53x the CSR bytes
(1.6 MB for a 3.0 MB CSR at N = 14, full space; 140 MB for 268 MB at
N = 20), of which the indices are shared with every operator; a first
build peaks at about 1.25x its CSR and a later one at about 0.7x.
Every chain also conserves total
spin, so the ground energy lies in the sector of lowest |Sz|, which holds
a member of every multiplet: ground_states solves that sector alone,
while ground_subspace can still merge all of them. The cotangent parent
chain carries long-range couplings built from w_jk = i cot(pi (z_j - z_k))
at uniform z_j = j/N; every w product is minus a product of two real
cotangents, so the couplings are real by construction and are built from
the cotangents alone. The gates are built once per d from the real
ladder operators of hilbert.spin_ladder, so no operator passes through
complex arithmetic.

scipy.sparse is imported by _Pattern.fill, at the first operator build,
so importing this module (and the package) loads no scipy module.
"""
import functools
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

# gate kinds a bond can carry (see _GATES)
HEISENBERG = "heisenberg"
BIQUADRATIC = "biquadratic"

# chain shapes whose CSR pattern build keeps: a scan builds its chain on
# one Sz sector for ED and on the full space for its energies
PATTERN_CACHE_SIZE = 2

# stored entries a fill gathers per step, through a 32 kB index buffer
GATHER_CHUNK = 4096


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


@functools.cache
def heisenberg_gate(d):
    """Two-site S.S = Sz Sz + (S^+ S^- + S^- S^+)/2 as a d^2 x d^2 real
    symmetric matrix, built once per d and read-only."""
    sp, sz = spin_ladder(d)
    gate = np.kron(sz, sz) + (np.kron(sp, sp.T) + np.kron(sp.T, sp)) / 2
    gate.flags.writeable = False
    return gate


@functools.cache
def biquadratic_gate(d):
    """Two-site (S.S)^2, built once per d and read-only."""
    g = heisenberg_gate(d)
    gate = g @ g
    gate.flags.writeable = False
    return gate


_GATES = {HEISENBERG: heisenberg_gate, BIQUADRATIC: biquadratic_gate}


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
    """(constant, [(coupling, i, j, gate), ...]) with i < j throughout and
    each gate named by its kind, a key of _GATES.

    Periodic sums are kept literal: a bond reached from two values of the
    site index (N=2 nearest neighbor, N=4 next-nearest) appears twice, and a
    step that wraps onto its own site contributes the constant s(s+1).
    """
    N = spec.N
    if spec.kind == HS:
        pairs = [(1.0 / math.sin(math.pi * (i - j) / N) ** 2, i, j,
                  HEISENBERG) for i in range(N) for j in range(i + 1, N)]
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
                    pairs.append((coupling, min(i, j), max(i, j), HEISENBERG))
        return const, pairs
    if spec.kind == QBQ:
        pairs = []
        for i in range(N):
            j = (i + 1) % N
            a, b = min(i, j), max(i, j)
            pairs.append((math.cos(spec.theta), a, b, HEISENBERG))
            pairs.append((math.sin(spec.theta), a, b, BIQUADRATIC))
        return 0.0, pairs
    return _parent_terms(N, HEISENBERG)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _gate_moves(kinds, d):
    """(n_off, dest, da, db, values) of the bonds on one site pair, whose
    gates have these kinds, in bond order; every array is read-only.

    An entry is a place off the diagonal where any of the gates is not
    exactly zero. n_off[c] counts the entries in two-site row c. Entry e
    lies in row dest[e], (da[e], db[e]) are the digit steps from there to
    its column, and values[k, e] is gate k at it, 0 where gate k has none.
    """
    gates = np.array([_GATES[kind](d) for kind in kinds])
    kept = np.any(gates != 0, axis=0)
    np.fill_diagonal(kept, False)
    dest, src = np.nonzero(kept)
    return _read_only(np.count_nonzero(kept, axis=1).astype(np.uint8), dest,
                      src // d - dest // d, src % d - dest % d,
                      gates[:, dest, src])


class _Pattern:
    """Where a chain's matrix stores its entries on one basis, and what
    each stored entry is made of; every array is read-only.

    indptr and indices are the CSR's: each row in column order, with one
    entry per column. The bonds on one site pair (repeated bonds at N = 2
    and N = 4, the two gates of a qbq bond) share their entries. codes[k]
    says what entry k holds: 0 the diagonal, stored for every row at
    diag_at; 1 + q the sum over the bonds term_bond[q] of coupling times
    term_value[q], in bond order, leaving out the terms marked
    term_absent[q]. The diagonal is summed bond by bond from the codes
    in site_digits, one uint8 row per site.
    """

    def __init__(self, N, d, bonds, ranks):
        ranks = np.asarray(ranks, dtype=np.int64)
        m = len(ranks)
        # a basis of all d^N configurations is ranks 0..m-1: no lookup
        full = m == d ** N
        weight = d ** np.arange(N - 1, -1, -1, dtype=np.int64)
        # codes stay below d^2 <= 9, so one byte per site and rank holds them
        site_digits = np.empty((N, m), dtype=np.uint8)
        for site, w in enumerate(weight):
            site_digits[site] = ranks // w % d
        members = {}
        for b, (i, j, _) in enumerate(bonds):
            members.setdefault((i, j), []).append(b)
        site_pairs = [
            (i, j, bs, _gate_moves(tuple(bonds[b][2] for b in bs), d))
            for (i, j), bs in members.items()]
        base = np.cumsum([1] + [len(moves[1]) for *_, moves in site_pairs])
        # each row's two-site code per pair, and its entry count: the
        # diagonal, stored zero or not, and the pairs' entries in that row.
        # MAX_CONFIGS keeps nnz far below 2^31, where scipy would switch
        # to int64 indices
        pair_code = np.empty((len(site_pairs), m), dtype=np.uint8)
        indptr = np.ones(m + 1, dtype=np.int32)
        indptr[0] = 0
        for code, (i, j, _, (n_off, *_)) in zip(pair_code, site_pairs):
            np.multiply(site_digits[i], d, out=code)
            code += site_digits[j]
            indptr[1:] += np.take(n_off, code)
        np.cumsum(indptr, out=indptr)
        # an entry's column is its row's plus a shift fixed by its pair and
        # gate entry (on a sector, the rank of that sum, which grows with
        # the shift), so writing the entries shift by shift, one slot per
        # row, lays every row out in column order
        kinds = [(0, -1, 0, 0)]
        for p, (i, j, _, (_, dest, da, db, _)) in enumerate(site_pairs):
            shifts = da * weight[i] + db * weight[j]
            kinds += [(int(shift), p, int(c), int(base[p]) + e)
                      for e, (shift, c) in enumerate(zip(shifts, dest))]
        kinds.sort(key=lambda kind: kind[0])
        indices = np.empty(indptr[-1], dtype=np.int32)
        codes = np.empty(indptr[-1], dtype=np.min_scalar_type(base[-1] - 1))
        slot = indptr[:-1].copy()
        for shift, p, c, entry in kinds:
            if p < 0:
                indices[slot] = np.arange(m)
                codes[slot] = 0
                self.diag_at = slot.copy()
                slot += 1
                continue
            rows = (pair_code[p] == c).nonzero()[0]
            if full:
                cols = rows + shift
            else:
                src = ranks[rows]
                src += shift
                cols = ranks.searchsorted(src)
                if (ranks.take(cols, mode="clip") != src).any():
                    raise ConsistencyError("a gate entry left the Sz sector")
            at = slot[rows]
            indices[at] = cols
            codes[at] = entry
            at += 1
            slot[rows] = at
        del pair_code, slot
        self.m, self.d = m, d
        self.indptr, self.indices, self.codes = indptr, indices, codes
        width = max((len(bs) for _, _, bs, _ in site_pairs), default=1)
        self.term_bond = np.zeros((base[-1] - 1, width), dtype=np.intp)
        self.term_value = np.zeros((base[-1] - 1, width))
        for start, (_, _, bs, (*_, values)) in zip(base, site_pairs):
            part = slice(start - 1, start - 1 + values.shape[1])
            self.term_bond[part, :len(bs)] = bs
            self.term_value[part, :len(bs)] = values.T
        self.term_absent = self.term_value == 0
        self.site_digits = site_digits
        _read_only(indptr, indices, codes, self.diag_at, site_digits,
                   self.term_bond, self.term_value, self.term_absent)
        self.diag_terms = [(i, j, np.diagonal(_GATES[kind](d)))
                           for i, j, kind in bonds]

    def fill(self, const, couplings):
        """The CSR of the chain with these couplings (one per bond, in bond
        order) and this constant: a fresh data array around the shared
        read-only indptr and indices."""
        import scipy.sparse

        couplings = np.array(couplings, dtype=float)
        diag = np.full(self.m, float(const))
        for coupling, (i, j, gdiag) in zip(couplings, self.diag_terms):
            code = self.site_digits[i] * self.d
            code += self.site_digits[j]
            diag += np.take(coupling * gdiag, code)
        # -0.0 stands for a term left out: it leaves any sum as it is
        terms = couplings[self.term_bond] * self.term_value
        terms[self.term_absent] = -0.0
        table = np.empty(len(terms) + 1)
        table[1:] = terms[:, 0]
        for column in terms.T[1:]:
            table[1:] += column
        # gathered through a small intp buffer: numpy would cast the uint8
        # codes through a larger one, or all at once for take
        data = np.empty(len(self.codes))
        index = np.empty(min(GATHER_CHUNK, len(data)), dtype=np.intp)
        for start in range(0, len(data), GATHER_CHUNK):
            codes = self.codes[start:start + GATHER_CHUNK]
            at = index[:len(codes)]
            at[...] = codes
            # mode="raise" would buffer the output as well; no code passes
            # the table's end
            np.take(table, at, out=data[start:start + GATHER_CHUNK],
                    mode="clip")
        index = at = None
        data[self.diag_at] = diag
        mat = scipy.sparse.csr_matrix((data, self.indices, self.indptr),
                                      shape=(self.m, self.m))
        mat.has_canonical_format = True
        return mat


def _scatter_matrix(N, d, const, pairs, ranks):
    """Hamiltonian matrix on the basis {ranks} as a sparse CSR: the
    _Pattern of its bonds on that basis, filled with its couplings, with
    no cache in between.

    The pattern is built in place. A first pass takes each bond's
    two-site code digits[i] * d + digits[j] from one uint8 row of digits
    per site and counts each row's entries: its diagonal, stored zero or
    not, and the entries of its code's gate row, the bonds on one site
    pair sharing theirs. The int32 indptr and indices and the uint8
    (uint16 past 255) codes are then allocated once, at final size, and
    written one (pair, gate entry) at a time, by ascending column shift,
    so every row comes out in column order with no sort. Each gate
    conserves two-site Sz, so a closed basis holds every source config,
    and a rank-lookup miss means the basis is not closed. The fill
    gathers one float64 data array from a small table of coupling times
    gate entry, summed over the bonds of a pair in bond order, and writes
    the diagonal, summed bond by bond. Those are the orders in which
    coo.tocsr() summed them: two terms sum the same either way, and more
    meet only at N = 2 (four for qbq), where rows are short enough for
    scipy's row sort to keep their order. So every array keeps the bytes
    of that COO scatter.
    """
    bonds = tuple((i, j, gate) for _, i, j, gate in pairs)
    return _Pattern(N, d, bonds, ranks).fill(const, [c for c, *_ in pairs])


@functools.lru_cache(maxsize=PATTERN_CACHE_SIZE)
def _pattern(N, d, bonds, sector):
    """The _Pattern of one chain shape: N, d, the bonds (i, j, gate kind)
    and the basis, the full space (sector None) or one SectorIndex."""
    ranks = np.arange(d ** N) if sector is None else sector.ranks
    return _Pattern(N, d, bonds, ranks)


def build(spec, sector=None):
    """Hermitian LinearOperator for the chain, on the full d^N space or,
    given a SectorIndex, restricted to that total-Sz sector.

    The operator is always one sparse CSR matrix over the basis ranks,
    filled with the spec's couplings on the cached pattern of its shape;
    only eig_smallest densifies it (up to DENSE_DIM_MAX). Every call
    returns a fresh operator and a fresh data array.
    """
    N, d = spec.N, spec.d
    if sector is None:
        check_size(N, d)
    elif (sector.N, sector.d) != (N, d):
        raise InputError(
            f"sector ({sector.N},{sector.d}) does not match spec ({N},{d})")
    const, pairs = _terms(spec)
    bonds = tuple((i, j, gate) for _, i, j, gate in pairs)
    pattern = _pattern(N, d, bonds, sector)
    return LinearOperator(pattern.fill(const, [c for c, *_ in pairs]))


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
