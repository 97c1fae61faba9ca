"""Chain Hamiltonians against literal kron-product oracles and known spectra."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from idmps import blocks, experiments, hamiltonians, refstates
from idmps.errors import ConsistencyError, InputError
from idmps.hamiltonians import (COUPLING_RANGE, DEGENERACY_TOL,
                                HamiltonianSpec, _scatter_matrix,
                                biquadratic_gate, build, eigenstate_residual,
                                ground_states, ground_subspace,
                                heisenberg_gate, parent_annihilation_check)
from idmps.hilbert import (StateVector, digits, enumerate_sector,
                           fidelity_per_site, fidelity_per_site_subspace,
                           spin_matrices, total_spin_quantum, translate)
from idmps.numerics import LinearOperator


# ---------------------------------------------------------------- oracle

def kron_site_ops(N, d, ops_by_site):
    """Product of single-site operators placed by site index, kron-expanded."""
    full = np.eye(1)
    for i in range(N):
        full = np.kron(full, ops_by_site.get(i, np.eye(d)))
    return full


def exchange_matrix(N, d, i, j):
    """S_i . S_j on the full space; i == j gives s(s+1) times identity."""
    out = np.zeros((d ** N, d ** N), dtype=complex)
    for m in spin_matrices(d):
        if i == j:
            out += kron_site_ops(N, d, {i: m @ m})
        else:
            out += kron_site_ops(N, d, {i: m, j: m})
    return out


def oracle_matrix(spec):
    """The Hamiltonian built a second way: literal sums of kron products."""
    N, d = spec.N, spec.d
    dim = d ** N
    h = np.zeros((dim, dim), dtype=complex)
    if spec.kind == "hs":
        for i in range(N):
            for j in range(i + 1, N):
                h += exchange_matrix(N, d, i, j) / math.sin(
                    math.pi * (i - j) / N) ** 2
    elif spec.kind == "j1j2":
        for i in range(N):
            h += spec.J1 * exchange_matrix(N, d, i, (i + 1) % N)
            h += spec.J2 * exchange_matrix(N, d, i, (i + 2) % N)
    elif spec.kind == "qbq":
        for i in range(N):
            ex = exchange_matrix(N, d, i, (i + 1) % N)
            h += math.cos(spec.theta) * ex + math.sin(spec.theta) * (ex @ ex)
    else:
        z = np.arange(1, N + 1) / N
        w = np.zeros((N, N), dtype=complex)
        for i in range(N):
            for j in range(N):
                if i != j:
                    w[i, j] = 1j / math.tan(math.pi * (z[i] - z[j]))
        for i in range(N):
            for j in range(i + 1, N):
                cross = sum(w[k, i] * w[k, j] for k in range(N)
                            if k not in (i, j))
                h -= w[i, j] ** 2 / 4 * np.eye(dim)
                h -= (w[i, j] ** 2 + cross) / 3 * exchange_matrix(N, d, i, j)
    assert np.abs(h.imag).max() < 1e-12
    return h.real


ORACLE_CASES = [
    HamiltonianSpec("hs", 4),
    HamiltonianSpec("hs", 5),
    HamiltonianSpec("j1j2", 2, J2=0.3),
    HamiltonianSpec("j1j2", 4, J2=0.5),
    HamiltonianSpec("j1j2", 6, J1=0.7, J2=0.2),
    HamiltonianSpec("qbq", 2, theta=0.0),
    HamiltonianSpec("qbq", 4, theta=math.atan(1 / 3)),
    HamiltonianSpec("qbq", 5, theta=-0.4),
    HamiltonianSpec("parent", 4),
    HamiltonianSpec("parent", 6),
]


@pytest.mark.parametrize("spec", ORACLE_CASES, ids=repr)
def test_build_matches_kron_oracle(spec):
    mine = build(spec).matrix.toarray()
    ref = oracle_matrix(spec)
    assert np.abs(mine - ref).max() < 1e-11


def _sectors(spec):
    return [enumerate_sector(spec.N, spec.d, sz)
            for sz in hamiltonians._sz_values(spec.N, spec.d)]


@pytest.mark.parametrize("spec", ORACLE_CASES, ids=repr)
def test_sector_builds_match_kron_oracle(spec):
    ref = oracle_matrix(spec)
    for sector in _sectors(spec):
        mine = build(spec, sector=sector).matrix.toarray()
        assert np.abs(mine - ref[np.ix_(sector.ranks, sector.ranks)]).max() \
            < 1e-11


@pytest.mark.parametrize("spec", ORACLE_CASES, ids=repr)
def test_operators_store_at_most_one_diagonal_entry_per_row(spec):
    for sector in [None] + _sectors(spec):
        m = build(spec, sector=sector).matrix
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        on_diag = np.bincount(rows[m.indices == rows], minlength=m.shape[0])
        assert on_diag.max(initial=0) <= 1


@pytest.mark.parametrize("d", [2, 3])
def test_gates_match_the_complex_kronecker_construction(d):
    # the real ladder form keeps every bit of sum_a Sa x Sa
    sx, sy, sz = spin_matrices(d)
    g = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    assert not g.imag.any()
    assert np.array_equal(heisenberg_gate(d), g.real)
    assert np.array_equal(biquadratic_gate(d), g.real @ g.real)


def complex_w_parent_terms(N):
    """(constant, [coupling of each pair i < j]) of the parent chain from
    the complex w_jk = i cot(pi (z_j - z_k)), the form that the real
    cotangents replaced."""
    z = blocks.insertion_points(N)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 0.25)
    w = 1j / np.tan(np.pi * diff)
    np.fill_diagonal(w, 0.0)
    wsq, cross = w ** 2, w.T @ w
    assert not wsq.imag.any()
    assert np.abs(cross.imag).max() <= 1e-12 * np.abs(cross).max()
    iu, ju = np.triu_indices(N, k=1)
    const = -float(wsq.real[iu, ju].sum()) / 4.0
    return const, (-(wsq.real + cross.real) / 3.0)[iu, ju]


@pytest.mark.parametrize("N", range(2, 21))
def test_parent_couplings_match_the_complex_w_construction(N):
    const, pairs = hamiltonians._parent_terms(N, None)
    want_const, want = complex_w_parent_terms(N)
    got = np.array([c for c, _, _, _ in pairs])
    assert [(i, j) for _, i, j, _ in pairs] == \
        list(zip(*map(list, np.triu_indices(N, k=1))))
    assert const == want_const
    if N <= 10:
        assert np.array_equal(got, want)
    else:
        # the real and complex matmuls round the cross sums differently
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_heisenberg_gate_spin_half_literal():
    g = heisenberg_gate(2)
    ref = np.array([[0.25, 0, 0, 0],
                    [0, -0.25, 0.5, 0],
                    [0, 0.5, -0.25, 0],
                    [0, 0, 0, 0.25]])
    assert np.abs(g - ref).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_gates_are_built_once_and_read_only(d):
    for gate in (heisenberg_gate, biquadratic_gate):
        assert gate(d) is gate(d)
        with pytest.raises(ValueError):
            gate(d)[0, 0] = 1.0
    # the gates of a site pair are tabulated once per kind list
    kinds = (hamiltonians.HEISENBERG, hamiltonians.BIQUADRATIC)
    assert hamiltonians._gate_moves(kinds, d) is \
        hamiltonians._gate_moves(kinds, d)


def test_biquadratic_gate_eigenvalues():
    # (S.S)^2 on two spin-1 sites: S.S in {-2, -1, 1} so squares are {4, 1}
    vals = np.linalg.eigvalsh(biquadratic_gate(3))
    assert np.allclose(sorted(set(np.round(vals, 9))), [1.0, 4.0])


# ---------------------------------------------------------------- spectra

def test_hs_ground_energy_formula():
    for N in (4, 6):
        pairs = ground_subspace(HamiltonianSpec("hs", N), 2)
        assert abs(pairs[0][0] - (-(N ** 3 + 5 * N) / 24)) < 1e-9
        # unique ground state
        assert pairs[1][0] - pairs[0][0] > 1e-3


def test_mg_point_degenerate_pair():
    for N, e_mg in ((6, -2.25), (8, -3.0)):
        e0, states = ground_states(HamiltonianSpec("j1j2", N, J2=0.5))
        assert abs(e0 - e_mg) < 1e-9
        assert len(states) == 2
        for sign in (+1, -1):
            mg = refstates.mg_combination(N, sign)
            assert fidelity_per_site_subspace(mg, states) > 1 - 1e-12


def test_qbq_two_site_spectrum():
    # periodic N=2 doubles the bond: H = 2 S1.S2, spectrum {-4, -2, 2}
    pairs = ground_subspace(HamiltonianSpec("qbq", 2, theta=0.0), 9)
    vals = sorted(set(round(e, 9) for e, _ in pairs))
    assert vals == [-4.0, -2.0, 2.0]


def test_qbq_aklt_point():
    spec = HamiltonianSpec("qbq", 6, theta=math.atan(1 / 3))
    e0, states = ground_states(spec)
    # cos(t) S.S + sin(t) (S.S)^2 = 3/sqrt(10) (S.S + (S.S)^2/3); the AKLT
    # state has zero spin-2 projection on every bond, giving E = -2N/sqrt(10)
    assert abs(e0 - (-12 / math.sqrt(10))) < 1e-9
    assert len(states) == 1
    aklt = refstates.aklt_state(6, basis="standard")
    assert fidelity_per_site(aklt, states[0]) > 1 - 1e-10
    h = build(spec)
    assert eigenstate_residual(h, aklt, e0) < 1e-9


# ---------------------------------------------------------------- residuals

def test_hs_cylinder_eigenstates():
    for N in (4, 6):
        h = build(HamiltonianSpec("hs", N))
        e0 = -(N ** 3 + 5 * N) / 24
        psi0 = blocks.build_state(blocks.BlockSpec("su2_1", 0, N), None)
        half = blocks.build_state(blocks.BlockSpec("su2_1", 0.5, N), None)
        assert eigenstate_residual(h, psi0, e0) < 1e-8
        assert eigenstate_residual(h, half, e0 + N / 2) < 1e-8


def test_rayleigh_quotient_minimizes_residual():
    h = build(HamiltonianSpec("j1j2", 4, J2=0.3))
    rng = np.random.default_rng(5)
    v = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    v /= np.linalg.norm(v)
    e = float(np.vdot(v, h.apply(v)).real)
    base = eigenstate_residual(h, v, e)
    for shift in (0.05, -0.05, 0.3):
        assert eigenstate_residual(h, v, e + shift) > base


def test_eigenstate_residual_validation():
    h = build(HamiltonianSpec("hs", 4))
    with pytest.raises(InputError):
        eigenstate_residual(h, np.zeros(16), 0.0)
    with pytest.raises(InputError):
        eigenstate_residual(h, np.ones(7), 0.0)


# ---------------------------------------------------------------- parent

def test_parent_annihilates_cylinder_block():
    for N in (2, 4, 6):
        residual, min_eig = parent_annihilation_check(N)
        assert residual <= 1e-8
        assert min_eig >= -1e-9


def test_parent_does_not_annihilate_generic_states():
    h = build(HamiltonianSpec("parent", 6))
    rng = np.random.default_rng(9)
    v = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    assert eigenstate_residual(h, v, 0.0) > 0.1


def test_parent_check_validation():
    with pytest.raises(InputError):
        parent_annihilation_check(5)
    with pytest.raises(InputError):
        parent_annihilation_check(14)


# ---------------------------------------------------------------- symmetry

ALL_KINDS = [HamiltonianSpec("hs", 6), HamiltonianSpec("j1j2", 6, J2=0.4),
             HamiltonianSpec("qbq", 4, theta=0.3), HamiltonianSpec("parent", 6)]


@pytest.mark.parametrize("spec", ALL_KINDS, ids=repr)
def test_operators_are_hermitian(spec):
    # exactly, on the full space and in every Sz sector
    for sector in [None] + [enumerate_sector(spec.N, spec.d, sz)
                            for sz in (0.0, 1.0)]:
        m = build(spec, sector=sector).matrix
        assert abs(m - m.conj().T).max() == 0.0


@pytest.mark.parametrize("spec", [HamiltonianSpec("hs", 6),
                                  HamiltonianSpec("j1j2", 6, J2=0.4)], ids=repr)
def test_translation_invariance(spec):
    h = build(spec)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    v = StateVector(spec.N, spec.d, amps / np.linalg.norm(amps))
    tv = translate(v)
    before = np.vdot(v.amplitudes, h.apply(v.amplitudes))
    after = np.vdot(tv.amplitudes, h.apply(tv.amplitudes))
    assert abs(before - after) < 1e-10


@pytest.mark.parametrize("spec", ALL_KINDS, ids=repr)
def test_sz_conservation_and_sector_restriction(spec):
    h = build(spec)
    sector = enumerate_sector(spec.N, spec.d, 1.0)
    rng = np.random.default_rng(7)
    reduced = rng.normal(size=sector.size) + 1j * rng.normal(size=sector.size)
    full = np.zeros(h.dim, dtype=complex)
    full[sector.ranks] = reduced
    out = h.apply(full)
    outside = np.delete(out, sector.ranks)
    assert np.abs(outside).max() == 0.0
    hs = build(spec, sector=sector)
    assert np.abs(hs.apply(reduced) - out[sector.ranks]).max() < 1e-12


# ---------------------------------------------------------------- ordering

def test_ground_subspace_orders_degenerate_level_by_sz_then_rank():
    # the first excited HS level at N=4 is 4-fold: a triplet plus a singlet
    pairs = ground_subspace(HamiltonianSpec("hs", 4), 5)
    energies = [e for e, _ in pairs]
    assert abs(energies[0] + 3.5) < 1e-9
    assert max(energies[1:]) - min(energies[1:]) < 1e-9
    sz = [round(total_spin_quantum(sv)[1]) for _, sv in pairs[1:]]
    assert sz == [-1, 0, 0, 1]


def test_ground_subspace_is_deterministic():
    a = ground_subspace(HamiltonianSpec("j1j2", 6, J2=0.5), 2)
    b = ground_subspace(HamiltonianSpec("j1j2", 6, J2=0.5), 2)
    for (ea, va), (eb, vb) in zip(a, b):
        assert ea == eb
        assert np.array_equal(va.amplitudes, vb.amplitudes)


# ---------------------------------------------------------------- sector ED

SECTOR_CASES = (
    [HamiltonianSpec("hs", N) for N in (5, 6, 7, 8)]
    + [HamiltonianSpec("j1j2", N, J2=j2) for N in (8, 10)
       for j2 in (0.0, 0.3, 0.5, 0.8)]
    # theta = pi is the ferromagnet: its ground level is a multiplet
    + [HamiltonianSpec("qbq", N, theta=th) for N in (4, 5, 6, 7)
       for th in (-math.pi / 2, 0.0, math.atan(1 / 3), math.pi / 4, math.pi)]
    + [HamiltonianSpec("parent", N) for N in (6, 8)])


@pytest.mark.parametrize("spec", SECTOR_CASES, ids=repr)
def test_ground_states_sector_matches_all_sectors(spec):
    e0, states = ground_states(spec)
    e_all = ground_subspace(spec, 1)[0][0]
    assert abs(e0 - e_all) <= 1e-12
    # the states span the ground projector restricted to the lowest |Sz|
    sector = enumerate_sector(spec.N, spec.d, (spec.N * (spec.d - 1) / 2) % 1)
    vals, vecs = np.linalg.eigh(build(spec, sector).matrix.toarray())
    ground = vecs[:, vals <= e_all + DEGENERACY_TOL]
    got = np.column_stack([sv.amplitudes[sector.ranks] for sv in states])
    assert got.shape[1] == ground.shape[1]
    q, _ = np.linalg.qr(got)
    assert np.abs(q @ q.conj().T - ground @ ground.conj().T).max() < 1e-10
    for sv in states:
        assert np.linalg.norm(np.delete(sv.amplitudes, sector.ranks)) == 0.0


def test_ground_states_solves_one_sector(monkeypatch):
    # merging every sector would solve the 11 Sz sectors of N=10
    calls = []
    real = hamiltonians.eig_smallest

    def counting(op, k=1):
        calls.append(op.dim)
        return real(op, k)

    monkeypatch.setattr(hamiltonians, "eig_smallest", counting)
    ground_states(HamiltonianSpec("j1j2", 10, J2=0.3))
    assert calls == [252]


def test_ground_states_finds_a_degenerate_level_in_one_solve(monkeypatch):
    # the 7-fold Sz=0 ground level of J1=0, J2<0 at N=12 (two decoupled
    # ferromagnetic rings) comes from one solve of the sector
    calls = []
    for name in ("ground_subspace", "eig_smallest"):
        real = getattr(hamiltonians, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(hamiltonians, name, counting)
    e0, states = ground_states(HamiltonianSpec("j1j2", 12, J1=0.0, J2=-1.0))
    assert calls == ["ground_subspace", "eig_smallest"]
    assert len(states) == 7
    assert e0 == pytest.approx(-3.0, abs=1e-12)


def test_ground_states_returns_every_copy_of_a_large_level():
    # sum (S_i.S_{i+1})^2 at N=7 has a 127-fold Sz=0 ground level at E=7
    spec = HamiltonianSpec("qbq", 7, theta=math.pi / 2)
    e0, states = ground_states(spec)
    sector = enumerate_sector(7, 3, 0.0)
    vals = np.linalg.eigvalsh(build(spec, sector).matrix.toarray())
    assert len(states) == np.count_nonzero(vals <= vals[0] + DEGENERACY_TOL)
    assert len(states) == 127
    assert e0 == pytest.approx(7.0, abs=1e-12)
    got = np.column_stack([sv.amplitudes[sector.ranks] for sv in states])
    assert np.abs(got.conj().T @ got - np.eye(127)).max() < 1e-10


def _masked_scatter(spec, ranks):
    """The operator scattered entry by entry: every gate entry, diagonal
    ones included, through a mask over both site digits, with duplicates
    summed by the sparse conversion."""
    N, d = spec.N, spec.d
    const, pairs = hamiltonians._terms(spec)
    m = len(ranks)
    site_digits = digits(ranks, N, d)
    weight = d ** np.arange(N - 1, -1, -1)
    rows, cols, vals = [np.arange(m)], [np.arange(m)], [np.full(m, const)]
    for coupling, i, j, kind in pairs:
        g4 = hamiltonians._GATES[kind](d).reshape(d, d, d, d)
        for a2, b2, a, b in np.argwhere(g4 != 0):
            sel = np.nonzero((site_digits[:, i] == a)
                             & (site_digits[:, j] == b))[0]
            dest = ranks[sel] + (a2 - a) * weight[i] + (b2 - b) * weight[j]
            rows.append(np.searchsorted(ranks, dest))
            cols.append(sel)
            vals.append(np.full(sel.size, coupling * g4[a2, b2, a, b]))
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m)).toarray()


@pytest.mark.parametrize("spec", (
    [HamiltonianSpec("hs", N) for N in (4, 7, 10)]
    + [HamiltonianSpec("j1j2", N, J2=j2) for N in (6, 9, 10)
       for j2 in (0.0, 0.5, 0.8)]
    + [HamiltonianSpec("qbq", N, theta=th) for N in (4, 5, 6, 7)
       for th in (-math.pi / 2, math.atan(1 / 3), math.pi)]), ids=repr)
def test_ground_energy_matches_masked_scatter(spec):
    sector = enumerate_sector(spec.N, spec.d, (spec.N * (spec.d - 1) / 2) % 1)
    ref = np.linalg.eigvalsh(_masked_scatter(spec, sector.ranks))[0]
    assert abs(ground_states(spec)[0] - ref) <= 1e-12


def test_ground_subspace_in_one_sector():
    spec = HamiltonianSpec("hs", 5)
    pairs = ground_subspace(spec, 3, sz=0.5)
    assert len(pairs) == 3
    for _, sv in pairs:
        assert total_spin_quantum(sv)[1] == pytest.approx(0.5, abs=1e-12)
    # k is bounded by the sector's size, and the sector must exist
    assert len(ground_subspace(spec, 10, sz=0.5)) == 10
    with pytest.raises(InputError):
        ground_subspace(spec, 11, sz=0.5)
    with pytest.raises(InputError):
        ground_subspace(spec, 1, sz=0.0)


def _coo_scatter(N, d, const, pairs, ranks):
    """The operator as a COO scatter converted by scipy: diagonal first,
    then one batch per off-diagonal gate entry, selected by its source
    code, concatenated and converted with coo.tocsr()."""
    ranks = np.asarray(ranks, dtype=np.int64)
    m = len(ranks)
    site_digits = np.ascontiguousarray(digits(ranks, N, d).T)
    weight = d ** np.arange(N - 1, -1, -1, dtype=np.int64)
    diag = np.full(m, float(const))
    rows, cols, vals = [], [], []
    for coupling, i, j, kind in pairs:
        gate = hamiltonians._GATES[kind](d)
        code = site_digits[i] * d + site_digits[j]
        diag += coupling * np.diagonal(gate)[code]
        for dest_code, src_code in np.argwhere(gate != 0):
            if dest_code == src_code:
                continue
            sel = np.nonzero(code == src_code)[0]
            a2, b2 = divmod(int(dest_code), d)
            a, b = divmod(int(src_code), d)
            dest = ranks[sel] + (a2 - a) * weight[i] + (b2 - b) * weight[j]
            rows.append(np.searchsorted(ranks, dest))
            cols.append(sel)
            vals.append(np.full(sel.size,
                                coupling * gate[dest_code, src_code]))
    every = np.arange(m)
    return scipy.sparse.coo_matrix(
        (np.concatenate([diag] + vals),
         (np.concatenate([every] + rows), np.concatenate([every] + cols))),
        shape=(m, m)).tocsr()


@pytest.mark.parametrize("spec", ORACLE_CASES
                         + [HamiltonianSpec("hs", N) for N in (2, 3, 8, 12)]
                         + [HamiltonianSpec("j1j2", N, J1=0.7, J2=-0.45)
                            for N in (3, 5, 9, 12)], ids=repr)
def test_in_place_fill_keeps_the_coo_bytes(spec):
    # same dtypes and bytes, with the repeated bonds of N = 2 and N = 4
    # merged the same way
    const, pairs = hamiltonians._terms(spec)
    bases = [np.arange(spec.d ** spec.N)] + [s.ranks for s in _sectors(spec)]
    for ranks in bases:
        mine = _scatter_matrix(spec.N, spec.d, const, pairs, ranks)
        ref = _coo_scatter(spec.N, spec.d, const, pairs, ranks)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(mine, name), getattr(ref, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def _shape(spec):
    _, pairs = hamiltonians._terms(spec)
    return tuple((i, j, gate) for _, i, j, gate in pairs)


def _assert_coo_bytes(spec, sector, mat):
    const, pairs = hamiltonians._terms(spec)
    ranks = (np.arange(spec.d ** spec.N) if sector is None
             else sector.ranks)
    ref = _coo_scatter(spec.N, spec.d, const, pairs, ranks)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(mat, name), getattr(ref, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# pairs of specs of one chain shape: the second build fills the pattern the
# first one left in the cache
CACHE_HIT_CASES = (
    [(HamiltonianSpec("j1j2", N, J1=0.7, J2=-0.45),
      HamiltonianSpec("j1j2", N, J1=-0.9, J2=0.3)) for N in (2, 3, 4, 5, 9)]
    + [(HamiltonianSpec("j1j2", 6, J1=0.0, J2=0.4),
        HamiltonianSpec("j1j2", 6, J1=0.0, J2=-1.0)),
       (HamiltonianSpec("j1j2", 7, J2=0.0),
        HamiltonianSpec("j1j2", 7, J1=-0.6, J2=0.0))]
    + [(HamiltonianSpec("qbq", N, theta=0.3),
        HamiltonianSpec("qbq", N, theta=theta))
       for N in (2, 3, 4, 5) for theta in (0.0, -0.0)]
    # N = 2 sums four terms per entry, where their order shows in the bits
    + [(HamiltonianSpec("qbq", 2, theta=0.3),
        HamiltonianSpec("qbq", 2, theta=theta)) for theta in (-2.7, -2.0)]
    + [(HamiltonianSpec(kind, N), HamiltonianSpec(kind, N))
       for kind in ("hs", "parent") for N in (2, 5, 8)])


@pytest.mark.parametrize("first,second", CACHE_HIT_CASES, ids=repr)
def test_cache_hit_fill_keeps_the_coo_bytes(first, second):
    # every basis, the full space and each Sz sector (+Sz and -Sz alike),
    # is filled from the pattern the first spec left
    assert _shape(first) == _shape(second)
    for sector in [None] + _sectors(first):
        hamiltonians._pattern.cache_clear()
        build(first, sector)
        got = build(second, sector).matrix
        info = hamiltonians._pattern.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        _assert_coo_bytes(second, sector, got)


def test_cache_hit_keeps_signed_zeros():
    # at theta = +-0 the biquadratic terms are zeros of that sign: alone
    # in an entry (the spin-flip pair, and the diagonal of a zero exchange
    # sum) such a zero is stored as is, beside an exchange term it leaves
    # that term's bits
    hamiltonians._pattern.cache_clear()
    build(HamiltonianSpec("qbq", 4, theta=0.3))
    for theta in (0.0, -0.0):
        spec = HamiltonianSpec("qbq", 4, theta=theta)
        data = build(spec).matrix.data
        negative = np.signbit(data[data == 0])
        assert negative.size and negative.any() == np.signbit(theta)
        _assert_coo_bytes(spec, None, build(spec).matrix)
    assert hamiltonians._pattern.cache_info().misses == 1


def test_a_dropped_coupling_is_its_own_shape():
    # j1j2 leaves out the bonds of a zero coupling, so J2 = 0 misses the
    # pattern of J2 != 0, and the fill of J2 = 0 matches its own scatter
    hamiltonians._pattern.cache_clear()
    build(HamiltonianSpec("j1j2", 8, J2=0.3))
    for spec in (HamiltonianSpec("j1j2", 8, J2=0.0),
                 HamiltonianSpec("j1j2", 8, J1=0.0, J2=0.3)):
        misses = hamiltonians._pattern.cache_info().misses
        got = build(spec).matrix
        assert hamiltonians._pattern.cache_info().misses == misses + 1
        _assert_coo_bytes(spec, None, got)


def test_the_pattern_cache_keeps_one_chain_shape():
    # one Sz sector and the full space of one chain, as a scan builds them
    assert hamiltonians.PATTERN_CACHE_SIZE == 2
    hamiltonians._pattern.cache_clear()
    sector = enumerate_sector(10, 2, 0.0)
    for J2 in (0.1, 0.2, 0.3):
        build(HamiltonianSpec("j1j2", 10, J2=J2), sector)
        build(HamiltonianSpec("j1j2", 10, J2=J2))
    info = hamiltonians._pattern.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)


def test_operators_share_a_read_only_pattern():
    # each build returns a fresh operator and data array around one
    # read-only indptr and indices: writing into those raises, and
    # writing into one operator's data leaves the next build as it was
    spec = HamiltonianSpec("j1j2", 8, J1=-0.8, J2=0.35)
    hamiltonians._pattern.cache_clear()
    a = build(HamiltonianSpec("j1j2", 8, J2=0.2))
    b = build(spec)
    assert a is not b and a.matrix is not b.matrix
    assert not np.shares_memory(a.matrix.data, b.matrix.data)
    assert b.matrix.data.flags.writeable
    for name in ("indices", "indptr"):
        arr = getattr(b.matrix, name)
        assert np.shares_memory(arr, getattr(a.matrix, name))
        with pytest.raises(ValueError):
            arr[0] = 1
    b.matrix.data[:] = 7.0
    _assert_coo_bytes(spec, None, build(spec).matrix)


def test_an_empty_sector_builds_the_empty_operator():
    # N = 5 spin-1/2 sites have no Sz = 0 configuration
    sector = enumerate_sector(5, 2, 0.0)
    for J2 in (0.3, 0.4):
        h = build(HamiltonianSpec("j1j2", 5, J2=J2), sector)
        assert h.matrix.shape == (0, 0) and h.apply(np.zeros(0)).size == 0


def test_scatter_refuses_a_basis_the_gates_leave():
    # the exchange takes up-down to down-up, which this basis leaves out
    pairs = [(1.0, 0, 1, hamiltonians.HEISENBERG)]
    with pytest.raises(ConsistencyError, match="left the Sz sector"):
        _scatter_matrix(2, 2, 0.0, pairs, np.array([1]))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_peaks_near_the_operator_it_returns():
    # the COO scatter held about 5x the CSR: int64 digit table, triplets,
    # their concatenation and the converted copy
    spec = HamiltonianSpec("j1j2", 12, J2=0.3)
    build(spec)
    h, peak = _traced_peak(build, spec)
    m = h.matrix
    assert peak <= 1.5 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _csr_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def test_first_build_peaks_near_the_operator_it_returns():
    # with the pattern built in the same call: codes of one byte, columns
    # written in row order, no sort and no triplets
    spec = HamiltonianSpec("j1j2", 12, J2=0.3)
    build(HamiltonianSpec("j1j2", 4, J2=0.3))
    hamiltonians._pattern.cache_clear()
    h, peak = _traced_peak(build, spec)
    assert hamiltonians._pattern.cache_info().misses == 1
    assert peak <= 1.5 * _csr_bytes(h.matrix)


@pytest.mark.parametrize("sz", [None, 0.0])
def test_later_builds_allocate_little_beyond_their_data(sz):
    # a cache hit allocates the data array, the diagonal and a 32 kB index
    # buffer: 0.73x (full space) and 0.75x (Sz = 0) of the CSR at N = 14
    sector = None if sz is None else enumerate_sector(14, 2, sz)
    hamiltonians._pattern.cache_clear()
    build(HamiltonianSpec("j1j2", 14, J2=0.3), sector)
    h, peak = _traced_peak(build, HamiltonianSpec("j1j2", 14, J2=0.45),
                           sector)
    assert hamiltonians._pattern.cache_info().hits == 1
    assert peak <= 0.8 * _csr_bytes(h.matrix)


@pytest.mark.parametrize("spec", [HamiltonianSpec("j1j2", 12, J2=0.3),
                                  HamiltonianSpec("qbq", 8, theta=0.3),
                                  HamiltonianSpec("hs", 10)], ids=repr)
def test_the_cached_pattern_holds_little_beyond_the_shared_indices(spec):
    # indptr and indices (shared with every operator), one code byte per
    # entry, the diagonal's slots and one digit byte per site and row
    build(HamiltonianSpec("j1j2", 4, J2=0.3))
    hamiltonians._pattern.cache_clear()
    tracemalloc.start()
    try:
        h = build(spec)
        held = tracemalloc.get_traced_memory()[0] - h.matrix.data.nbytes
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * _csr_bytes(h.matrix)


def test_real_operator_applies_to_a_complex_vector_without_a_copy():
    h = build(HamiltonianSpec("j1j2", 12, J2=0.3))
    v = np.exp(1j * np.arange(h.dim))
    h.apply(v)
    _, peak = _traced_peak(h.apply, v)
    # a complex copy of the stored entries alone takes nnz x 16 bytes
    assert peak < 16 * h.matrix.nnz


@pytest.mark.parametrize("spec,ham", [
    (blocks.BlockSpec("su2_1", 0, 10), HamiltonianSpec("j1j2", 10, J2=0.3)),
    (blocks.BlockSpec("su2_2", 4, 6), HamiltonianSpec("qbq", 6, theta=0.2))],
    ids=["su2_1", "su2_2"])
def test_real_operator_on_complex_scan_states_is_bit_identical(spec, ham):
    h = build(ham)
    cast = h.matrix.astype(complex)
    for R in np.geomspace(0.02, 30.0, 12):
        amps = experiments.block_state_spin_basis(spec, R).amplitudes
        assert h.apply(amps).tobytes() == (cast @ amps).tobytes()


class _CountingMatrix:
    """A real matrix that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.dtype, self.products = matrix, matrix.dtype, 0

    def __matmul__(self, v):
        self.products += 1
        return self.matrix @ v


@pytest.mark.parametrize("spec,ham", [
    (blocks.BlockSpec("su2_1", 0, 10), HamiltonianSpec("j1j2", 10, J2=0.3)),
    (blocks.BlockSpec("su2_2", 4, 6), HamiltonianSpec("qbq", 6, theta=0.2))],
    ids=["su2_1", "su2_2"])
def test_real_parts_alone_take_one_product_with_the_split_bits(spec, ham):
    # a zero imaginary part (+0 or -0) skips the second product; the
    # result and the energy keep the bits of the two-product split
    m = build(ham).matrix
    op = LinearOperator(m)
    op.matrix = counting = _CountingMatrix(m)
    rng = np.random.default_rng(3)
    vectors = [experiments.block_state_spin_basis(spec, R).amplitudes
               for R in np.geomspace(0.02, 30.0, 12)]
    # conj gives every entry an imaginary part of -0
    vectors.append(np.conj(rng.standard_normal(m.shape[0]) + 0j))
    for v in vectors:
        assert not np.any(v.imag)
        split = m @ v.real + 1j * (m @ v.imag)
        counting.products = 0
        got = op.apply(v)
        assert counting.products == 1
        assert got.tobytes() == split.tobytes()
        assert np.vdot(v, got).tobytes() == np.vdot(v, split).tobytes()
    # a nonzero imaginary part still takes both products, bit for bit
    for v in (np.exp(1j * np.arange(m.shape[0])), vectors[0] + 1e-3j):
        counting.products = 0
        got = op.apply(v)
        assert counting.products == 2
        assert got.tobytes() == (m @ v.real + 1j * (m @ v.imag)).tobytes()


@pytest.mark.parametrize("spec", (
    HamiltonianSpec("hs", 5), HamiltonianSpec("j1j2", 6, J2=0.5),
    HamiltonianSpec("parent", 4), HamiltonianSpec("parent", 5))
    + tuple(HamiltonianSpec("qbq", 4, theta=th)
            for th in (-math.pi / 2, math.atan(1 / 3), 0.2, math.pi)),
    ids=repr)
def test_gates_hold_no_entry_near_zero(spec):
    # _gate_moves keeps every nonzero entry: none of a built gate lies in
    # (0, 1e-10], where a cut between roundoff and entries would go
    for _, _, _, kind in hamiltonians._terms(spec)[1]:
        mags = np.abs(hamiltonians._GATES[kind](spec.d))
        assert not np.any((mags > 0) & (mags <= 1e-10))


def test_spec_validation():
    with pytest.raises(InputError):
        HamiltonianSpec("xyz", 4)
    with pytest.raises(InputError):
        HamiltonianSpec("hs", 1)
    # a non-integral site count is refused, not truncated to 6
    for N in (6.9, 6.5, "6", float("nan"), None):
        with pytest.raises(InputError, match="integer"):
            HamiltonianSpec("hs", N)
    assert HamiltonianSpec("hs", 6.0).N == 6
    assert type(HamiltonianSpec("hs", np.int64(6)).N) is int
    with pytest.raises(InputError):
        ground_subspace(HamiltonianSpec("hs", 4), 0)
    with pytest.raises(InputError):
        build(HamiltonianSpec("hs", 4), sector=enumerate_sector(6, 2, 0.0))


@pytest.mark.parametrize("kind,couplings", [
    ("hs", {"J2": 0.3}), ("hs", {"theta": 1.0}), ("parent", {"J1": 1.0}),
    ("j1j2", {"theta": 0.2}), ("qbq", {"J1": 1.0}), ("qbq", {"J2": 0.0}),
])
def test_spec_refuses_couplings_the_kind_does_not_take(kind, couplings):
    with pytest.raises(InputError):
        HamiltonianSpec(kind, 4, **couplings)
    # the defaults stand for every kind, so outputs that echo them stay put
    spec = HamiltonianSpec(kind, 4)
    assert (spec.J1, spec.J2, spec.theta) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("J1,J2", [
    (COUPLING_RANGE[0], 0.5 * COUPLING_RANGE[0]),
    (COUPLING_RANGE[1], 0.5 * COUPLING_RANGE[1]),
    (0.0, -COUPLING_RANGE[0]), (0.0, -COUPLING_RANGE[1]),
    (-COUPLING_RANGE[1], 0.0)])
def test_couplings_at_the_scale_window_edges_keep_the_ground_level(J1, J2):
    # at scale 1e5 the N = 12 Majumdar-Ghosh doublet came back as one state,
    # and at 1e-3 the 7-fold level of J2 < 0 sometimes failed to converge
    spec = HamiltonianSpec("j1j2", 12, J1=J1, J2=J2)
    scale = max(abs(J1), abs(J2))
    unit = HamiltonianSpec("j1j2", 12, J1=J1 / scale, J2=J2 / scale)
    e0, kept = ground_states(spec)
    e0_unit, kept_unit = ground_states(unit)
    assert len(kept) == len(kept_unit)
    assert e0 / scale == pytest.approx(e0_unit, abs=1e-12)
    if J1 == 2 * J2:
        assert len(kept) == 2


@pytest.mark.parametrize("J1,J2", [
    (0.99 * COUPLING_RANGE[0], 0.0), (0.0, -0.99 * COUPLING_RANGE[0]),
    (1.0, 1.01 * COUPLING_RANGE[1]), (-1e308, 0.5), (1e-10, 0.0)])
def test_couplings_outside_the_scale_window_are_refused(J1, J2):
    with pytest.raises(InputError, match="COUPLING_RANGE.*J2/J1"):
        HamiltonianSpec("j1j2", 8, J1=J1, J2=J2)


def test_zero_chain_stays_legal():
    h = build(HamiltonianSpec("j1j2", 4, J1=0.0, J2=0.0))
    assert not np.any(h.matrix.toarray())


def test_zero_chain_past_the_dense_limit_is_refused():
    # its one level spans the whole Sz = 0 sector (dim 924), more than a
    # Lanczos solve can return
    with pytest.raises(InputError, match="operator is zero.*924"):
        ground_states(HamiltonianSpec("j1j2", 12, J1=0.0, J2=0.0))


@pytest.mark.parametrize("kind,name", [
    ("j1j2", "J1"), ("j1j2", "J2"), ("qbq", "theta")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_refuses_non_finite_couplings(kind, name, value):
    # eigh would fail on the operator with a LinAlgError, which is no
    # idmps.Error, so a sweep could not record it and go on
    with pytest.raises(InputError, match=name):
        HamiltonianSpec(kind, 4, **{name: value})
