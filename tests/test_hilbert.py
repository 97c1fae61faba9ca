"""Configuration indexing, symmetry operators, fidelity, serialization."""
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest

from idmps import blocks, experiments, hamiltonians, hilbert
from idmps.errors import InputError
from idmps.hilbert import (
    MAX_CONFIGS, NORM_TOL, QR_RANK_TOL, UNITARY_TOL,
    SectorIndex, StateVector,
    LABELS, Subspace, all_configs, apply_site_unitary, check_size,
    embed_sector, enumerate_sector, fidelity_per_site,
    fidelity_per_site_subspace, raise_total, rank_config, spin_ladder,
    spin_matrices, total_spin_quantum, total_sz_table, translate,
)


def config_rank(labels, d):
    """Rank of a configuration given as a sequence of local labels, site 1
    the most significant: an encoder that shares no code with
    hilbert.digits, so the tests can check the package's rank tables."""
    if d not in LABELS:
        raise InputError(f"local dimension must be 2 or 3, got {d}")
    rank = 0
    for s in labels:
        if s not in LABELS[d]:
            raise InputError(f"label {s!r} invalid for d={d}")
        rank = rank * d + LABELS[d].index(s)
    return rank


def basis_state(N, d, labels):
    amps = np.zeros(d ** N, dtype=complex)
    amps[config_rank(labels, d)] = 1.0
    return StateVector(N, d, amps, normalized=True)


def random_state(N, d, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d ** N) + 1j * rng.normal(size=d ** N)
    return StateVector(N, d, amps).normalize()


def three_axis_total_spin(v):
    """(S, Sz) from <S^2> = sum over Sx, Sy, Sz of |S_a v|^2, each total
    S_a applied site by site in complex arithmetic: the path that the real
    S^+ sweep of total_spin_quantum replaced."""
    v = v.normalize()
    t = v.tensor()
    s2 = 0.0
    for m in spin_matrices(v.d):
        tot = sum(np.moveaxis(np.tensordot(m, t, axes=(1, i)), 0, i)
                  for i in range(v.N))
        s2 += float(np.vdot(tot, tot).real)
    sz = float(np.vdot(t, tot).real)
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * s2)), sz


# -------------------------------------------------------------------- indexing

def test_rank_order_site_one_most_significant():
    # all-up is rank 0; flipping the last site adds 1; the first site d^(N-1)
    assert config_rank([1, 1, 1, 1], 2) == 0
    assert config_rank([1, 1, 1, -1], 2) == 1
    assert config_rank([-1, 1, 1, 1], 2) == 8
    assert config_rank([1, 0, -1], 3) == 0 * 9 + 1 * 3 + 2


def test_rank_config_round_trip():
    for N, d in ((4, 2), (3, 3)):
        for r in range(d ** N):
            assert config_rank(rank_config(r, N, d), d) == r


def test_all_configs_rows_are_ranks():
    # checked against config_rank, the encoder that shares no code with them
    for N, d in ((4, 2), (3, 3)):
        cfgs = all_configs(N, d)
        assert [config_rank(c, d) for c in cfgs] == list(range(d ** N))
        sec = enumerate_sector(N, d, 0)
        assert np.array_equal(rank_config(sec.ranks, N, d), cfgs[sec.ranks])


def test_digits_are_one_uint8_row_per_site():
    # the (N, rows) table is written site by site; digits hands back its
    # transpose, so ranks.shape + (N,) holds and .T is the table itself
    for N, d in ((1, 2), (5, 2), (4, 3), (20, 2), (12, 3)):
        ranks = np.unique(np.r_[0, d ** N - 1, np.arange(0, d ** N, 997)])
        got = hilbert.digits(ranks, N, d)
        want = ranks[:, None] // d ** np.arange(N - 1, -1, -1) % d
        assert got.dtype == np.uint8 and got.shape == (len(ranks), N)
        assert np.array_equal(got, want)
        assert got.T.flags.c_contiguous
    assert hilbert.digits(5, 3, 2).tolist() == [1, 0, 1]
    assert hilbert.digits(np.arange(6).reshape(2, 3), 3, 2).shape == (2, 3, 3)


def test_digits_hold_no_int64_table():
    # N uint8 digits per rank and two int64 temporaries of one site's
    # digits; the former form made two int64 tables of N per rank
    N, ranks = 16, np.arange(2 ** 16)
    tracemalloc.start()
    try:
        hilbert.digits(ranks, N, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (N + 24) * len(ranks)


def test_bad_labels_and_dims():
    with pytest.raises(InputError):
        config_rank([1, 2], 2)
    with pytest.raises(InputError):
        config_rank([1, 1], 5)
    with pytest.raises(InputError):
        rank_config(0, 2, 5)


# --------------------------------------------------------------------- sectors

def test_sector_counts():
    assert enumerate_sector(4, 2, 0).size == 6
    sec = enumerate_sector(2, 3, 2)
    assert sec.size == 1
    assert list(rank_config(sec.ranks[0], 2, 3)) == [1, 1]
    assert enumerate_sector(2, 2, 2).size == 0


def test_sector_refuses_a_non_integral_site_count():
    # 4.5 sites is refused, not truncated to 4
    for N in (4.5, 1, float("inf")):
        with pytest.raises(InputError, match="integer"):
            enumerate_sector(N, 2, 0)
    assert enumerate_sector(4.0, 2, 0) is enumerate_sector(4, 2, 0)


def test_sector_sizes_partition_space():
    for N, d, szs in ((4, 2, np.arange(-2, 3)), (3, 3, np.arange(-3, 4))):
        total = sum(enumerate_sector(N, d, s).size for s in szs)
        assert total == d ** N


def test_sector_ranks_ascending():
    ranks = enumerate_sector(5, 2, 0.5).ranks
    assert np.all(np.diff(ranks) > 0)


def test_sz_table_summed_by_site_matches_the_digit_table():
    for d in (2, 3):
        spins = np.array(hilbert.SPINS[d])
        for N in range(1, 13 if d == 2 else 11):
            want = spins[hilbert.digits(np.arange(d ** N), N, d)].sum(axis=1)
            got = total_sz_table(N, d)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_listed_sectors_match_a_filter_of_all_configs():
    for d, spin in ((2, 0.5), (3, 1.0)):
        for N in range(2, 11):
            cfgs = all_configs(N, d)
            totals = spin * cfgs.sum(axis=1)
            for Sz in np.arange(-spin * N, spin * N + 0.5):
                sec = enumerate_sector(N, d, Sz)
                ranks = np.nonzero(totals == Sz)[0]
                assert np.array_equal(sec.ranks, ranks)
                assert np.array_equal(rank_config(ranks, N, d), cfgs[ranks])


def test_equal_sector_keys_share_one_listing():
    sec = enumerate_sector(6, 2, 0.0)
    for key in ((6, 2, 0), (6, 2, np.float64(0)), (np.int64(6), 2.0, -0.0)):
        assert enumerate_sector(*key) is sec
    assert enumerate_sector(6, 2, 1.0) is not sec


def test_listed_sectors_are_read_only():
    sec = enumerate_sector(4, 3, 0.0)
    with pytest.raises(ValueError):
        sec.ranks[0] = 1


def test_a_sector_carries_only_its_ranks():
    # no label table rides along; callers decode ranks with rank_config
    sec = enumerate_sector(6, 2, 0.0)
    assert SectorIndex.__slots__ == ("N", "d", "Sz", "ranks")
    with pytest.raises(AttributeError):
        sec.labels = rank_config(sec.ranks, 6, 2)


def test_scan_lists_each_sector_once(monkeypatch):
    # every build of the scan shares one listing per (N, d, Sz)
    hilbert._listed_sector.cache_clear()
    tables, keys = [], set()
    real_table = hilbert.total_sz_table

    def counting_table(N, d):
        tables.append((N, d))
        return real_table(N, d)

    def recording(module):
        real = module.enumerate_sector

        def call(N, d, Sz):
            keys.add((int(N), int(d), float(Sz)))
            return real(N, d, Sz)

        monkeypatch.setattr(module, "enumerate_sector", call)

    monkeypatch.setattr(hilbert, "total_sz_table", counting_table)
    recording(blocks)
    recording(hamiltonians)
    experiments.scan_radius(blocks.BlockSpec("su2_1", 0, 10),
                            hamiltonians.HamiltonianSpec("j1j2", 10, J2=0.3),
                            R_grid=np.geomspace(0.05, 5.0, 4))
    assert keys == {(10, 2, 0.0)}
    assert len(tables) == len(keys)


# ------------------------------------------------------------------- operators

def test_sector_sz_must_be_a_multiple_of_one_half():
    # the Sz sums are exact, so a sector is matched exactly and an Sz off
    # the half-integers is refused rather than rounded to a neighbor
    for sz in (0.3, 1e-10, -0.5 + 1e-12, math.nan, math.inf):
        with pytest.raises(InputError, match="multiple of 1/2"):
            enumerate_sector(4, 2, sz)
    assert enumerate_sector(4, 2, -0.0) is enumerate_sector(4, 2, 0)
    assert enumerate_sector(4, 3, 0.5).size == 0
    assert enumerate_sector(5, 2, -1.5).size == 5


def test_translate_two_site():
    v = basis_state(2, 2, [1, -1])
    tv = translate(v)
    assert tv.amplitudes[config_rank([-1, 1], 2)] == 1.0
    assert tv.amplitudes[config_rank([1, -1], 2)] == 0.0


def test_translate_order_n_is_identity():
    v = random_state(5, 2, seed=1)
    w = v
    for _ in range(5):
        w = translate(w)
    assert np.allclose(w.amplitudes, v.amplitudes, atol=1e-14)


def test_translate_unitary():
    v = random_state(4, 3, seed=2)
    assert translate(v).norm() == pytest.approx(1.0, abs=1e-12)


def test_apply_site_unitary_identity_and_inverse():
    v = random_state(4, 2, seed=3)
    assert np.allclose(apply_site_unitary(v, np.eye(2)).amplitudes,
                       v.amplitudes)
    u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    w = apply_site_unitary(apply_site_unitary(v, u), u.conj().T)
    assert np.allclose(w.amplitudes, v.amplitudes, atol=1e-13)


def test_apply_site_unitary_rejects_non_unitary():
    v = random_state(2, 2)
    with pytest.raises(InputError):
        apply_site_unitary(v, np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1, 2.5e9])
def test_unit_checks_print_their_tolerances(monkeypatch, scale):
    # the refusals state NORM_TOL and UNITARY_TOL, whatever their values
    norm_tol, unitary_tol = NORM_TOL * scale, UNITARY_TOL * scale
    monkeypatch.setattr(hilbert, "NORM_TOL", norm_tol)
    monkeypatch.setattr(hilbert, "UNITARY_TOL", unitary_tol)
    with pytest.raises(InputError, match=f"not within {norm_tol:g} of 1"):
        StateVector(1, 2, [1.0, 1.0], normalized=True)
    with pytest.raises(InputError, match=f"unitary within {unitary_tol:g}$"):
        apply_site_unitary(random_state(2, 2),
                           np.array([[1.0, 0.1], [0.0, 1.0]]))
    # inside each tolerance nothing is refused
    StateVector(1, 2, [1.0 + 0.5 * norm_tol, 0.0], normalized=True)
    apply_site_unitary(random_state(2, 2),
                       np.diag([1.0 + 0.2 * unitary_tol, 1.0]))


def test_translate_commutes_with_uniform_unitary():
    v = random_state(4, 2, seed=4)
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    a = translate(apply_site_unitary(v, u))
    b = apply_site_unitary(translate(v), u)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-13)


# ------------------------------------------------------------------ total spin

@pytest.mark.parametrize("d", [2, 3])
def test_spin_ladder_is_sx_plus_i_sy_bit_for_bit(d):
    sx, sy, sz = spin_matrices(d)
    sp, sz_real = spin_ladder(d)
    assert sp.dtype == sz_real.dtype == np.float64
    assert np.array_equal(sp, sx + 1j * sy)
    assert np.array_equal(sz_real, sz)
    if d == 3:
        assert sp[0, 1] == sp[1, 2] == 2 / math.sqrt(2) != math.sqrt(2)


@pytest.mark.parametrize("N,d", [(1, 2), (4, 2), (3, 3)])
def test_raise_total_matches_kronecker_sum(N, d):
    sp, _ = spin_ladder(d)
    full = sum(np.kron(np.kron(np.eye(d ** i), sp), np.eye(d ** (N - i - 1)))
               for i in range(N))
    rng = np.random.default_rng(N + d)
    # a trailing axis of two columns rides along
    cols = rng.normal(size=(d ** N, 2)) + 1j * rng.normal(size=(d ** N, 2))
    got = raise_total(cols.reshape((d,) * N + (2,)), d, N)
    assert np.allclose(got.reshape(-1, 2), full @ cols, rtol=0, atol=1e-14)


def test_total_spin_matches_the_three_axis_formula():
    seed = 0
    for d, sizes in ((2, range(2, 7)), (3, range(2, 5))):
        for N in sizes:
            for _ in range(3):
                seed += 1
                v = random_state(N, d, seed=seed)
                got = total_spin_quantum(v)
                want = three_axis_total_spin(v)
                assert np.allclose(got, want, rtol=0, atol=1e-12), (N, d)


def test_total_spin_singlet():
    amps = np.zeros(4, dtype=complex)
    amps[config_rank([1, -1], 2)] = 1 / math.sqrt(2)
    amps[config_rank([-1, 1], 2)] = -1 / math.sqrt(2)
    s, sz = total_spin_quantum(StateVector(2, 2, amps))
    assert s == pytest.approx(0.0, abs=1e-12)
    assert sz == pytest.approx(0.0, abs=1e-12)


def test_total_spin_aligned():
    s, sz = total_spin_quantum(basis_state(2, 2, [1, 1]))
    assert s == pytest.approx(1.0, abs=1e-12)
    assert sz == pytest.approx(1.0, abs=1e-12)


def test_total_spin_d3_aligned():
    s, sz = total_spin_quantum(basis_state(2, 3, [1, 1]))
    assert s == pytest.approx(2.0, abs=1e-12)
    assert sz == pytest.approx(2.0, abs=1e-12)


# -------------------------------------------------------------------- fidelity

# |helper - numpy| bound, in units of eps times the norm (a norm) or of
# eps |x| |y| (an inner product): einsum and BLAS sum the same 2n products
# in different orders, and at these lengths (n <= 1000) 9,000 random draws
# per length came out at most 6.1 eps apart for a norm and 1.4 eps for an
# inner product
HELPER_EPS = 8


def test_norm_and_inner_match_numpy_within_a_few_ulps():
    eps = np.finfo(float).eps
    for n in (1, 5, 100, 1000):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            re = rng.normal(size=(2, n))
            im = rng.normal(size=(2, n))
            for x, y in ((re[0] + 1j * im[0], re[1] + 1j * im[1]),
                         (re[0], re[1]),
                         (re[0] + 0j, re[1] + 0j)):
                nx = np.linalg.norm(x)
                assert abs(hilbert.norm(x) - nx) <= HELPER_EPS * eps * nx
                gap = abs(hilbert.inner(x, y) - np.vdot(x, y))
                assert gap <= HELPER_EPS * eps * nx * np.linalg.norm(y)
    x = np.random.default_rng(0).normal(size=7) + 0j
    assert hilbert.inner(x, 2 * x).imag == 0
    zero = np.zeros(9, dtype=complex)
    assert hilbert.norm(zero) == 0 and hilbert.norm(zero.real) == 0
    assert hilbert.inner(zero, np.ones(9, dtype=complex)) == 0
    assert isinstance(hilbert.norm(zero), float)
    assert isinstance(hilbert.inner(zero.real, zero.real), complex)


def test_inner_conjugates_its_first_argument():
    x = np.array([1j, 2.0])
    y = np.array([1.0, 1j])
    assert hilbert.inner(x, y) == np.vdot(x, y) == -1j + 2j
    # a real vector against a complex one
    assert hilbert.inner(np.array([1.0, 2.0]), y) == 1 + 2j
    assert hilbert.inner(y, np.array([1.0, 2.0])) == 1 - 2j
    with pytest.raises(InputError):
        hilbert.inner(np.ones(3), np.ones(4))


def test_fidelity_self_and_orthogonal():
    v = random_state(4, 2, seed=5)
    assert fidelity_per_site(v, v) == pytest.approx(1.0, abs=1e-12)
    a = basis_state(2, 2, [1, -1])
    b = basis_state(2, 2, [-1, 1])
    assert fidelity_per_site(a, b) == 0.0


def test_fidelity_scaling_convention():
    # overlap 0.5 on N=4 sites: F = 0.5^(2/4)
    a = basis_state(2, 2, [1, -1])
    amps = np.zeros(4, dtype=complex)
    amps[config_rank([1, -1], 2)] = 0.5
    amps[config_rank([-1, 1], 2)] = math.sqrt(0.75)
    b = StateVector(2, 2, amps)
    assert fidelity_per_site(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_subspace():
    a = basis_state(2, 2, [1, -1])
    b = basis_state(2, 2, [-1, 1])
    mix = StateVector(2, 2, (a.amplitudes + b.amplitudes) / math.sqrt(2))
    # mix lies in span{a, b}: projector fidelity is 1
    assert fidelity_per_site_subspace(mix, [a, b]) == pytest.approx(1.0)
    # against the orthogonal complement direction it drops to (1/2)^(2/N)
    assert fidelity_per_site_subspace(mix, [a]) == pytest.approx(
        0.5 ** 0.5, abs=1e-12)


def test_fidelity_subspace_rank_cut():
    # a basis vector adds the direction b only when its QR diagonal,
    # eps here, exceeds QR_RANK_TOL times the largest (1)
    a = basis_state(2, 2, [1, 1])
    b = basis_state(2, 2, [1, -1])
    for eps, want in ((0.5 * QR_RANK_TOL, 0.0), (2 * QR_RANK_TOL, 1.0)):
        tilted = StateVector(2, 2, a.amplitudes + eps * b.amplitudes)
        assert fidelity_per_site_subspace(b, [a, tilted]) == \
            pytest.approx(want, abs=1e-12)


def _qr_fidelity(a, basis):
    # the inline QR that Subspace replaced, kept as the reference; its
    # overlaps are one einsum of the rows of q^dagger, as a Subspace takes
    # them (past 8192 entries a row of a 2-D einsum no longer sums as the
    # 1-D einsum of that row does), and its norm is the helper's
    na = a.norm()
    cols = np.column_stack([b.amplitudes for b in basis])
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diag(r)) > QR_RANK_TOL * np.abs(np.diag(r)).max()
    qh = np.ascontiguousarray(q[:, keep].T.conj())
    w = np.einsum("ij,j->i", qh, a.amplitudes)
    # divide the parts (numpy's complex division by na multiplies by 1/na)
    return hilbert.norm(w.view(float) / na) ** (2.0 / a.N)


def test_subspace_fidelity_matches_inline_qr_bit_for_bit():
    # the tilted sets of the rank-cut test: rank 1 below the cut, 2 above
    a, b = basis_state(2, 2, [1, 1]), basis_state(2, 2, [1, -1])
    cases = [([a, StateVector(2, 2, a.amplitudes + eps * b.amplitudes)],
              rank, [b, random_state(2, 2, seed=1)])
             for eps, rank in ((0.5 * QR_RANK_TOL, 1), (2 * QR_RANK_TOL, 2))]
    cases.append(([random_state(6, 2, seed=s) for s in range(3)], 3,
                  [random_state(6, 2, seed=s) for s in range(3, 8)]))
    # the Majumdar-Ghosh ground pair against block states, as a scan has it
    _, ground = hamiltonians.ground_states(
        hamiltonians.HamiltonianSpec("j1j2", 8, J2=0.5))
    cases.append((ground, 2, [experiments.block_state_spin_basis(
        blocks.BlockSpec("su2_1", 0, 8), R) for R in (0.05, 0.5, 5.0)]))
    for basis, rank, states in cases:
        space = Subspace(basis)
        assert space.qh.shape == (rank, 2 ** basis[0].N)
        for v in states:
            want = _qr_fidelity(v, basis)
            assert fidelity_per_site_subspace(v, space) == want
            assert fidelity_per_site_subspace(v, basis) == want


def test_subspace_validation():
    a = random_state(2, 2)
    with pytest.raises(InputError):
        Subspace([])
    with pytest.raises(InputError):
        Subspace([a, random_state(3, 2)])
    with pytest.raises(InputError):
        fidelity_per_site_subspace(random_state(3, 2), Subspace([a]))
    with pytest.raises(ValueError):
        Subspace([a]).qh[0, 0] = 1.0
    space = Subspace([a])
    assert space.qh.flags.c_contiguous and space.qh.dtype == complex


def test_subspace_asks_for_a_list_of_states():
    # a lone StateVector is not iterable, and a list of other things has
    # no amplitudes: both are InputErrors, not a TypeError or an
    # AttributeError from inside the QR
    a = random_state(2, 2)
    cases = [(a, "one StateVector; pass \\[state\\]"), (3, "int"),
             ([1.0, a], "a list holding float"),
             (np.ones(4), "a list holding float64"),
             ([a, "a"], "a list holding str")]
    for basis, got in cases:
        for call in (lambda: Subspace(basis),
                     lambda: fidelity_per_site_subspace(a, basis)):
            with pytest.raises(InputError,
                               match="a target subspace is a list of "
                                     f"StateVector, got {got}"):
                call()
    # any iterable of states still spans a subspace
    assert Subspace(iter([a])).qh.shape == (1, 4)
    assert Subspace((a,)).qh.shape == (1, 4)


def test_subspace_of_zero_states_names_the_rank_cut():
    zero = StateVector(2, 2, np.zeros(4))
    a = random_state(2, 2)
    for call in (lambda: Subspace([zero]),
                 lambda: Subspace([zero, zero]),
                 lambda: fidelity_per_site_subspace(a, [zero]),
                 lambda: fidelity_per_site(a, zero)):
        with pytest.raises(InputError, match="QR_RANK_TOL"):
            call()


def test_fidelity_zero_state_rejected():
    v = StateVector(2, 2, np.zeros(4))
    w = random_state(2, 2)
    with pytest.raises(InputError):
        fidelity_per_site(v, w)


# --------------------------------------------------------------- serialization

def test_json_round_trip():
    v = random_state(3, 2, seed=6)
    w = StateVector.from_json(v.to_json())
    assert (w.N, w.d, w.normalized) == (3, 2, True)
    assert np.allclose(w.amplitudes, v.amplitudes, atol=0)


def test_binary_round_trip():
    v = random_state(2, 3, seed=7)
    blob = v.to_bytes()
    assert blob[:6] == b"IDMPS1"
    w = StateVector.from_bytes(blob)
    assert (w.N, w.d, w.normalized) == (2, 3, True)
    assert np.array_equal(w.amplitudes, v.amplitudes)
    # the body is (re, im) little-endian doubles, signed zeros kept both ways
    amps = np.array([complex(0.0, -0.0), complex(-0.0, 1.0), 0.5,
                     complex(0.0, -2.0)])
    v = StateVector(2, 2, amps)
    pairs = np.array([0.0, -0.0, -0.0, 1.0, 0.5, 0.0, 0.0, -2.0])
    assert v.to_bytes()[12:] == pairs.astype("<f8").tobytes()
    assert StateVector.from_bytes(v.to_bytes()).to_bytes() == v.to_bytes()


def test_binary_rejects_garbage():
    with pytest.raises(InputError):
        StateVector.from_bytes(b"NOTME1" + b"\x00" * 20)
    v = random_state(2, 2, seed=8)
    with pytest.raises(InputError):
        StateVector.from_bytes(v.to_bytes()[:-8])


def test_binary_header_checked_before_allocation():
    # a 6-byte blob and a header claiming N = 2^32 - 1 (with d = 2 and d = 7)
    # fail fast with InputError; the header is never trusted to size d^N
    blobs = [b"IDMPS1",
             b"IDMPS1" + struct.pack("<BBI", 2, 1, 2 ** 32 - 1),
             b"IDMPS1" + struct.pack("<BBI", 2, 1, 2 ** 32 - 1) + b"\x00" * 16,
             b"IDMPS1" + struct.pack("<BBI", 7, 1, 1) + b"\x00" * 112]
    for blob in blobs:
        t0 = time.perf_counter()
        with pytest.raises(InputError):
            StateVector.from_bytes(blob)
        assert time.perf_counter() - t0 < 0.1


def test_size_limit_is_checked_before_allocation():
    assert check_size(20, 2) == MAX_CONFIGS == 2 ** 20
    assert check_size(12, 3) == 3 ** 12
    calls = [lambda N, d: check_size(N, d),
             lambda N, d: StateVector(N, d, np.zeros(1)),
             lambda N, d: all_configs(N, d),
             lambda N, d: total_sz_table(N, d),
             lambda N, d: enumerate_sector(N, d, 0.0),
             lambda N, d: embed_sector(np.ones(1), SectorIndex(N, d, 0, [0])),
             lambda N, d: hamiltonians.build(
                 hamiltonians.HamiltonianSpec("qbq" if d == 3 else "hs", N))]
    for N, d in ((21, 2), (13, 3), (40, 2), (40, 3), (10 ** 9, 2)):
        for call in calls:
            t0 = time.perf_counter()
            with pytest.raises(InputError, match=str(MAX_CONFIGS)):
                call(N, d)
            assert time.perf_counter() - t0 < 0.1


def test_state_vector_validation():
    with pytest.raises(InputError):
        StateVector(2, 2, np.zeros(3))
    with pytest.raises(InputError):
        StateVector(2, 2, np.array([np.nan, 0, 0, 0]))
    with pytest.raises(InputError):
        StateVector(2, 2, np.ones(4), normalized=True)


def test_amplitudes_immutable():
    v = random_state(2, 2, seed=9)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 1.0
