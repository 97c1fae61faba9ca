"""Configuration indexing, symmetry operators, fidelity, serialization."""
import math

import numpy as np
import pytest

from idmps.errors import InputError
from idmps.hilbert import (
    StateVector, all_configs, apply_site_unitary, config_rank,
    enumerate_sector, fidelity_per_site, fidelity_per_site_subspace,
    rank_config, total_spin_quantum, translate,
)


def basis_state(N, d, labels):
    amps = np.zeros(d ** N, dtype=complex)
    amps[config_rank(labels, d)] = 1.0
    return StateVector(N, d, amps, normalized=True)


def random_state(N, d, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d ** N) + 1j * rng.normal(size=d ** N)
    return StateVector(N, d, amps).normalize()


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
        assert np.array_equal(sec.configs(), cfgs[sec.ranks])


def test_bad_labels_and_dims():
    with pytest.raises(InputError):
        config_rank([1, 2], 2)
    with pytest.raises(InputError):
        config_rank([1, 1], 5)


# --------------------------------------------------------------------- sectors

def test_sector_counts():
    assert enumerate_sector(4, 2, 0).size == 6
    sec = enumerate_sector(2, 3, 2)
    assert sec.size == 1
    assert list(sec.configs()[0]) == [1, 1]
    assert enumerate_sector(2, 2, 2).size == 0


def test_sector_sizes_partition_space():
    for N, d, szs in ((4, 2, np.arange(-2, 3)), (3, 3, np.arange(-3, 4))):
        total = sum(enumerate_sector(N, d, s).size for s in szs)
        assert total == d ** N


def test_sector_ranks_ascending():
    ranks = enumerate_sector(5, 2, 0.5).ranks
    assert np.all(np.diff(ranks) > 0)


# ------------------------------------------------------------------- operators

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


def test_translate_commutes_with_uniform_unitary():
    v = random_state(4, 2, seed=4)
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    a = translate(apply_site_unitary(v, u))
    b = apply_site_unitary(translate(v), u)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-13)


def test_single_site_selection():
    v = basis_state(2, 2, [1, 1])
    x = np.array([[0, 1], [1, 0]])
    w = apply_site_unitary(v, x, sites=[1])
    assert w.amplitudes[config_rank([1, -1], 2)] == 1.0


# ------------------------------------------------------------------ total spin

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


def test_binary_rejects_garbage():
    with pytest.raises(InputError):
        StateVector.from_bytes(b"NOTME1" + b"\x00" * 20)
    v = random_state(2, 2, seed=8)
    with pytest.raises(InputError):
        StateVector.from_bytes(v.to_bytes()[:-8])


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
