"""CVO tensors, trace MPS, dimer/MG/AKLT reference states."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from idmps.errors import ConsistencyError, InputError
from idmps.hilbert import (StateVector, apply_site_unitary, spin_matrices,
                           total_spin_quantum, translate)
from idmps.refstates import (U_CIRC_TO_SPIN, aklt_state, cvo_tensor,
                             dimer_state, flavor_pair, mg_combination,
                             mps_trace_state, singlet_pair,
                             spin1_dimer_combinations)
from test_hilbert import config_rank

# Reference: the case-by-case tensor catalogue, Pauli table, dimer product and
# D0 +- D1 bodies that the fusion-rule construction replaced; the outputs
# below must agree with them bit for bit.
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def catalogue_tensor(model, left, phys, right):
    labels = []
    for x in (left, phys, right):
        v = float(x)
        if v not in (0.0, 0.5, 1.0):
            raise InputError(f"module label must be 0, 1/2 or 1, got {x!r}")
        labels.append(v)
    triple = tuple(labels)
    if model == "su2_1":
        if triple == (0.5, 0.5, 0.0):
            a = np.zeros((2, 2, 1), dtype=complex)
            a[0, 0, 0] = 1.0
            a[1, 1, 0] = 1.0
            return a
        if triple == (0.0, 0.5, 0.5):
            a = np.zeros((2, 1, 2), dtype=complex)
            a[0, 0, 1] = 1.0
            a[1, 0, 0] = -1.0
            return a
    elif model == "su2_2":
        if triple == (1.0, 1.0, 0.0):
            a = np.zeros((3, 3, 1), dtype=complex)
            for i in range(3):
                a[i, i, 0] = 1.0
            return a
        if triple == (0.0, 1.0, 1.0):
            a = np.zeros((3, 1, 3), dtype=complex)
            a[0, 0, 2] = 1.0
            a[1, 0, 1] = -1.0
            a[2, 0, 0] = 1.0
            return a
        if triple == (0.5, 1.0, 0.5):
            r2 = 1 / math.sqrt(2)
            a = np.zeros((3, 2, 2), dtype=complex)
            a[0] = [[0, -1], [0, 0]]
            a[1] = [[r2, 0], [0, -r2]]
            a[2] = [[0, 0], [1, 0]]
            return a
    else:
        raise InputError(f"model must be 'su2_1' or 'su2_2', got {model!r}")
    raise InputError(f"fusion triple {triple} is not allowed for {model}")


def product_dimer(N, offset, pair_state):
    d = pair_state.d
    pair = np.asarray(pair_state.amplitudes, dtype=complex).reshape(d, d)
    t = pair
    for _ in range(N // 2 - 1):
        t = np.multiply.outer(t, pair)
    v = StateVector(N, d, t.reshape(-1)).normalize()
    return translate(v) if offset else v


def reference_combination(N, sign, pair_state):
    s = 1.0 if sign == 1 else -1.0
    d0 = product_dimer(N, 0, pair_state)
    d1 = product_dimer(N, 1, pair_state)
    return StateVector(N, pair_state.d,
                       d0.amplitudes + s * d1.amplitudes).normalize()


def reference_aklt(N, basis):
    v = mps_trace_state([np.stack([PAULI["x"], PAULI["y"], PAULI["z"]])], N)
    return v if basis == "circular" else apply_site_unitary(v, U_CIRC_TO_SPIN)


def outcome(make, *args):
    """The bytes (and shape) a call returns, or the InputError it raises."""
    try:
        out = make(*args)
    except InputError:
        return InputError
    a = out.amplitudes if isinstance(out, StateVector) else out
    return a.dtype, a.shape, a.tobytes()


def collinearity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes)) / (a.norm() * b.norm())


# ------------------------------------------------- equivalence with reference

@pytest.mark.parametrize("model", ["su2_1", "su2_2", "su3_1"])
def test_cvo_tensors_match_the_catalogue_bit_for_bit(model):
    for triple in itertools.product((0, 0.5, 1), repeat=3):
        ref = outcome(catalogue_tensor, model, *triple)
        assert outcome(cvo_tensor, model, *triple) == ref, triple


def test_sigma_from_spin_matrices_matches_the_pauli_table():
    # the doubling aklt_state uses keeps every signed zero of the table
    s = np.stack(spin_matrices(2))
    ref = np.stack([PAULI["x"], PAULI["y"], PAULI["z"]])
    assert (s + s).tobytes() == ref.tobytes()


@pytest.mark.parametrize("basis", ["standard", "circular"])
def test_aklt_matches_the_pauli_table_bit_for_bit(basis):
    for N in range(2, 7):
        assert (outcome(aklt_state, N, basis)
                == outcome(reference_aklt, N, basis)), N


@pytest.mark.parametrize("make,pair", [(mg_combination, singlet_pair),
                                       (spin1_dimer_combinations,
                                        flavor_pair)],
                         ids=["mg", "spin1"])
def test_dimer_combinations_match_the_reference_bit_for_bit(make, pair):
    for N, sign in itertools.product(range(2, 9), (1, -1)):
        if N % 2:
            ref = InputError
        else:
            ref = outcome(reference_combination, N, sign, pair())
        assert outcome(make, N, sign) == ref, (N, sign)


def test_dimer_states_match_the_product_bit_for_bit():
    for N, offset in itertools.product((2, 4, 6, 8), (0, 1)):
        assert (outcome(dimer_state, N, offset)
                == outcome(product_dimer, N, offset, singlet_pair()))
        assert (outcome(dimer_state, N, offset, flavor_pair())
                == outcome(product_dimer, N, offset, flavor_pair()))


# ----------------------------------------------------------------- cvo tensors

def test_u_is_unitary():
    assert np.abs(U_CIRC_TO_SPIN.conj().T @ U_CIRC_TO_SPIN
                  - np.eye(3)).max() < 1e-15


def test_identity_type_tensors_are_deltas():
    t = cvo_tensor("su2_1", 0.5, 0.5, 0)
    assert t.shape == (2, 2, 1)
    assert np.array_equal(t[:, :, 0], np.eye(2))
    t3 = cvo_tensor("su2_2", 1, 1, 0)
    assert np.array_equal(t3[:, :, 0], np.eye(3))


def test_singlet_type_tensor_signs():
    t = cvo_tensor("su2_1", 0, 0.5, 0.5)
    # pairing with the identity tensor gives the singlet +|+-> -|-+>
    assert t[0, 0, 1] == 1.0
    assert t[1, 0, 0] == -1.0
    t3 = cvo_tensor("su2_2", 0, 1, 1)
    assert (t3[0, 0, 2], t3[1, 0, 1], t3[2, 0, 0]) == (1.0, -1.0, 1.0)


def test_bond_half_tensor_entries():
    t = cvo_tensor("su2_2", 0.5, 1, 0.5)
    r2 = 1 / math.sqrt(2)
    assert np.array_equal(t[0], [[0, -1], [0, 0]])
    assert np.allclose(t[1], [[r2, 0], [0, -r2]])
    assert np.array_equal(t[2], [[0, 0], [1, 0]])


def test_bond_half_tensor_is_rotated_pauli():
    # undoing the u-rotation on the physical leg lands on A^a = sigma_a
    t = cvo_tensor("su2_2", 0.5, 1, 0.5)
    circ = np.einsum("am,mij->aij", U_CIRC_TO_SPIN.conj().T, t)
    sigma = np.stack([PAULI["x"], PAULI["y"], PAULI["z"]])
    ratios = circ.reshape(3, 4) @ np.linalg.pinv(sigma.reshape(3, 4))
    # circ must equal c * sigma for a single complex c
    assert np.abs(ratios - ratios[0, 0] * np.eye(3)).max() < 1e-12
    assert abs(ratios[0, 0]) > 0.1


def test_forbidden_triples():
    with pytest.raises(InputError):
        cvo_tensor("su2_1", 0, 1, 1)
    with pytest.raises(InputError):
        cvo_tensor("su2_2", 1, 1, 1)
    with pytest.raises(InputError):
        cvo_tensor("su3_1", 0, 1, 1)
    with pytest.raises(InputError):
        cvo_tensor("su2_1", 0.25, 0.5, 0.5)


# ------------------------------------------------------------------- trace MPS

def test_pauli_trace_two_sites():
    v = mps_trace_state([np.stack([PAULI[k] for k in "xyz"])], 2)
    # tr(sigma_a sigma_b) = 2 delta_ab
    t = v.tensor()
    off = t - np.diag(np.diag(t))
    assert np.abs(off).max() < 1e-15
    assert np.allclose(np.diag(t), np.diag(t)[0])


def test_pauli_trace_three_sites_epsilon():
    v = mps_trace_state([np.stack([PAULI[k] for k in "xyz"])], 3)
    t = v.tensor() / v.tensor()[0, 1, 2]  # scale so eps_xyz = 1
    assert t[1, 2, 0] == pytest.approx(1.0)
    assert t[1, 0, 2] == pytest.approx(-1.0)
    assert abs(t[0, 0, 1]) < 1e-14
    assert abs(t[0, 0, 0]) < 1e-14


def test_alternating_path_is_dimer_covering():
    alt = [cvo_tensor("su2_1", 0, 0.5, 0.5), cvo_tensor("su2_1", 0.5, 0.5, 0)]
    for N in (4, 6):
        tr = mps_trace_state(alt, N)
        assert collinearity(tr, dimer_state(N, 0)) > 1 - 1e-12


def test_constant_half_path_is_aklt():
    cell = [cvo_tensor("su2_2", 0.5, 1, 0.5)]
    for N in (4, 6):
        tr = mps_trace_state(cell, N)
        assert collinearity(tr, aklt_state(N, basis="standard")) > 1 - 1e-12


def test_trace_mps_validation():
    a = np.zeros((2, 2, 3))
    with pytest.raises(InputError):
        mps_trace_state([a], 4)  # bonds do not close
    good = np.random.default_rng(0).normal(size=(2, 2, 2))
    with pytest.raises(InputError):
        mps_trace_state([good, good], 5)  # N not a multiple of the cell
    with pytest.raises(ConsistencyError):
        mps_trace_state([np.zeros((2, 2, 2))], 4)
    with pytest.raises(InputError, match=r"must be \(d, Dl, Dr\)"):
        mps_trace_state([np.eye(2)], 4)
    bad = good.copy()
    bad[1, 0, 1] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        mps_trace_state([good, bad], 4)


# ---------------------------------------------------------------- dimer states

def test_dimer_two_sites_is_the_pair():
    v = dimer_state(2, 0)
    assert np.allclose(v.amplitudes, singlet_pair().amplitudes)


def test_dimer_amplitude_value():
    v = dimer_state(4, 0)
    assert v.amplitudes[config_rank([1, -1, 1, -1], 2)] == pytest.approx(0.5)
    # norm 1: product of normalized pairs
    assert v.norm() == pytest.approx(1.0, abs=1e-14)


def test_dimer_offset_is_translation():
    d0 = dimer_state(6, 0)
    d1 = dimer_state(6, 1)
    assert np.allclose(translate(d0).amplitudes, d1.amplitudes)


def test_dimer_overlap_halves_per_pair():
    # |<D0|D1>| = 2 (1/2)^(N/2)
    for N in (4, 6, 8):
        d0, d1 = dimer_state(N, 0), dimer_state(N, 1)
        assert abs(d0.overlap(d1)) == pytest.approx(2 * 0.5 ** (N // 2),
                                                    abs=1e-13)


def test_dimer_validation():
    with pytest.raises(InputError):
        dimer_state(3, 0)
    with pytest.raises(InputError):
        dimer_state(4, 2)
    # the pair is a 2-site StateVector, not a raw amplitude list
    with pytest.raises(InputError, match="2-site StateVector"):
        dimer_state(4, 0, np.ones(4))


@pytest.mark.parametrize("make", [lambda: aklt_state(13),
                                  lambda: mg_combination(22, +1)],
                         ids=["aklt-13", "mg-22"])
def test_oversized_references_refuse_before_allocating(make):
    # 3^13 and 2^22 configurations exceed MAX_CONFIGS; the trace and the
    # dimer product would first allocate about 100 MB and 64 MB
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MAX_CONFIGS"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ------------------------------------------------------------- MG combinations

def test_mg_translation_eigenstates():
    for N in (4, 6, 8):
        for sign in (+1, -1):
            v = mg_combination(N, sign)
            tv = translate(v)
            lam = np.vdot(v.amplitudes, tv.amplitudes)
            assert lam.real == pytest.approx(sign, abs=1e-12)
            assert np.linalg.norm(tv.amplitudes
                                  - lam * v.amplitudes) < 1e-12


def test_mg_combinations_orthogonal():
    for N in (4, 8):
        p = mg_combination(N, +1)
        m = mg_combination(N, -1)
        assert abs(p.overlap(m)) < 1e-13


def test_mg_singlets():
    for sign in (+1, -1):
        s, sz = total_spin_quantum(mg_combination(6, sign))
        assert s == pytest.approx(0.0, abs=1e-10)
        assert sz == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("sign", ["+", "-", "+1", 0, 2])
def test_combination_sign_is_plus_or_minus_one(sign):
    with pytest.raises(InputError, match="sign"):
        mg_combination(6, sign)
    with pytest.raises(InputError, match="sign"):
        spin1_dimer_combinations(4, sign)


def test_mg_plus_vanishes_at_two_sites():
    # N=2: the wrapped covering is minus the straight one
    with pytest.raises(InputError):
        mg_combination(2, +1)
    v = mg_combination(2, -1)
    assert collinearity(v, dimer_state(2, 0)) > 1 - 1e-14


# ----------------------------------------------------------------- AKLT states

def test_aklt_standard_is_rotated_circular():
    for N in (4, 6):
        circ = aklt_state(N, basis="circular")
        std = aklt_state(N, basis="standard")
        assert np.allclose(apply_site_unitary(circ, U_CIRC_TO_SPIN).amplitudes,
                           std.amplitudes)


def test_aklt_singlet():
    for N in (4, 6):
        s, sz = total_spin_quantum(aklt_state(N, basis="standard"))
        assert s == pytest.approx(0.0, abs=1e-10)
        assert sz == pytest.approx(0.0, abs=1e-12)


def test_aklt_bad_basis():
    with pytest.raises(InputError):
        aklt_state(4, basis="chiral")


# -------------------------------------------------------- spin-1 dimer states

def test_spin1_dimer_two_sites():
    v = spin1_dimer_combinations(2, +1)
    assert collinearity(v, dimer_state(2, 0, flavor_pair())) > 1 - 1e-14


def test_spin1_pair_maps_to_singlet_under_u():
    pair = dimer_state(2, 0, flavor_pair())
    rot = apply_site_unitary(pair, U_CIRC_TO_SPIN)
    s, sz = total_spin_quantum(rot)
    assert s == pytest.approx(0.0, abs=1e-12)
    assert sz == pytest.approx(0.0, abs=1e-12)


def test_spin1_dimer_combinations_orthogonal():
    p = spin1_dimer_combinations(6, +1)
    m = spin1_dimer_combinations(6, -1)
    assert abs(p.overlap(m)) < 1e-13
