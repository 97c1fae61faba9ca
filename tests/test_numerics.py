"""Pfaffian, eigensolver, and scalar-minimizer kernels."""
import math
import warnings

import numpy as np
import pytest
import scipy.sparse

import idmps.numerics as numerics
from idmps.errors import InputError, NumericalError
from idmps.numerics import (
    AntisymMatrix, LinearOperator, eig_smallest, minimize_scalar, pfaffian,
    pfaffian_log,
)


def random_antisym(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - m.T


def pf_recursive(a):
    # expansion along the first row; oracle for small n
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    if n % 2:
        return 0j
    s = 0j
    for j in range(1, n):
        idx = [i for i in range(n) if i not in (0, j)]
        s += (-1) ** (j - 1) * a[0, j] * pf_recursive(a[np.ix_(idx, idx)])
    return s


# -------------------------------------------------------------------- pfaffian

def test_pfaffian_2x2():
    a = 1.7 - 0.3j
    assert pfaffian([[0, a], [-a, 0]]) == pytest.approx(a, rel=1e-14)


def test_pfaffian_4x4_combinatorial():
    rng = np.random.default_rng(0)
    a = random_antisym(4, rng)
    expect = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert pfaffian(a) == pytest.approx(expect, rel=1e-12)


def test_pfaffian_matches_recursive_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 4, 6, 8):
        a = random_antisym(n, rng)
        assert pfaffian(a) == pytest.approx(pf_recursive(a), rel=1e-10)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(2)
    for n in (2, 4, 6, 8, 10, 12):
        a = random_antisym(n, rng)
        pf2 = pfaffian(a) ** 2
        det = np.linalg.det(a)
        assert abs(pf2 - det) <= 1e-10 * abs(det)


def test_pfaffian_congruence_invariance():
    rng = np.random.default_rng(3)
    for n in (4, 6, 8):
        a = random_antisym(n, rng)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = pfaffian(b.T @ a @ b)
        rhs = np.linalg.det(b) * pfaffian(a)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_pfaffian_schur_update_stays_antisymmetric():
    # an update that is not exactly antisymmetric leaves a[k, k+1] = 0
    # opposite a pivot candidate a[k+1, k] ~ 1e-48 and divides by it
    v1, v2 = 3.76821684 + 3.69440283e-30j, 0.61954085
    a = np.zeros((6, 6), dtype=complex)
    a[0, 1] = a[1, 2] = -v1
    a[0, 2] = a[2, 4] = a[3, 5] = -v2
    a[0, 4] = v2
    a = a - a.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(pfaffian(a)) <= 1e-30


def test_real_matrix_eliminates_in_real_arithmetic():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    a = m - m.T
    assert AntisymMatrix(a).entries.dtype == float
    assert pfaffian(a) == pytest.approx(pf_recursive(a), rel=1e-12)
    assert AntisymMatrix(a + 0j).entries.dtype == complex


def test_pfaffian_odd_dimension_is_zero():
    rng = np.random.default_rng(4)
    a = random_antisym(3, rng)
    assert pfaffian_log(a).is_zero


def test_pfaffian_empty_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1


def test_pfaffian_log_handles_huge_scales():
    rng = np.random.default_rng(5)
    a = random_antisym(6, rng)
    big = pfaffian_log(a * 1e150)
    base = pfaffian_log(a)
    assert big.log == pytest.approx(base.log + 3 * math.log(1e150), rel=1e-12)


def test_antisym_validation():
    with pytest.raises(InputError):
        AntisymMatrix([[0, 1], [1, 0]])
    with pytest.raises(InputError):
        AntisymMatrix(np.ones((2, 3)))


# ---------------------------------------------------------------- eig_smallest

def test_eig_diag():
    pairs = eig_smallest(np.diag([0.0, 1.0]), k=1)
    lam, vec = pairs[0]
    assert lam == pytest.approx(0.0, abs=1e-14)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)


def test_eig_two_site_heisenberg():
    # S.S on two spins: singlet at -3/4
    h = np.array([[0.25, 0, 0, 0],
                  [0, -0.25, 0.5, 0],
                  [0, 0.5, -0.25, 0],
                  [0, 0, 0, 0.25]])
    lam, vec = eig_smallest(h, k=1)[0]
    assert lam == pytest.approx(-0.75, abs=1e-12)


def test_eig_orthonormal_and_sorted():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = m + m.conj().T
    pairs = eig_smallest(m, k=5)
    vals = [p[0] for p in pairs]
    assert vals == sorted(vals)
    vecs = np.column_stack([p[1] for p in pairs])
    gram = vecs.conj().T @ vecs
    assert np.abs(gram - np.eye(5)).max() < 1e-10


def test_eig_lanczos_agrees_with_dense(monkeypatch):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(300, 300))
    m = (m + m.T) / 2
    dense = eig_smallest(m, k=2)
    sparse = scipy.sparse.csr_matrix(m)
    # below DENSE_DIM_MAX a sparse operand is densified to the same matrix
    assert ([e for e, _ in eig_smallest(LinearOperator(sparse), k=2)]
            == [e for e, _ in dense])
    monkeypatch.setattr(numerics, "DENSE_DIM_MAX", 100)
    for operand in (m, sparse):
        lanczos = eig_smallest(LinearOperator(operand), k=2)
        for (a, _), (b, _) in zip(dense, lanczos):
            assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("dense_max", [4096, 10])
def test_eig_vectors_own_their_data(monkeypatch, dense_max):
    # a view would keep the whole n x n eigenvector matrix alive
    monkeypatch.setattr(numerics, "DENSE_DIM_MAX", dense_max)
    rng = np.random.default_rng(9)
    m = rng.normal(size=(40, 40))
    for _, vec in eig_smallest(m + m.T, k=3):
        assert vec.base is None


def test_eig_input_validation():
    m = np.eye(4)
    with pytest.raises(InputError):
        eig_smallest(m, k=0)
    with pytest.raises(InputError):
        eig_smallest(m, k=5)

    # the Hermiticity check: H = H^dagger within 1e-12 relative, dense or
    # sparse, before anything is densified
    rng = np.random.default_rng(8)
    a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    h = a + a.conj().T
    tilt = np.zeros((20, 20))
    tilt[0, 1] = 1e-9
    for operand in (a, h + tilt, 1j * h):
        with pytest.raises(InputError):
            eig_smallest(operand, k=1)
        with pytest.raises(InputError):
            eig_smallest(LinearOperator(scipy.sparse.csr_matrix(operand)),
                         k=1)
    # roundoff below the bound passes
    assert len(eig_smallest(h + 1e-3 * tilt, k=1)) == 1


# ------------------------------------------------------------- minimize_scalar

def test_minimize_parabola():
    x, fx = minimize_scalar(lambda x: (x - 2.0) ** 2, (0.0, 5.0), tol=1e-6)
    assert x == pytest.approx(2.0, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_minimize_cosine():
    x, _ = minimize_scalar(math.cos, (2.0, 4.0), tol=1e-8)
    assert x == pytest.approx(math.pi, abs=1e-6)


def test_minimize_edge_minimum():
    x, fx = minimize_scalar(lambda x: x, (0.5, 5.0), tol=1e-6)
    assert x == pytest.approx(0.5, abs=1e-12)
    assert fx == pytest.approx(0.5, abs=1e-12)


def test_minimize_nan_propagates():
    with pytest.raises(NumericalError):
        minimize_scalar(lambda x: math.nan, (0.0, 1.0))


def test_minimize_bad_bracket():
    with pytest.raises(InputError):
        minimize_scalar(lambda x: x, (1.0, 1.0))
