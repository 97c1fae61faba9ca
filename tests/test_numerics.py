"""Pfaffian, eigensolver, and scalar-minimizer kernels."""
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import idmps.numerics as numerics
from idmps import experiments, hamiltonians
from idmps.blocks import BlockSpec
from idmps.errors import InputError, NumericalError
from idmps.hamiltonians import HamiltonianSpec
from idmps.hilbert import enumerate_sector
from idmps.logcomplex import LogComplex
from idmps.numerics import (
    SYMMETRY_TOL, LinearOperator, eig_smallest, minimize_scalar, pfaffian,
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


# a permutation of n sites and one sign per site, n in 0..12
SIGNED_PERMUTATIONS = st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)))
# The covariance identity is exact, but the permuted matrix is eliminated in
# another pivot order, and a backward-stable elimination leaves a rounding
# of order n eps cond(A) in log Pf. The bound on the two results' gap is
# that, floored at 1e-12, and draws for which it would exceed this cap are
# refused (about 1 in 20,000), so an error of 1e-9 always fails.
PF_COVARIANCE_CAP = 3e-10


def _signed_permutation_pair(signed, seed, real):
    """(Pf A, Pf (PD) A (PD)^T, arg(det P det D), bound on their log and
    phase gaps) for a random antisymmetric A of the draw's size."""
    perm, signs = signed
    n = len(perm)
    a = random_antisym(n, np.random.default_rng(seed))
    if real:
        a = a.real
    pd = np.eye(n)[list(perm)] * signs
    det_p = round(np.linalg.det(np.eye(n)[list(perm)])) if n else 1
    flip = math.pi if det_p * np.prod(signs) < 0 else 0.0
    cond = np.linalg.cond(a) if n % 2 == 0 and n else 1.0
    tol = max(1e-12, n * np.finfo(float).eps * cond)
    return pfaffian_log(a), pfaffian_log(pd @ a @ pd.T), flip, tol


def _covariance_gaps(want, got, flip):
    return (abs(got.log - want.log),
            abs(math.remainder(got.arg - want.arg - flip, 2 * math.pi)))


@settings(max_examples=200, deadline=None)
@given(SIGNED_PERMUTATIONS, st.integers(0, 2 ** 32 - 1), st.booleans())
# condition number 1.4e5: the two eliminations round 1.5e-12 apart
@example(([0, 1, 2, 3, 6, 5, 4, 7], [-1] * 8), 36870, True)
def test_pfaffian_signed_permutation_covariance(signed, seed, real):
    # Pf((PD) A (PD)^T) = det P det D Pf A, on which the su2_2 builder's one
    # Pfaffian per dihedral orbit of flavor subsets rests
    want, got, flip, tol = _signed_permutation_pair(signed, seed, real)
    if len(signed[0]) % 2:
        assert got.is_zero and want.is_zero
        return
    assume(tol <= PF_COVARIANCE_CAP)
    assert max(_covariance_gaps(want, got, flip)) <= tol


def test_pfaffian_covariance_bound_catches_a_1e_9_error():
    # the pinned ill-conditioned draw and random ones: each passes as is
    # and fails once log|Pf| of the permuted matrix is off by 1e-9
    draws = [(([0, 1, 2, 3, 6, 5, 4, 7], [-1] * 8), 36870, True)]
    rng = np.random.default_rng(7)
    for n in (2, 6, 12):
        draws += [((list(rng.permutation(n)), list(rng.choice((-1, 1), n))),
                   int(rng.integers(2 ** 32)), real) for real in (0, 1)]
    for draw in draws:
        want, got, flip, tol = _signed_permutation_pair(*draw)
        assert tol <= PF_COVARIANCE_CAP
        assert max(_covariance_gaps(want, got, flip)) <= tol
        off = LogComplex(got.log + 1e-9, got.arg)
        assert _covariance_gaps(want, off, flip)[0] > tol


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


def test_real_matrix_eliminates_in_real_arithmetic(monkeypatch):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    a = m - m.T
    dtypes = []
    eliminate = numerics._pfaffian_eliminate

    def recorded(entries):
        dtypes.append(entries.dtype)
        return eliminate(entries)

    monkeypatch.setattr(numerics, "_pfaffian_eliminate", recorded)
    assert pfaffian(a) == pytest.approx(pf_recursive(a), rel=1e-12)
    assert pfaffian(a.astype(int)) == pytest.approx(
        pf_recursive(a.astype(int)), rel=1e-12)
    pfaffian(a + 0j)
    assert dtypes == [float, float, complex]


def test_pfaffian_odd_dimension_is_zero():
    rng = np.random.default_rng(4)
    a = random_antisym(3, rng)
    assert pfaffian_log(a).is_zero


def test_pfaffian_empty_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1


def test_pfaffian_of_a_zero_pivot_is_zero():
    # antisymmetric within SYMMETRY_TOL (relative, floor 1), yet the
    # pivot a[0, 1] is exactly 0 beside its nonzero mirror
    assert pfaffian_log([[0.0, 0.0], [1e-13, 0.0]]).is_zero
    assert pfaffian([[0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]) == 0


def test_pfaffian_log_handles_huge_scales():
    rng = np.random.default_rng(5)
    a = random_antisym(6, rng)
    big = pfaffian_log(a * 1e150)
    base = pfaffian_log(a)
    assert big.log == pytest.approx(base.log + 3 * math.log(1e150), rel=1e-12)


def test_antisym_validation():
    with pytest.raises(InputError, match="not antisymmetric"):
        pfaffian_log([[0, 1], [1, 0]])
    with pytest.raises(InputError, match="square"):
        pfaffian_log(np.ones((2, 3)))
    with pytest.raises(InputError, match="square"):
        pfaffian_log(np.zeros(4))
    # within SYMMETRY_TOL (relative) passes, and the input is not modified
    a = np.array([[0.0, 2.0], [-2.0 - 1e-13, 0.0]])
    assert pfaffian(a) == pytest.approx(2.0, rel=1e-12)
    assert a[1, 0] == -2.0 - 1e-13


@pytest.mark.parametrize("tol", [SYMMETRY_TOL, 0.0025])
def test_symmetry_messages_print_symmetry_tol(monkeypatch, tol):
    monkeypatch.setattr(numerics, "SYMMETRY_TOL", tol)
    with pytest.raises(InputError, match=rf"antisymmetric within {tol:g}$"):
        pfaffian_log([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputError, match=rf"H\^dagger within {tol:g}\)"):
        eig_smallest(np.array([[0.0, 1.0], [0.0, 0.0]]), k=1)


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
    sparse = scipy.sparse.csr_matrix(m)
    monkeypatch.setattr(numerics, "DENSE_DIM_MAX", 300)
    dense = eig_smallest(m, k=2)
    # up to DENSE_DIM_MAX a sparse operand is densified to the same matrix
    assert ([e for e, _ in eig_smallest(LinearOperator(sparse), k=2)]
            == [e for e, _ in dense])
    monkeypatch.setattr(numerics, "DENSE_DIM_MAX", 100)
    for operand in (m, sparse):
        lanczos = eig_smallest(LinearOperator(operand), k=2)
        for (a, _), (b, _) in zip(dense, lanczos):
            assert a == pytest.approx(b, abs=1e-8)


# sectors where plain Lanczos returns genuine eigenpairs yet skips a
# degenerate copy (qbq N=6, theta=pi/4, Sz=1, k=4 gave 1.9768 x3 and 2.4002
# where the levels are 1.9768 x4); the deflated solves restore each
MISSED_COPY_CASES = [
    (HamiltonianSpec("qbq", 6, theta=math.pi / 4), 1.0, 4),
    (HamiltonianSpec("j1j2", 12, J2=0.8), 1.0, 2),
    (HamiltonianSpec("qbq", 7, theta=-math.pi / 2), 4.0, 4),
    (HamiltonianSpec("qbq", 7, theta=-math.pi / 2), 4.0, 8),
    (HamiltonianSpec("qbq", 6, theta=0.2), 0.0, 4),
]


def _lowest_with_copies(vals, k):
    """The k lowest of the ascending vals plus every copy of the k-th."""
    return vals[vals <= vals[k - 1] + numerics.DEGENERACY_TOL]


@pytest.mark.parametrize("spec,sz,k", MISSED_COPY_CASES,
                         ids=lambda x: repr(x))
def test_eig_lanczos_keeps_every_degenerate_copy(monkeypatch, spec, sz, k):
    op = hamiltonians.build(spec, enumerate_sector(spec.N, spec.d, sz))
    want = _lowest_with_copies(np.linalg.eigvalsh(op.matrix.toarray()), k)
    monkeypatch.setattr(numerics, "DENSE_DIM_MAX", 0)
    pairs = eig_smallest(op, k)
    assert len(pairs) == len(want)
    assert np.abs(np.array([e for e, _ in pairs]) - want).max() < 1e-9
    vecs = np.column_stack([v for _, v in pairs])
    assert np.abs(vecs.conj().T @ vecs - np.eye(len(pairs))).max() < 1e-10


def test_eig_returns_every_copy_of_the_kth_level():
    # the qbq N=7, theta=-pi/2, Sz=4 sector has its 4th and 5th levels
    # degenerate and its 8th and 9th; the dense branch slices the same set
    spec = HamiltonianSpec("qbq", 7, theta=-math.pi / 2)
    op = hamiltonians.build(spec, enumerate_sector(7, 3, 4.0))
    assert op.dim <= numerics.DENSE_DIM_MAX
    vals = np.linalg.eigvalsh(op.matrix.toarray())
    for k, n in ((4, 5), (8, 9)):
        pairs = eig_smallest(op, k)
        assert len(pairs) == n == len(_lowest_with_copies(vals, k))


def test_eig_guard_gives_up_on_endless_misses(monkeypatch):
    # a deflated solve that always reports a level below every one found
    # is never satisfied; every appended vector is orthogonal to the others,
    # so at most dim - k can be appended, and the guard stops after
    # dim - k + 1 rounds
    real = numerics._lanczos
    rounds = []

    def lying(m, k, v0, tol=0.0):
        vals, vecs = real(m, k, v0, tol)
        if isinstance(m, scipy.sparse.linalg.LinearOperator):
            rounds.append(k)
            vals = vals - 1e3 * len(rounds)
        return vals, vecs

    monkeypatch.setattr(numerics, "_lanczos", lying)
    monkeypatch.setattr(numerics, "DENSE_DIM_MAX", 0)
    op = hamiltonians.build(HamiltonianSpec("hs", 8),
                            enumerate_sector(8, 2, 0.0))
    with pytest.raises(NumericalError):
        eig_smallest(op, 3)
    assert rounds == [1] * (op.dim - 3 + 1)


def test_eig_finds_a_small_scale_level_every_time():
    # j1j2 N=12, J1=0, J2=-1 scaled by 1e-3 (below COUPLING_RANGE, so built
    # directly): the deflated solves take their shift and tolerance from
    # the max row sum, so the 7-fold Sz=0 ground level at |lambda| ~ 3e-3
    # converges as it does at scale 1
    op = hamiltonians.build(HamiltonianSpec("j1j2", 12, J1=0.0, J2=-1.0),
                            enumerate_sector(12, 2, 0.0))
    op = LinearOperator(1e-3 * op.matrix)
    assert op.dim > numerics.DENSE_DIM_MAX
    want = np.linalg.eigvalsh(op.matrix.toarray())[:7]
    for _ in range(5):
        pairs = eig_smallest(op, 1)
        assert len(pairs) == 7
        assert np.abs(np.array([e for e, _ in pairs]) - want).max() < 1e-12


def test_eig_is_deterministic_on_a_degenerate_level():
    # the deflated solves start from their own seeded vectors
    op = hamiltonians.build(HamiltonianSpec("j1j2", 12, J1=0.0, J2=-1.0),
                            enumerate_sector(12, 2, 0.0))
    a, b = eig_smallest(op, 1), eig_smallest(op, 1)
    assert len(a) == len(b) == 7
    for (ea, va), (eb, vb) in zip(a, b):
        assert ea == eb and np.array_equal(va, vb)


def test_eig_lanczos_is_deterministic():
    # the j1j2 chain at N=13 on its full 8192-dim space takes the Lanczos
    # branch; ARPACK's own random start made repeated solves differ
    h = hamiltonians.build(HamiltonianSpec("j1j2", 13, J2=0.3))
    assert h.dim > numerics.DENSE_DIM_MAX
    a, b = eig_smallest(h, k=2), eig_smallest(h, k=2)
    for (ea, va), (eb, vb) in zip(a, b):
        assert ea == eb and np.array_equal(va, vb)


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

    # the Hermiticity check: H = H^dagger within SYMMETRY_TOL relative,
    # dense or sparse, before anything is densified
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
    with pytest.raises(InputError):
        minimize_scalar(lambda x: x, (2.0, 1.0))
    with pytest.raises(InputError):
        minimize_scalar(lambda x: x, (0.0, math.inf))


def test_minimize_samples_both_ends():
    seen = []
    minimize_scalar(lambda x: seen.append(x) or (x - 1.0) ** 2, (0.0, 5.0))
    assert seen[-2:] == [0.0, 5.0]
    assert len(seen) <= numerics.MINIMIZE_MAX_CALLS + 2


# The port must take the very steps of scipy's bounded method: the same
# evaluation points, result and call count, compared with ==.

def recorded(f):
    points = []

    def call(x):
        points.append(x)
        return f(x)

    return call, points


def assert_same_as_scipy(f, lo, hi, xatol,
                         maxiter=numerics.MINIMIZE_MAX_CALLS):
    """Runs the port and scipy's bounded method; returns scipy's result."""
    port_f, port_points = recorded(f)
    x, fx, calls = numerics._bounded_brent(port_f, lo, hi, xatol, maxiter)
    ref_f, ref_points = recorded(f)
    ref = scipy.optimize.minimize_scalar(
        ref_f, bounds=(lo, hi), method="bounded",
        options={"xatol": xatol, "maxiter": maxiter})
    assert port_points == ref_points
    assert (x, fx, calls) == (ref.x, ref.fun, ref.nfev)
    return ref


def brent_cases(seed):
    """(lo, hi, objectives) for a random bracket: a quadratic, a cosine,
    |x - c|^1.5, a constant, a monotone function and a quadratic rounded
    to steps, whose ties reach the tie rules of the bracket update."""
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(-3.0, 3.0))
    hi = lo + float(rng.uniform(0.01, 6.0))
    c = float(rng.uniform(lo - 1.0, hi + 1.0))
    s, w, phi = (float(v) for v in rng.uniform(0.1, 4.0, size=3))
    return lo, hi, [
        lambda x: s * (x - c) ** 2 + phi,
        lambda x: math.cos(w * x + phi),
        lambda x: abs(x - c) ** 1.5,
        lambda x: phi,
        lambda x: math.exp(s * x),
        lambda x: round(8.0 * s * (x - c) ** 2) / 8.0,
    ]


@pytest.mark.parametrize("xatol", [1e-4, 1e-6, 1e-8])
def test_bounded_brent_matches_scipy(xatol):
    for seed in range(40):
        lo, hi, objectives = brent_cases(seed)
        for f in objectives:
            assert_same_as_scipy(f, lo, hi, xatol)


def test_bounded_brent_matches_scipy_when_calls_run_out():
    for seed in range(10):
        lo, hi, objectives = brent_cases(seed)
        for f in objectives:
            assert assert_same_as_scipy(f, lo, hi, 1e-10, maxiter=5).nfev <= 5


def test_bounded_brent_matches_scipy_on_a_scan_objective(monkeypatch):
    # the objective score(point(R)) of an su2_1 N = 8 scan, captured from
    # the scan's own call
    calls = []
    minimize = experiments.minimize_scalar

    def capture(f, bracket, tol):
        calls.append((f, bracket, tol))
        return minimize(f, bracket, tol=tol)

    monkeypatch.setattr(experiments, "minimize_scalar", capture)
    res = experiments.scan_radius(BlockSpec("su2_1", 0, 8),
                                  HamiltonianSpec("j1j2", 8, J2=0.3))
    (f, (lo, hi), tol), = calls
    lo, hi = float(lo), float(hi)
    ref = assert_same_as_scipy(f, lo, hi, tol)
    assert ref.nfev > 5
    best = min([(f(lo), lo), (f(hi), hi), (float(ref.fun), float(ref.x))])
    assert res.optimum[0] == best[1]
