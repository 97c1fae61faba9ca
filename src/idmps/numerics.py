"""Linear-algebra kernels: Pfaffians, a Hermitian eigensolver, and a
bracketed scalar minimizer.

Importing this module loads numpy and no scipy module, so commands that
never build an operator (special-function values, block states) do not pay
scipy's import time, about 0.6 s on a 2-vCPU VM. scipy.sparse is
imported where a LinearOperator is made, and scipy.sparse.linalg at the
entry of eig_smallest rather than in its Lanczos branch: the first solve of
a process is usually a small dense one, and it pays the import so that the
first large solve does not. The scalar minimizer is a port of scipy's
bounded Brent method and loads no scipy module.

The Pfaffian is computed by Parlett-Reid elimination (skew-symmetric analogue
of LU) with partial pivoting, in real arithmetic for a real matrix; the pivot
product is accumulated as log|Pf| and arg Pf, two floats, because block
amplitudes at small torus radius overflow doubles; pfaffian_log returns
them as one LogComplex.

A LinearOperator holds one matrix, usually scipy sparse (every Hamiltonian
is). eig_smallest checks that it is Hermitian and is the only place that
densifies it: dense eigh up to DENSE_DIM_MAX, Lanczos on the matrix above,
from one fixed start vector so that repeated solves agree bit for bit.
A single-vector Krylov space holds one vector per distinct eigenvalue
(Parlett, The Symmetric Eigenvalue Problem, ch. 13), so Lanczos returns
genuine eigenpairs yet can skip a degenerate copy, which no residual check
sees. The Lanczos branch completes the k-th level by deflated solves: the
lowest level of H + sigma V V^dagger, V the vectors found so far, is
appended while it lies within DEGENERACY_TOL of the k-th value. Each
deflated solve starts from its own seeded vector. Restarted from the main
solve's vector v0, it could not find a missing copy: inside a degenerate
level v0 has one direction, which V holds and the shift lifts, so the
copy orthogonal to it enters the Krylov space only through roundoff.
"""
import math

import numpy as np

from .errors import AccuracyError, InputError, NumericalError
from .logcomplex import LogComplex

# relative bound of the A = -A^T and H = H^dagger checks
SYMMETRY_TOL = 1e-12
# dense eigh up to this dimension, guarded Lanczos above: the measured
# break-even of the two for 4 levels of a chain's Sz sector
DENSE_DIM_MAX = 350
EIG_RESIDUAL_TOL = 1e-8
# levels this close are one level: eig_smallest returns every copy of its
# k-th level, and hamiltonians groups the levels of its sectors by it
DEGENERACY_TOL = 1e-9
# cap on the objective calls of one bounded Brent run (scipy's maxiter)
MINIMIZE_MAX_CALLS = 500


def _breaks_symmetry(defect, a):
    """True if the largest entry of defect (A + A^T, or H - H^dagger)
    exceeds SYMMETRY_TOL times max(max |a_ij|, 1). Dense or sparse; a
    sparse matrix is never densified."""
    return abs(defect).max() > SYMMETRY_TOL * max(abs(a).max(), 1.0)


def _pfaffian_eliminate(a):
    """Destructive Parlett-Reid sweep; returns (log|Pf|, arg Pf) as two
    floats, log = -inf where Pf is 0."""
    n = a.shape[0]
    log, arg = 0.0, 0.0
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1:, k])
        kp = k + 1 + int(np.argmax(col))
        # a[k, kp] is the pivot once the swap below is made
        if a[kp, k] == 0 or a[k, kp] == 0:
            return -math.inf, 0.0
        if kp != k + 1:
            # row+column swap is a det=-1 congruence: Pf flips sign
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            arg += math.pi
        pivot = complex(a[k, k + 1])
        log += math.log(abs(pivot))
        arg += math.atan2(pivot.imag, pivot.real)
        if k + 2 < n:
            t = a[k, k + 2:] / a[k, k + 1]
            u = np.outer(t, a[k + 2:, k + 1])
            # u - u^T keeps the trailing block exactly antisymmetric
            a[k + 2:, k + 2:] += u - u.T
    return log, arg


def pfaffian_log(entries):
    """Pfaffian of an antisymmetric matrix as LogComplex.

    The matrix must be square and equal -A^T within SYMMETRY_TOL
    (relative), else InputError; a real matrix is eliminated in real
    arithmetic. Odd dimension has Pfaffian exactly 0; 0x0 has Pfaffian 1.
    """
    a = np.asarray(entries)
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if a.size and _breaks_symmetry(a + a.T, a):
        raise InputError(
            f"matrix is not antisymmetric within {SYMMETRY_TOL:g}")
    n = a.shape[0]
    if n % 2:
        return LogComplex.zero()
    if n == 0:
        return LogComplex.one()
    # scale to O(1) entries so the Schur updates stay inside double range
    scale = np.abs(a).max()
    if scale == 0:
        return LogComplex.zero()
    a /= scale
    log, arg = _pfaffian_eliminate(a)
    return LogComplex(log + 0.5 * n * math.log(scale), arg)


def pfaffian(entries):
    """Pfaffian as a plain complex number."""
    return pfaffian_log(entries).value


class LinearOperator:
    """Operator held as one matrix: an ndarray or a scipy sparse matrix.

    apply(v) is matrix @ v. A real matrix acts on a complex v as
    matrix @ v.real + 1j * (matrix @ v.imag): scipy would otherwise cast
    every stored entry to complex for each product (16 bytes per nonzero),
    and the split gives the same bits, since an imaginary part of +0
    adds nothing to either sum. Where v.imag is all zero, as in every
    block state, the second product is +-0 and adds nothing either: the
    first alone, cast to complex, gives the split's bits (a CSR row sum
    starts at +0, so it is never -0). Only eig_smallest densifies a sparse
    matrix, and only up to DENSE_DIM_MAX.
    """

    def __init__(self, matrix):
        import scipy.sparse

        if not scipy.sparse.issparse(matrix):
            matrix = np.asarray(matrix)
        self.matrix = matrix
        self.dim = matrix.shape[0]

    def apply(self, v):
        m = self.matrix
        if np.iscomplexobj(v) and not np.iscomplexobj(m):
            if not v.imag.any():
                return (m @ v.real).astype(complex)
            return m @ v.real + 1j * (m @ v.imag)
        return m @ v


def _lanczos(m, k, v0, tol=0.0):
    """(values, vectors) of the k lowest eigenpairs of m by ARPACK."""
    import scipy.sparse.linalg

    try:
        return scipy.sparse.linalg.eigsh(
            m, k=k, which="SA", v0=v0, maxiter=100 * m.shape[0], tol=tol)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalError(
            f"Lanczos did not converge for dim={m.shape[0]}, k={k}: {exc}")


def _guarded_lanczos(m, k):
    """The k lowest eigenpairs of m by Lanczos plus every copy of the k-th
    level, as (values, vectors) sorted ascending.

    After the main solve, each round finds the lowest level mu of
    m + sigma V V^dagger, V the vectors found so far. sigma is the spread
    of their values plus a tenth of the max row sum (a bound on ||m||), so
    V is lifted above them and mu is the lowest level orthogonal to V.
    While mu lies at or below the k-th lowest value found plus
    DEGENERACY_TOL, its vector is appended to V. Every appended vector is
    orthogonal to V, so at most dim - k are appended and at most
    dim - k + 1 rounds run; NumericalError if the last still appends.
    The zero operator is an InputError: its one level spans all dim
    vectors, which is every copy to return and more than Lanczos finds.
    """
    import scipy.sparse.linalg

    dim = m.shape[0]
    norm = abs(m).sum(axis=1).max()
    if norm == 0:
        raise InputError(
            f"the operator is zero: its lowest level spans all {dim} "
            f"vectors, too many to return for k={k} (dense solves go up "
            f"to DENSE_DIM_MAX = {DENSE_DIM_MAX})")
    vals, vecs = _lanczos(m, k, np.random.default_rng(0).standard_normal(dim))
    for rnd in range(dim - k + 1):
        cut = np.sort(vals)[k - 1] + DEGENERACY_TOL
        sigma = vals.max() - vals.min() + 0.1 * norm

        def deflated(x):
            # einsum, not a BLAS dot: with one column in V, numpy's threaded
            # dot contends with ARPACK's BLAS threads (on 2 vCPUs the
            # deflated solve at dim 48620 took 2.5x as long); the same rule
            # as hilbert.norm and hilbert.inner, the one norm and inner
            # product of state-length vectors
            overlaps = np.einsum("ij,i->j", vecs.conj(), x)
            return m @ x + sigma * (vecs @ overlaps)

        op = scipy.sparse.linalg.LinearOperator(
            (dim, dim), matvec=deflated, dtype=np.result_type(m.dtype, vecs))
        v0 = np.random.default_rng(1 + rnd).standard_normal(dim)
        mu, u = _lanczos(op, 1, v0, tol=0.1 * DEGENERACY_TOL / norm)
        if mu[0] > cut:
            keep = np.flatnonzero(vals <= cut)
            keep = keep[np.argsort(vals[keep], kind="stable")]
            return vals[keep], vecs[:, keep]
        vals = np.append(vals, mu)
        vecs = np.column_stack([vecs, u])
    raise NumericalError(f"Lanczos kept finding copies for dim={dim}, k={k} "
                         f"after {dim - k + 1} deflated solves")


def eig_smallest(h, k=1):
    """The k algebraically smallest eigenpairs of a Hermitian
    LinearOperator, plus every copy of the k-th level: each further pair
    within DEGENERACY_TOL of the k-th value, so a degenerate level is never
    cut in two.

    The matrix must equal its conjugate transpose within SYMMETRY_TOL
    (relative), else InputError; a sparse matrix is checked before it is
    densified. Dense diagonalization up to dim DENSE_DIM_MAX (or k >= dim-1),
    implicitly-restarted Lanczos above, started from one seeded random
    vector (ARPACK's own start is random per call) and completed by
    deflated solves, each from its own seeded vector (NumericalError if
    copies keep coming past the dimension's bound; InputError for the zero
    operator, whose k-th level is all dim vectors).
    Returns [(eigenvalue, eigenvector), ...] sorted ascending; each vector
    owns its data (no view into the full eigenvector matrix), and each
    residual ||Hv - lambda v|| is verified against 1e-8.
    """
    # loaded here, not in the Lanczos branch (see the module docstring);
    # hilbert too, so that loading numerics loads nothing more
    import scipy.sparse.linalg

    from .hilbert import norm

    if not isinstance(h, LinearOperator):
        h = LinearOperator(h)
    if not 1 <= k <= h.dim:
        raise InputError(f"need 1 <= k <= dim, got k={k}, dim={h.dim}")
    m = h.matrix
    if _breaks_symmetry(m - m.conj().T, m):
        raise InputError("eig_smallest requires a hermitian operator "
                         f"(H = H^dagger within {SYMMETRY_TOL:g})")
    if h.dim <= DENSE_DIM_MAX or k >= h.dim - 1:
        if scipy.sparse.issparse(m):
            m = m.toarray()
        vals, vecs = np.linalg.eigh(m)
        n = np.searchsorted(vals, vals[k - 1] + DEGENERACY_TOL, "right")
        vals, vecs = vals[:n], vecs[:, :n]
    else:
        vals, vecs = _guarded_lanczos(m, k)
    pairs = [(float(lam), vecs[:, i].copy()) for i, lam in enumerate(vals)]
    for lam, vec in pairs:
        res = norm(h.apply(vec) - lam * vec)
        if res > EIG_RESIDUAL_TOL * max(1.0, norm(vec)):
            raise AccuracyError(
                f"eigenpair residual {res:.3e} exceeds {EIG_RESIDUAL_TOL}")
    return pairs


def _bounded_brent(f, lo, hi, xatol, maxfun):
    """(x, f(x), calls) of Brent's bounded minimization of f on [lo, hi].

    A line-for-line port of scipy.optimize's _minimize_scalar_bounded
    (scipy 1.17.1), which follows Brent, Algorithms for Minimization
    without Derivatives (1973), ch. 5: golden-section steps, parabolic
    steps where the parabola through the last three points is acceptable,
    and no step shorter than tol1. It stops when the bracket half-width
    around the best point falls under 2 tol1, or after maxfun calls of f.
    Same constants and floating-point operations, so the same points.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx, num


def minimize_scalar(f, bracket, tol=1e-6):
    """Minimize f on [lo, hi] by bounded Brent (golden section + parabolic),
    with at most MINIMIZE_MAX_CALLS calls of f besides the two below.

    Returns (x*, f(x*)). NaN from f raises with the offending point. The
    bracket endpoints are sampled too, so the result is never worse than
    either edge even if f is not unimodal.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"need finite lo < hi, got ({lo}, {hi})")

    def checked(x):
        y = float(f(x))
        if math.isnan(y):
            raise NumericalError(f"objective returned NaN at x={x}")
        return y

    x, fx, _ = _bounded_brent(checked, lo, hi, tol, MINIMIZE_MAX_CALLS)
    candidates = [(checked(lo), lo), (checked(hi), hi), (fx, x)]
    fbest, xbest = min(candidates)
    return xbest, fbest
