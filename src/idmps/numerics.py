"""Linear-algebra kernels: Pfaffians, a Hermitian eigensolver, and a
bracketed scalar minimizer.

The Pfaffian is computed by Parlett-Reid elimination (skew-symmetric analogue
of LU) with partial pivoting, in real arithmetic for a real matrix; the pivot
product is accumulated as a LogComplex because block amplitudes at small
torus radius overflow doubles.

A LinearOperator holds one matrix, usually scipy sparse (every Hamiltonian
is). eig_smallest checks that it is Hermitian and is the only place that
densifies it: dense eigh up to DENSE_DIM_MAX, Lanczos on the matrix above,
from one fixed start vector so that repeated solves agree bit for bit.
"""
import math

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from .errors import AccuracyError, InputError, NumericalError
from .logcomplex import LogComplex

# relative bound of the A = -A^T and H = H^dagger checks
SYMMETRY_TOL = 1e-12
DENSE_DIM_MAX = 4096
EIG_RESIDUAL_TOL = 1e-8


def _breaks_symmetry(defect, a):
    """True if the largest entry of defect (A + A^T, or H - H^dagger)
    exceeds SYMMETRY_TOL times max(max |a_ij|, 1). Dense or sparse; a
    sparse matrix is never densified."""
    return abs(defect).max() > SYMMETRY_TOL * max(abs(a).max(), 1.0)


def _pfaffian_eliminate(a):
    """Destructive Parlett-Reid sweep; returns Pf as LogComplex."""
    n = a.shape[0]
    acc = LogComplex.one()
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1:, k])
        kp = k + 1 + int(np.argmax(col))
        if a[kp, k] == 0:
            return LogComplex.zero()
        if kp != k + 1:
            # row+column swap is a det=-1 congruence: Pf flips sign
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            acc = -acc
        pivot = a[k, k + 1]
        acc = acc * LogComplex.from_value(pivot)
        if k + 2 < n:
            t = a[k, k + 2:] / pivot
            u = np.outer(t, a[k + 2:, k + 1])
            # u - u^T keeps the trailing block exactly antisymmetric
            a[k + 2:, k + 2:] += u - u.T
    return acc


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
        raise InputError("matrix is not antisymmetric within 1e-12")
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
    pf = _pfaffian_eliminate(a)
    return pf * LogComplex(0.5 * n * math.log(scale), 0.0)


def pfaffian(entries):
    """Pfaffian as a plain complex number."""
    return pfaffian_log(entries).value


class LinearOperator:
    """Operator held as one matrix: an ndarray or a scipy sparse matrix.

    apply(v) is matrix @ v. Only eig_smallest densifies a sparse matrix, and
    only up to DENSE_DIM_MAX.
    """

    def __init__(self, matrix):
        if not scipy.sparse.issparse(matrix):
            matrix = np.asarray(matrix)
        self.matrix = matrix
        self.dim = matrix.shape[0]

    def apply(self, v):
        return self.matrix @ v


def eig_smallest(h, k=1):
    """k algebraically smallest eigenpairs of a Hermitian LinearOperator.

    The matrix must equal its conjugate transpose within SYMMETRY_TOL
    (relative), else InputError; a sparse matrix is checked before it is
    densified. Dense diagonalization up to dim 4096, implicitly-restarted
    Lanczos above, started from one seeded random vector (ARPACK's own
    start is random per call). Returns [(eigenvalue, eigenvector), ...]
    sorted ascending; each vector owns its data (no view into the full
    eigenvector matrix), and each residual ||Hv - lambda v|| is verified
    against 1e-8.
    """
    if not isinstance(h, LinearOperator):
        h = LinearOperator(h)
    if not 1 <= k <= h.dim:
        raise InputError(f"need 1 <= k <= dim, got k={k}, dim={h.dim}")
    m = h.matrix
    if _breaks_symmetry(m - m.conj().T, m):
        raise InputError("eig_smallest requires a hermitian operator "
                         "(H = H^dagger within 1e-12)")
    if h.dim <= DENSE_DIM_MAX or k >= h.dim - 1:
        if scipy.sparse.issparse(m):
            m = m.toarray()
        vals, vecs = np.linalg.eigh(m)
        pairs = [(float(vals[i]), vecs[:, i].copy()) for i in range(k)]
    else:
        v0 = np.random.default_rng(0).standard_normal(h.dim)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                m, k=k, which="SA", v0=v0, maxiter=100 * h.dim, tol=0.0)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NumericalError(
                f"Lanczos did not converge for dim={h.dim}, k={k}: {exc}")
        order = np.argsort(vals)
        pairs = [(float(vals[i]), vecs[:, i].copy()) for i in order]
    for lam, vec in pairs:
        res = np.linalg.norm(h.apply(vec) - lam * vec)
        if res > EIG_RESIDUAL_TOL * max(1.0, np.linalg.norm(vec)):
            raise AccuracyError(
                f"eigenpair residual {res:.3e} exceeds {EIG_RESIDUAL_TOL}")
    return pairs


def minimize_scalar(f, bracket, tol=1e-6):
    """Minimize f on [lo, hi] by bounded Brent (golden section + parabolic).

    Returns (x*, f(x*)). NaN from f raises with the offending point. The
    bracket endpoints are sampled too, so the result is never worse than
    either edge even if f is not unimodal.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InputError(f"need lo < hi, got ({lo}, {hi})")

    def checked(x):
        y = float(f(x))
        if math.isnan(y):
            raise NumericalError(f"objective returned NaN at x={x}")
        return y

    res = scipy.optimize.minimize_scalar(
        checked, bounds=(lo, hi), method="bounded",
        options={"xatol": tol, "maxiter": 500})
    candidates = [(checked(lo), lo), (checked(hi), hi),
                  (float(res.fun), float(res.x))]
    fbest, xbest = min(candidates)
    return xbest, fbest
