"""Torus conformal-block wavefunctions on N equidistant insertions.

SU(2)_1 amplitudes (labels s_i = +-1, charge neutral):

    psi_k(s|tau) = eta(s) prod_{i<j} E(z_i - z_j|tau)^[s_i = s_j]
                   theta[k;0](sum_j s_j z_j | 2 tau),      k = 0, 1/2,

with eta the Marshall sign and z_i = i/N. SU(2)_2 amplitudes are Pfaffians
of the flavor-diagonal Weierstrass kernel matrix

    psi_nu(s|tau) = Pf[ wp_nu(z_i - z_j|tau) delta_{s_i, s_j} ],  nu = 2, 3, 4,

with labels read as fermion flavors in the circular-polarization basis and
K[i,j] = wp_nu(z_i - z_j) (i > j gives wp_nu((i - j)/N)).

Both models run on one path: a kernel table per model (_kernel_table), one
row evaluator per model (_su2_1_logs, _su2_2_logs) and one builder (_build),
on a torus ModularParam or, for geom=None, on the cylinder tau -> i infinity
(the infinite-dimensional MPS limit, with sin/tan/cos closed forms). Every
kernel and theta factor is folded onto the half period by its parity and
period (_fold): each function is evaluated once per r in [0, N/2], its zero
at 1/2 (theta2, wp_2) is exact by symmetry, and at tau = iR every value it
evaluates is positive real (checked within REAL_TOL), so the sign of a
factor is the fold's alone and the su2_2 Pfaffians run in real arithmetic.
K is block-diagonal by flavor, so psi_nu(s) = sign(pi_s) prod_f Pf K[S_f]
(pi_s sorts the sites by flavor). A rotation or reflection g of the ring
maps K onto itself up to signs, so Pf K[gS] = +-Pf K[S]: one Pfaffian per
dihedral orbit of subsets, and none where S is odd or some g with g(S) = S
flips the sign (_orbit_table, built once per N and kernel symmetry). The
flavor masks and sign(pi_s) of all 3^N rows depend on N alone and are built
once per N (_all_flavor_rows). Each su2_1 block is a D_N eigenstate:
translation gives momentum_eigenvalue and the site reversal (-1)^(N/2), so
psi(g s) = chi(g) psi(s). The builder sums the su2_1 pair products over
the one table X = log|E| (symmetric with a zero diagonal) as 1/4 (sum X +
s^T X s) for one Sz=0 row per dihedral orbit (_sz0_orbit_table, found by
the walk _orbit_table takes, _orbit_walk, once per N: 133 of 3,432 rows at
N=14), exponentiates once per orbit and signs each row by chi of the g
that takes it to its representative. An orbit that a g with chi(g) = -1
fixes vanishes, and it does so already as a fold zero of the theta
factor: no pair product or Marshall sign is zero.
An amplitude is held as log|psi| and an integer sign in {+1, -1, 0}: at
small R the raw amplitudes overflow doubles, so the builder subtracts the
maximum log before exponentiating and records the discarded global scale.
The states are exactly real. The CLI, not this module, reports which
reference state a thin-torus block approaches.
"""
import functools
import math

import numpy as np

from .errors import ConsistencyError, InputError, NumericalError
from .hilbert import LABELS, StateVector, all_configs, check_sites, \
    check_size, digits, enumerate_sector, norm
from .logcomplex import LogComplex
from .numerics import pfaffian_log
from .special import ModularParam, prime_form_log, theta_char_log, \
    weierstrass_nu_log

SU2_1 = "su2_1"
SU2_2 = "su2_2"

_K_ALIASES = {0: 0.0, 0.0: 0.0, "0": 0.0,
              0.5: 0.5, "0.5": 0.5, "half": 0.5, "1/2": 0.5}


class BlockSpec:
    """Model (su2_1 or su2_2), block label (k or nu), and site count N."""

    def __init__(self, model, label, N):
        if model not in (SU2_1, SU2_2):
            raise InputError(f"model must be 'su2_1' or 'su2_2', got {model!r}")
        N = check_sites(N)
        if N % 2:
            raise InputError(f"N must be even and >= 2, got {N}")
        if model == SU2_1:
            try:
                label = _K_ALIASES[label]
            except (KeyError, TypeError):
                raise InputError(f"su2_1 label must be 0 or 1/2, got {label!r}")
        elif label in (2, 3, 4):
            # 4.0 is the block 4, named psi4
            label = int(label)
        else:
            raise InputError(f"su2_2 label must be 2, 3 or 4, got {label!r}")
        self.model = model
        self.label = label
        self.N = N

    @property
    def d(self):
        return 2 if self.model == SU2_1 else 3

    @property
    def name(self):
        if self.model == SU2_1:
            return "psi0" if self.label == 0.0 else "psi_half"
        return f"psi{self.label}"

    def __repr__(self):
        return f"BlockSpec({self.model!r}, {self.label!r}, N={self.N})"


def insertion_points(N):
    """Equidistant insertions z_i = i/N, i = 1..N."""
    return np.arange(1, N + 1) / N


def marshall_sign(config):
    """Product of the labels on chain positions 1, 3, 5, ... (1-indexed);
    one sign per row of a 2-D array of configurations."""
    s = np.asarray(config, dtype=np.int64)
    return np.prod(s[..., 0::2], axis=-1)


# ---------------------------------------------------- kernels and amplitudes

# |arg f| above which a value f(r/N), r in [0, N/2], of a block function at
# tau = iR or on the cylinder is not positive real
REAL_TOL = 1e-12

# fn: (parity, period, f(x, tau), cylinder f(x)), f(-x) = parity f(x) and
# f(x + 1) = period f(x), for the prime form "E", wp_nu (nu = 2, 3, 4) and
# theta[k;0](x|2 tau) (k = 0, 1/2; the cylinder drops theta2's scale). The
# lambdas look the special functions up in this module at call time.
_FUNCTIONS = {
    "E": (-1, -1, lambda x, tau: prime_form_log(x, tau),
          lambda x: math.sin(math.pi * x) / math.pi),
    2: (-1, 1, lambda x, tau: weierstrass_nu_log(2, x, tau),
        lambda x: math.pi / math.tan(math.pi * x)),
    3: (-1, -1, lambda x, tau: weierstrass_nu_log(3, x, tau),
        lambda x: math.pi / math.sin(math.pi * x)),
    4: (-1, -1, lambda x, tau: weierstrass_nu_log(4, x, tau),
        lambda x: math.pi / math.sin(math.pi * x)),
    0.0: (1, 1, lambda x, tau: theta_char_log((0.0, 0.0), x, 2.0 * tau),
          lambda x: 1.0),
    0.5: (1, -1, lambda x, tau: theta_char_log((0.5, 0.0), x, 2.0 * tau),
          lambda x: math.cos(math.pi * x)),
}


def _fold(n, N, parity, period):
    """Reduce f(n/N) to sign * f(r/N) with r in [0, N/2] for integer n, by
    f(-x) = parity f(x) and f(x + 1) = period f(x). Where parity * period =
    -1, f(1/2) = -f(1/2) is an exact zero: r = N/2 gets sign 0."""
    q, m = np.divmod(np.asarray(n, dtype=np.int64), N)
    flip = 2 * m > N
    r = np.where(flip, N - m, m)
    sign = np.where(q % 2, period, 1) * np.where(flip, parity * period, 1)
    if parity * period < 0:
        sign = np.where(2 * r == N, 0, sign)
    return r, sign


def _folded(fn, geom, n, N):
    """log|f(n/N)| and sign f(n/N) in {+1, -1, 0} of _FUNCTIONS[fn] for an
    integer array n, on the torus geom or the cylinder (None). f is
    evaluated once per folded r, where it must be positive real within
    REAL_TOL (else ConsistencyError), so the sign is the fold's; sign 0 and
    log = -inf mark an exact zero."""
    parity, period, torus, cylinder = _FUNCTIONS[fn]
    r, sign = _fold(n, N, parity, period)
    live = sign != 0
    rs, inv = np.unique(r[live], return_inverse=True)
    vals = [LogComplex.from_value(cylinder(k / N)) if geom is None
            else torus(k / N, geom.tau) for k in rs.tolist()]
    if not all(v.log > -math.inf
               and abs(math.remainder(v.arg, 2 * math.pi)) <= REAL_TOL
               for v in vals):
        raise ConsistencyError(
            f"{fn!r} on {geom or 'the cylinder'} is not positive real on "
            f"[0, 1/2] within REAL_TOL = {REAL_TOL:g}")
    logs = np.full(r.shape, -np.inf)
    logs[live] = np.array([v.log for v in vals])[inv]
    return logs, sign


def _kernel_table(spec, geom):
    """Pair kernels with a zero diagonal on the torus geom, or the cylinder
    for geom=None: su2_1 the symmetric table log|E| at -|i - j|/N; su2_2
    the real antisymmetric K[i,j] = wp_nu((i - j)/N) / e^shift and shift =
    max log|wp_nu|, so no small R underflows K to 0."""
    N = spec.N
    diff = np.subtract.outer(np.arange(N), np.arange(N))
    dist = np.abs(diff)
    if spec.model == SU2_1:
        # the sign, -1 at every distance, cancels (see _su2_1_logs)
        logs, _ = _folded("E", geom, -np.arange(1, N), N)
        return np.append(0.0, logs)[dist]
    logs, sign = _folded(spec.label, geom, np.arange(1, N), N)
    shift = logs.max() if np.isfinite(logs.max()) else 0.0
    vals = sign * np.exp(logs - shift)
    return np.sign(diff) * np.append(0.0, vals)[dist], shift


def _orbit_walk(members):
    """Walk D_N over the rows of members (rows x N site indicators) toward
    each row's orbit representative, its least image mask. Yields (rep,
    moved, lower, g) for each g = (wrap, reflects, k) of D_N in turn: the
    rotation g a = a + t - N w_a = T^t a and the reflection g a = t - a +
    N w_a = T^(t+1) P a (P a = N - 1 - a), with w_a = wrap[a], for t =
    0..N-1, so k = t + [g reflects]. moved holds the masks g(S), lower the
    rows where moved undercuts every earlier image, and rep, updated in
    place before the yield, the least image so far."""
    N = members.shape[1]
    a = np.arange(N)
    full = (1 << N) - 1
    # the masks of S and P(S); T^k rotates a mask by k bits
    starts = members @ (1 << a), members @ (1 << a[::-1])
    rep = starts[0].copy()
    for reflects, start in enumerate(starts):
        for t in range(N):
            k = t + reflects
            moved = ((start << k) | (start >> (N - k))) & full
            lower = moved < rep
            rep[lower] = moved[lower]
            wrap = a > t if reflects else a + t >= N
            yield rep, moved, lower, (wrap, reflects, k)


@functools.cache
def _orbit_table(N, parity, period):
    """Orbit representative (the least mask in its D_N orbit) and sign in
    {+1, -1, 0} of each of the 2^N site masks S, for the kernel K[a, b] =
    f((a - b)/N) with f(-x) = parity f(x) and f(x + 1) = period f(x).

    K[ga, gb] = parity^[g reflects] period^(w_a + w_b) K[a, b] gives Pf K[gS]
    = c_g(S) Pf K[S] with c_g(S) = sgn(sort of g(s_1..s_m)) parity^([g
    reflects] m/2) period^(sum_S w), so Pf K[S] = sign Pf K[rep]. Sign 0
    marks an odd |S| and an S that some g with g(S) = S maps to -Pf K[S]:
    both vanish exactly. Shared read-only by every build; the 2^N masks are
    held to hilbert.MAX_CONFIGS."""
    masks = np.arange(check_size(N, 2))
    members = (masks[:, None] >> np.arange(N)) & 1
    size = members.sum(axis=1)
    sign, zero = np.ones(len(masks), np.int8), size % 2 == 1
    for rep, moved, lower, (wrap, reflects, _) in _orbit_walk(members):
        wrapped = members @ wrap
        kept = size - wrapped
        # pairs of S that g puts out of order: a rotation moves the wrapped
        # sites ahead of the others, a reflection reverses both parts
        if reflects:
            flips = (kept * (kept - 1) + wrapped * (wrapped - 1)) // 2
            if parity < 0:
                flips += size // 2
        else:
            flips = kept * wrapped
        if period < 0:
            flips += wrapped
        odd = flips % 2 == 1
        zero |= (moved == masks) & odd
        sign[lower] = np.where(odd[lower], -1, 1)
    sign[zero] = 0
    rep.flags.writeable = False
    sign.flags.writeable = False
    return rep, sign


@functools.cache
def _sz0_orbit_table(N):
    """The D_N orbits of the su2_1 Sz=0 rows (enumerate_sector order), as
    (reps, orbit, cls), built by _orbit_walk once per N and shared
    read-only: reps holds the labels of each orbit's representative,
    orbit[i] is the orbit of row i and cls[i] = k % 2 + 2 [g reflects] for
    a g = T^k or T^k P that takes row i to its representative. The class
    is a homomorphism onto Z2 x Z2, so every one-dimensional character of
    D_N is one sign per class (_characters)."""
    members = digits(enumerate_sector(N, 2, 0.0).ranks, N, 2) == 0
    cls = np.zeros(len(members), np.int8)
    for rep, _, lower, (_, reflects, k) in _orbit_walk(members):
        cls[lower] = k % 2 + 2 * reflects
    reps, orbit = np.unique(rep, return_inverse=True)
    table = (2 * ((reps[:, None] >> np.arange(N)) & 1) - 1, orbit, cls)
    for part in table:
        part.flags.writeable = False
    return table


def _characters(spec):
    """The su2_1 block's sign chi(g) = lambda^k p^[g reflects] of g = T^k
    or T^k P for each class of _sz0_orbit_table: lambda the
    momentum_eigenvalue, p = (-1)^(N/2) the eigenvalue of P."""
    lam = int(momentum_eigenvalue(spec).real)
    p = -1 if spec.N // 2 % 2 else 1
    return np.array([1, lam, p, lam * p])


def _flavor_rows(labels):
    """The sites S_f of flavors f = 1, 0, -1 in each row of labels, as bit
    masks: (masks, index, parity) with the distinct masks, a (3, rows) index
    into them and the parity of sign(pi_s), the pairs i < j out of flavor
    order."""
    N = labels.shape[1]
    bits = 1 << np.arange(N)
    masks, index = np.unique([(labels == f) @ bits for f in (1, 0, -1)],
                             return_inverse=True)
    swaps = sum(np.count_nonzero(labels[:, i:i + 1] < labels[:, i + 1:],
                                 axis=1) for i in range(N))
    return masks, index.reshape(3, -1), swaps % 2


@functools.cache
def _all_flavor_rows(N):
    """_flavor_rows of all 3^N configurations in rank order, built once per
    N and shared read-only by every build."""
    rows = _flavor_rows(all_configs(N, 3))
    for table in rows:
        table.flags.writeable = False
    return rows


def _su2_2_logs(spec, geom, rows):
    """log|psi| and sign psi of su2_2 for the _flavor_rows rows: one
    Pfaffian per orbit representative that does not vanish by symmetry;
    sign 0 and log = -inf mark an exact zero."""
    N = spec.N
    kernel, shift = _kernel_table(spec, geom)
    masks, index, parity = rows
    rep, sign = _orbit_table(N, *_FUNCTIONS[spec.label][:2])
    rep, sign = rep[masks], sign[masks]
    live = sign != 0
    reps, at = np.unique(rep[live], return_inverse=True)
    pfs = [pfaffian_log(kernel[np.ix_(m, m)])
           for m in (reps[:, None] >> np.arange(N)) % 2 == 1]
    logs = np.full(len(masks), -np.inf)
    logs[live] = np.array([pf.log for pf in pfs])[at]
    # three parities: the orbit sign, the real Pfaffian's arg k pi and
    # sign(pi_s)
    flips = (sign < 0).astype(np.int64)
    flips[live] += np.array([round(pf.arg / math.pi) for pf in pfs],
                            dtype=np.int64)[at]
    logs, flips = logs[index].sum(axis=0), flips[index].sum(axis=0) + parity
    # N/2 kernel factors, each scaled by e^-shift
    return (logs + N / 2 * shift,
            np.where(logs > -np.inf, 1 - 2 * (flips % 2), 0))


def _su2_1_logs(spec, geom, labels):
    """log|psi| and sign psi of su2_1 for each charge-neutral row of labels;
    sign 0 and log = -inf mark an exact zero."""
    s = labels.astype(float)
    # sum_{i<j,[s_i=s_j]} X_ij = 1/4 (sum_ij X_ij + s^T X s) for the
    # symmetric, zero-diagonal table X = log|E|; each of the even number
    # (N/2)(N/2 - 1) of such pairs has E(z_i - z_j) < 0, so the sign is the
    # Marshall sign times the theta factor's
    table = _kernel_table(spec, geom)
    logs = 0.25 * (table.sum() + ((s @ table) * s).sum(axis=-1))
    # the theta factor sees a configuration only through n = sum s_j j
    tlogs, tsign = _folded(spec.label, geom,
                           labels @ np.arange(1, spec.N + 1), spec.N)
    return logs + tlogs, marshall_sign(labels) * tsign


def _build(spec, geom):
    """Normalized state over the nonvanishing sector and the discarded log
    scale. su2_1 evaluates one row per D_N orbit and signs the others by
    _characters. The norm and the division run over the values that can
    be nonzero (the Sz=0 rows of su2_1, the live rows of su2_2) before
    they are scattered into the d^N amplitudes."""
    if spec.model == SU2_1:
        ranks = enumerate_sector(spec.N, 2, 0.0).ranks
        reps, orbit, cls = _sz0_orbit_table(spec.N)
        logs, sign = _su2_1_logs(spec, geom, reps)
    else:
        logs, sign = _su2_2_logs(spec, geom, _all_flavor_rows(spec.N))
    live = sign != 0
    if not np.any(live):
        raise InputError(
            f"all amplitudes of {spec.model} label {spec.label} at "
            f"N={spec.N} vanish identically")
    m = logs[live].max()
    mag = np.zeros(len(logs))
    np.exp(logs - m, out=mag, where=live)
    if spec.model == SU2_1:
        values = sign[orbit] * _characters(spec)[cls] * mag[orbit]
    else:
        ranks = np.flatnonzero(live)
        values = sign[live] * mag[live]
    nrm = norm(values)
    amps = np.zeros(spec.d ** spec.N, dtype=complex)
    amps[ranks] = values / nrm
    state = StateVector(spec.N, spec.d, amps, normalized=True)
    return state, float(m + math.log(nrm))


def _geometry(geom):
    """None stays the cylinder; a float radius becomes a ModularParam."""
    if geom is None or isinstance(geom, ModularParam):
        return geom
    return ModularParam(geom)


# ----------------------------------------------------------------- public API

def amplitude(spec, geom, config):
    """One amplitude of the block, sign * e^log, as a plain complex number
    with imaginary part 0, at torus radius R (a float or a ModularParam),
    or on the cylinder for geom=None; labels are +-1 for su2_1 and the
    flavors 1, 0, -1 for su2_2. An amplitude past double range is a
    NumericalError naming log|psi| (build_record splits the scale off)."""
    s = np.asarray(config, dtype=np.int64)
    if len(s) != spec.N or not set(np.unique(s)) <= set(LABELS[spec.d]):
        raise InputError(f"bad {spec.model} configuration {config!r}")
    if spec.model == SU2_1 and s.sum() != 0:
        return 0j
    geom = _geometry(geom)
    if spec.model == SU2_1:
        logs, sign = _su2_1_logs(spec, geom, s[None, :])
    else:
        logs, sign = _su2_2_logs(spec, geom, _flavor_rows(s[None, :]))
    with np.errstate(over="ignore"):
        value = sign[0] * np.exp(logs[0])
    if not np.isfinite(value):
        raise NumericalError(f"amplitude overflows a double: log|psi| = "
                             f"{float(logs[0])!r}")
    return complex(value)


def build_record(spec, geom):
    """Evaluate all amplitudes of a block: (state, log_scale), the
    normalized state and the discarded global log scale. geom is a torus
    radius (a float or a ModularParam), or None for the cylinder."""
    return _build(spec, _geometry(geom))


def build_state(spec, geom):
    """Normalized StateVector of the block at torus radius R (a float or a
    ModularParam), or on the cylinder for geom=None."""
    return _build(spec, _geometry(geom))[0]


def momentum_eigenvalue(spec):
    """Predicted one-site translation eigenvalue of the block state,
    exactly +1 or -1.

    T psi_0 = e^{i pi N/2} psi_0, T psi_1/2 = e^{i pi (N/2+1)} psi_1/2;
    psi_2 is odd under translation, psi_3 and psi_4 even.
    """
    if spec.model == SU2_1:
        odd = (spec.N // 2 + (spec.label == 0.5)) % 2
    else:
        odd = spec.label == 2
    return complex(-1.0 if odd else 1.0)
