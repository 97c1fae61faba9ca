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
row evaluator (_config_logs) and one builder (_build), on a torus
ModularParam or, for geom=None, on the cylinder tau -> i infinity (the
infinite-dimensional MPS limit, with sin/tan/cos closed forms). Every kernel
and theta factor is folded onto the half period by its parity and period
(_fold): each function is evaluated once per r in [0, N/2], its zero at 1/2
(theta2, wp_2) is exact by symmetry, and the su2_2 kernel is real (tau = iR),
so its Pfaffians run in real arithmetic. Everything is accumulated in
log-magnitude/phase form: at small R the raw amplitudes overflow doubles, so
the builder subtracts the maximum log before exponentiating and records the
discarded global scale. The CLI, not this module, reports which reference
state a thin-torus block approaches.
"""
import math

import numpy as np

from .errors import ConsistencyError, InputError
from .hilbert import StateVector, all_configs, enumerate_sector
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
        N = int(N)
        if N < 2 or N % 2:
            raise InputError(f"N must be even and >= 2, got {N}")
        if model == SU2_1:
            try:
                label = _K_ALIASES[label]
            except (KeyError, TypeError):
                raise InputError(f"su2_1 label must be 0 or 1/2, got {label!r}")
        else:
            if label not in (2, 3, 4):
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

# |Im K| / |K| above which an su2_2 kernel value at tau = iR is not real
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
    """log|f(n/N)| and arg f(n/N) of _FUNCTIONS[fn] for an integer array n,
    on the torus geom or the cylinder (None). f is evaluated once per
    folded r, and log = -inf marks an exact zero."""
    parity, period, torus, cylinder = _FUNCTIONS[fn]
    r, sign = _fold(n, N, parity, period)
    live = sign != 0
    rs, inv = np.unique(r[live], return_inverse=True)
    vals = [LogComplex.from_value(cylinder(k / N)) if geom is None
            else torus(k / N, geom.tau) for k in rs.tolist()]
    logs = np.full(r.shape, -np.inf)
    args = np.where(sign < 0, math.pi, 0.0)
    logs[live] = np.array([v.log for v in vals])[inv]
    args[live] += np.array([v.arg for v in vals])[inv]
    # phases to [-pi, pi], so sums over many factors keep their precision
    return logs, args - 2 * math.pi * np.round(args / (2 * math.pi))


def _kernel_table(spec, geom):
    """Pair kernels with a zero diagonal on the torus geom, or the cylinder
    for geom=None: su2_1 the symmetric tables log|E| and arg E at
    -|i - j|/N; su2_2 the real antisymmetric K[i,j] = wp_nu((i - j)/N)."""
    N = spec.N
    diff = np.subtract.outer(np.arange(N), np.arange(N))
    dist = np.abs(diff)
    if spec.model == SU2_1:
        logs, args = _folded("E", geom, -np.arange(1, N), N)
        return np.append(0.0, logs)[dist], np.append(0.0, args)[dist]
    logs, args = _folded(spec.label, geom, np.arange(1, N), N)
    if np.any(np.abs(np.sin(args)) > REAL_TOL):
        raise ConsistencyError(
            f"wp_{spec.label} kernel of {spec!r} is not real within {REAL_TOL}")
    vals = np.exp(logs) * np.cos(args)
    return np.sign(diff) * np.append(0.0, vals)[dist]


def _config_logs(spec, geom, labels):
    """log|psi| and arg psi for each row of labels; log = -inf marks an
    exact zero.

    su2_1 rows must be charge neutral.
    """
    N = spec.N
    if spec.model == SU2_1:
        s = labels.astype(float)
        # sum_{i<j,[s_i=s_j]} X_ij = 1/4 (sum_ij X_ij + s^T X s) for the
        # symmetric, zero-diagonal tables X = log|E| and arg E
        table = np.stack(_kernel_table(spec, geom))
        logs, args = 0.25 * (table.sum(axis=(1, 2))[:, None]
                             + np.einsum("mi,kij,mj->km", s, table, s))
        args += np.where(marshall_sign(labels) < 0, math.pi, 0.0)
        # the theta factor sees a configuration only through n = sum s_j j
        tlogs, targs = _folded(spec.label, geom, labels @ np.arange(1, N + 1),
                               N)
        return logs + tlogs, args + targs
    kernel = _kernel_table(spec, geom)
    pfs = [pfaffian_log(kernel * (row[:, None] == row[None, :]))
           for row in labels]
    return np.array([pf.log for pf in pfs]), np.array([pf.arg for pf in pfs])


def _build(spec, geom):
    """Normalized state over the nonvanishing sector and the discarded log
    scale."""
    if spec.model == SU2_1:
        sector = enumerate_sector(spec.N, 2, 0.0)
        ranks, labels = sector.ranks, sector.configs()
    else:
        configs = all_configs(spec.N, 3)
        # an odd flavor count leaves an odd block with vanishing Pfaffian
        even = np.ones(len(configs), dtype=bool)
        for lab in (1, 0, -1):
            even &= (configs == lab).sum(axis=1) % 2 == 0
        ranks = np.nonzero(even)[0]
        labels = configs[ranks]
    logs, args = _config_logs(spec, geom, labels)
    live = logs > -np.inf
    if not np.any(live):
        raise InputError(
            f"all amplitudes of {spec.model} label {spec.label} at "
            f"N={spec.N} vanish identically")
    m = logs[live].max()
    amps = np.zeros(spec.d ** spec.N, dtype=complex)
    amps[ranks[live]] = np.exp(logs[live] - m + 1j * args[live])
    nrm = np.linalg.norm(amps)
    state = StateVector(spec.N, spec.d, amps / nrm, normalized=True)
    return state, float(m + math.log(nrm))


def _geometry(geom):
    """None stays the cylinder; a float radius becomes a ModularParam."""
    if geom is None or isinstance(geom, ModularParam):
        return geom
    return ModularParam(geom)


def _amplitude(spec, model, geom, config):
    """One amplitude as a plain complex number; su2_1 labels are +-1, su2_2
    labels 1, 0, -1."""
    if spec.model != model:
        raise InputError(f"expected an {model} spec, got {spec.model}")
    s = np.asarray(config, dtype=np.int64)
    allowed = {1, -1} if model == SU2_1 else {1, 0, -1}
    if len(s) != spec.N or not set(np.unique(s)) <= allowed:
        raise InputError(f"bad {model} configuration {config!r}")
    if model == SU2_1 and s.sum() != 0:
        return 0j
    logs, args = _config_logs(spec, _geometry(geom), s[None, :])
    return LogComplex(logs[0], args[0]).value


# ----------------------------------------------------------------- public API

def amplitude_su2_1(spec, geom, config):
    """Single SU(2)_1 amplitude as a plain complex number at torus radius R
    (a float or a ModularParam); geom=None is the cylinder."""
    return _amplitude(spec, SU2_1, geom, config)


def amplitude_su2_2(spec, geom, config):
    """Single SU(2)_2 amplitude (Pfaffian of the masked kernel matrix) at
    torus radius R (a float or a ModularParam); geom=None is the cylinder."""
    return _amplitude(spec, SU2_2, geom, config)


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
    """Predicted one-site translation eigenvalue of the block state.

    T psi_0 = e^{i pi N/2} psi_0, T psi_1/2 = e^{i pi (N/2+1)} psi_1/2;
    psi_2 is odd under translation, psi_3 and psi_4 even.
    """
    if spec.model == SU2_1:
        shift = 0.0 if spec.label == 0.0 else 1.0
        return complex(np.exp(1j * math.pi * (spec.N / 2 + shift)))
    return complex(-1.0 if spec.label == 2 else 1.0)


def build_cylinder_state(spec):
    """The closed-form R -> infinity limit of build_state: build_state(spec,
    None), with the cylinder forms of _FUNCTIONS."""
    return _build(spec, None)[0]
