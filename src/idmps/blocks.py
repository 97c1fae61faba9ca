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
row evaluator (_config_logs) and one builder (_build). The geometry argument
is a torus ModularParam, or None for the cylinder tau -> i infinity, where
the kernels reduce to sin/tan forms (the infinite-dimensional MPS limit).
build_state, build_record, build_cylinder_state and the single-amplitude
functions share that path. The module only builds amplitudes: which
reference state a thin-torus block approaches is reported by the CLI.
Everything is accumulated in log-magnitude/phase form: at small R the raw
amplitudes overflow doubles, so the builder subtracts the maximum log before
exponentiating and records the discarded global scale.
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
    """Product of the labels on chain positions 1, 3, 5, ... (1-indexed)."""
    s = np.asarray(config, dtype=np.int64)
    return int(np.prod(s[0::2]))


# ---------------------------------------------------- kernels and amplitudes

def _kernel_table(spec, geom):
    """Pair kernels on the torus geom, or on the cylinder for geom=None.

    su2_1: log|E(z_i - z_j)| and arg E(z_i - z_j), symmetric, with
    E -> sin(pi z)/pi on the cylinder. su2_2: K[i,j] = wp_nu(z_i - z_j),
    antisymmetric, with wp_2 -> pi/tan(pi z), wp_3, wp_4 -> pi/sin(pi z) on
    the cylinder. Both have a zero diagonal.
    """
    N = spec.N
    if spec.model == SU2_1:
        z = insertion_points(N)
        logs = np.zeros((N, N))
        args = np.zeros((N, N))
        for i in range(N):
            for j in range(i + 1, N):
                dz = z[i] - z[j]
                if geom is None:
                    lc = LogComplex.from_value(math.sin(math.pi * dz) / math.pi)
                else:
                    lc = prime_form_log(dz, geom.tau)
                logs[i, j] = logs[j, i] = lc.log
                args[i, j] = args[j, i] = lc.arg
        return logs, args
    # wp_nu is odd and depends on i - j only: one value per distance
    vals = np.zeros(N, dtype=complex)
    for k in range(1, N):
        dz = k / N
        if geom is None:
            trig = math.tan if spec.label == 2 else math.sin
            vals[k] = math.pi / trig(math.pi * dz)
        else:
            vals[k] = weierstrass_nu_log(spec.label, dz, geom.tau).value
    idx = np.arange(N)
    lower = np.where(idx[:, None] > idx[None, :],
                     vals[np.abs(idx[:, None] - idx[None, :])], 0j)
    return lower - lower.T


def _theta_factor(spec, geom, n):
    """theta[k;0](n/N | 2 tau) for n = sum_j s_j j, or its cylinder limit:
    theta3 -> 1, and theta2 with its vanishing scale dropped -> cos(pi n/N)."""
    N = spec.N
    if geom is not None:
        return theta_char_log((spec.label, 0.0), n / N, 2.0 * geom.tau)
    if spec.label == 0.0:
        return LogComplex.one()
    if (2 * n + N) % (2 * N) == 0:
        # cos(pi n/N) vanishes identically when n/N = +-1/2 mod 1
        return LogComplex.zero()
    return LogComplex.from_value(math.cos(math.pi * n / N))


def _config_logs(spec, geom, labels):
    """log|psi|, arg psi and an exact-zero mask for each row of labels.

    su2_1 rows must be charge neutral.
    """
    N = spec.N
    if spec.model == SU2_1:
        plog, parg = _kernel_table(spec, geom)
        s = labels.astype(float)
        # sum_{i<j,[s_i=s_j]} X_ij = 1/2 sum_{i<j} X_ij + 1/4 s^T X s
        triu = np.triu_indices(N, 1)
        logs = (0.5 * plog[triu].sum()
                + 0.25 * np.einsum("mi,ij,mj->m", s, plog, s))
        args = (0.5 * parg[triu].sum()
                + 0.25 * np.einsum("mi,ij,mj->m", s, parg, s))
        signs = np.array([marshall_sign(c) for c in labels])
        args = args + np.where(signs < 0, math.pi, 0.0)
        # the theta factor sees a configuration only through n
        nums = [int(n) for n in labels @ np.arange(1, N + 1)]
        thetas = {n: _theta_factor(spec, geom, n) for n in dict.fromkeys(nums)}
        factors = (thetas[n] for n in nums)
    else:
        kernel = _kernel_table(spec, geom)
        logs = np.zeros(len(labels))
        args = np.zeros(len(labels))
        factors = (pfaffian_log(kernel * (row[:, None] == row[None, :]))
                   for row in labels)
    zero = np.zeros(len(labels), dtype=bool)
    for m, lc in enumerate(factors):
        if lc.is_zero:
            zero[m] = True
        else:
            logs[m] += lc.log
            args[m] += lc.arg
    return logs, args, zero


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
    logs, args, zero = _config_logs(spec, geom, labels)
    live = ~zero
    if not np.any(live):
        raise ConsistencyError(
            f"all amplitudes of {spec!r} vanish identically")
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


def _amplitude(spec, geom, s):
    logs, args, zero = _config_logs(spec, _geometry(geom), s[None, :])
    return 0j if zero[0] else LogComplex(logs[0], args[0]).value


# ----------------------------------------------------------------- public API

def amplitude_su2_1(spec, geom, config):
    """Single SU(2)_1 amplitude as a plain complex number at torus radius R
    (a float or a ModularParam); geom=None is the cylinder."""
    if spec.model != SU2_1:
        raise InputError(f"expected an su2_1 spec, got {spec.model}")
    s = np.asarray(config, dtype=np.int64)
    if len(s) != spec.N or not set(np.unique(s)) <= {1, -1}:
        raise InputError(f"bad su2_1 configuration {config!r}")
    if s.sum() != 0:
        return 0j
    return _amplitude(spec, geom, s)


def amplitude_su2_2(spec, geom, config):
    """Single SU(2)_2 amplitude (Pfaffian of the masked kernel matrix) at
    torus radius R (a float or a ModularParam); geom=None is the cylinder."""
    if spec.model != SU2_2:
        raise InputError(f"expected an su2_2 spec, got {spec.model}")
    s = np.asarray(config, dtype=np.int64)
    if len(s) != spec.N or not set(np.unique(s)) <= {1, 0, -1}:
        raise InputError(f"bad su2_2 configuration {config!r}")
    return _amplitude(spec, geom, s)


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
    """The closed-form R -> infinity limit of build_state.

    SU(2)_1 kernels: E -> sin(pi z)/pi; theta3(.|2 tau) -> 1 and theta2's
    vanishing scale is dropped, keeping the z-dependent cos(pi sum s_j z_j).
    SU(2)_2 kernels: wp_2 -> pi/tan(pi z), wp_3 and wp_4 -> pi/sin(pi z).
    """
    return _build(spec, None)[0]
