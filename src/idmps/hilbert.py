"""Configuration indexing and state-vector plumbing for N-site chains.

Local labels are physical: d=2 uses s in {+1,-1} (spin 1/2 in units of 2 Sz),
d=3 uses s in {+1,0,-1} (spin 1). Configuration rank is big-endian in the
site index: site 1 is the most significant digit, with label order (+1,-1)
for d=2 and (+1,0,-1) for d=3, so files and sector listings are reproducible
byte for byte.
"""
import json
import math
import struct

import numpy as np

from .errors import InputError

MAGIC = b"IDMPS1"

# label list per local dimension, in digit order
LABELS = {2: (1, -1), 3: (1, 0, -1)}
# spin carried by each digit
SPINS = {2: (0.5, -0.5), 3: (1.0, 0.0, -1.0)}


def _check_dim(d):
    if d not in LABELS:
        raise InputError(f"local dimension must be 2 or 3, got {d}")


def config_rank(labels, d):
    """Rank of a configuration given as a sequence of local labels."""
    _check_dim(d)
    lookup = {s: i for i, s in enumerate(LABELS[d])}
    rank = 0
    for s in labels:
        try:
            rank = rank * d + lookup[int(s)]
        except (KeyError, ValueError):
            raise InputError(f"label {s!r} invalid for d={d}")
    return rank


def digits(ranks, N, d):
    """Base-d digits of a rank or an array of ranks, site 1 (the most
    significant digit) first: shape ranks.shape + (N,)."""
    r = np.asarray(ranks, dtype=np.int64)
    return (r[..., None] // d ** np.arange(N - 1, -1, -1)) % d


def rank_config(rank, N, d):
    """Configuration (array of labels) for a rank, site 1 first; an array of
    ranks gives one row per rank."""
    _check_dim(d)
    return np.array(LABELS[d], dtype=np.int64)[digits(rank, N, d)]


def all_configs(N, d):
    """(d^N, N) array of labels; row index equals configuration rank."""
    _check_dim(d)
    return rank_config(np.arange(d ** N), N, d)


def total_sz_table(N, d):
    """Total spin-z for every configuration rank."""
    _check_dim(d)
    return np.array(SPINS[d])[digits(np.arange(d ** N), N, d)].sum(axis=1)


class SectorIndex:
    """Configuration ranks in one total-Sz sector, ascending."""

    def __init__(self, N, d, Sz, ranks):
        self.N = int(N)
        self.d = int(d)
        self.Sz = float(Sz)
        self.ranks = np.asarray(ranks, dtype=np.int64)

    @property
    def size(self):
        return len(self.ranks)

    def configs(self):
        return rank_config(self.ranks, self.N, self.d)

    def __repr__(self):
        return (f"SectorIndex(N={self.N}, d={self.d}, Sz={self.Sz}, "
                f"size={self.size})")


def enumerate_sector(N, d, Sz):
    """All configurations with total spin-z equal to Sz, ascending rank."""
    if N < 2:
        raise InputError(f"need N >= 2, got {N}")
    table = total_sz_table(N, d)
    ranks = np.nonzero(np.abs(table - Sz) < 1e-9)[0]
    return SectorIndex(N, d, Sz, ranks)


class StateVector:
    """Dense wavefunction over all d^N configurations, configuration-major.

    Immutable: the amplitude buffer is write-protected and all operations
    return fresh instances.
    """

    def __init__(self, N, d, amplitudes, normalized=False):
        _check_dim(d)
        self.N = int(N)
        self.d = int(d)
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (d ** N,):
            raise InputError(
                f"amplitudes must have length {d ** N}, got {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise InputError("amplitudes contain non-finite entries")
        if normalized:
            nrm = np.linalg.norm(amps)
            if abs(nrm - 1.0) > 1e-12:
                raise InputError(f"flagged normalized but |v| = {nrm!r}")
        amps.flags.writeable = False
        self.amplitudes = amps
        self.normalized = bool(normalized)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self):
        nrm = self.norm()
        if nrm == 0:
            raise InputError("cannot normalize a zero state")
        return StateVector(self.N, self.d, self.amplitudes / nrm,
                           normalized=True)

    def overlap(self, other):
        """<self|other>."""
        _check_same_space(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def tensor(self):
        return self.amplitudes.reshape((self.d,) * self.N)

    # ------------------------------------------------------------- file forms

    def to_json(self):
        amps = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return json.dumps({"N": self.N, "d": self.d,
                           "normalized": self.normalized,
                           "amplitudes": amps})

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        return cls(doc["N"], doc["d"], amps, normalized=doc["normalized"])

    def to_bytes(self):
        head = MAGIC + struct.pack("<BBI", self.d, int(self.normalized),
                                   self.N)
        pairs = np.empty(2 * len(self.amplitudes))
        pairs[0::2] = self.amplitudes.real
        pairs[1::2] = self.amplitudes.imag
        return head + pairs.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob):
        if blob[:6] != MAGIC:
            raise InputError("bad magic: not an IDMPS1 state file")
        d, normalized, N = struct.unpack("<BBI", blob[6:12])
        pairs = np.frombuffer(blob[12:], dtype="<f8")
        if len(pairs) != 2 * d ** N:
            raise InputError("truncated IDMPS1 state file")
        amps = pairs[0::2] + 1j * pairs[1::2]
        return cls(N, d, amps, normalized=bool(normalized))

    def __repr__(self):
        return (f"StateVector(N={self.N}, d={self.d}, "
                f"normalized={self.normalized})")


def _check_same_space(a, b):
    if (a.N, a.d) != (b.N, b.d):
        raise InputError(
            f"states live in different spaces: ({a.N},{a.d}) vs ({b.N},{b.d})")


def translate(v):
    """Shift the chain one site: (Tv)(s1..sN) = v(s2..sN s1)."""
    t = np.moveaxis(v.tensor(), 0, -1)
    return StateVector(v.N, v.d, t.reshape(-1), normalized=v.normalized)


def apply_site_unitary(v, u, sites=None):
    """Apply a d x d unitary on the selected sites (0-based; default all)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (v.d, v.d):
        raise InputError(f"unitary must be {v.d}x{v.d}, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(v.d)).max() > 1e-12:
        raise InputError("matrix is not unitary within 1e-12")
    if sites is None:
        sites = range(v.N)
    t = v.tensor().copy()
    for i in sites:
        if not 0 <= i < v.N:
            raise InputError(f"site {i} out of range for N={v.N}")
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [i])), 0, i)
    return StateVector(v.N, v.d, t.reshape(-1), normalized=v.normalized)


def spin_matrices(d):
    """(Sx, Sy, Sz) in the label basis (+1,-1) or (+1,0,-1)."""
    _check_dim(d)
    if d == 2:
        sx = np.array([[0, 1], [1, 0]]) / 2
        sy = np.array([[0, -1j], [1j, 0]]) / 2
        sz = np.diag([0.5, -0.5]).astype(complex)
    else:
        r2 = 1 / math.sqrt(2)
        sx = np.array([[0, r2, 0], [r2, 0, r2], [0, r2, 0]])
        sy = np.array([[0, -1j * r2, 0], [1j * r2, 0, -1j * r2],
                       [0, 1j * r2, 0]])
        sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx.astype(complex), sy.astype(complex), sz


def _apply_one_site(t, m, i):
    return np.moveaxis(np.tensordot(m, t, axes=([1], [i])), 0, i)


def total_spin_quantum(v):
    """(S, Sz) from <S_tot^2> = S(S+1) and <Sz_tot> on a normalized state."""
    v = v if v.normalized else v.normalize()
    t = v.tensor()
    s2 = 0.0
    sz_expect = 0.0
    for axis, m in enumerate(spin_matrices(v.d)):
        tot = np.zeros_like(t)
        for i in range(v.N):
            tot += _apply_one_site(t, m, i)
        s2 += float(np.vdot(tot, tot).real)
        if axis == 2:
            sz_expect = float(np.vdot(t, tot).real)
    s = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * s2))
    return s, sz_expect


def fidelity_per_site(a, b):
    """|<a|b>|^(2/N) after normalizing both states."""
    _check_same_space(a, b)
    na, nb = a.norm(), b.norm()
    if na == 0 or nb == 0:
        raise InputError("fidelity of a zero state is undefined")
    ov = abs(np.vdot(a.amplitudes, b.amplitudes)) / (na * nb)
    return float(ov ** (2.0 / a.N))


def fidelity_per_site_subspace(a, basis):
    """<a|P|a>^(1/N) for the projector P onto span(basis).

    The basis vectors are orthonormalized internally, so any spanning set of
    the degenerate target subspace is accepted.
    """
    if not basis:
        raise InputError("empty target subspace")
    for b in basis:
        _check_same_space(a, b)
    na = a.norm()
    if na == 0:
        raise InputError("fidelity of a zero state is undefined")
    cols = np.column_stack([b.amplitudes for b in basis])
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diag(r)) > 1e-12 * np.abs(np.diag(r)).max()
    q = q[:, keep]
    w = q.conj().T @ (a.amplitudes / na)
    return float(np.linalg.norm(w) ** (2.0 / a.N))


def project_sector(v, sector):
    """Amplitudes of v restricted to a SectorIndex, as a plain array."""
    return v.amplitudes[sector.ranks]


def embed_sector(reduced, sector, normalized=False):
    """StateVector with the reduced amplitudes placed at the sector ranks."""
    amps = np.zeros(sector.d ** sector.N, dtype=complex)
    amps[sector.ranks] = reduced
    return StateVector(sector.N, sector.d, amps, normalized=normalized)
