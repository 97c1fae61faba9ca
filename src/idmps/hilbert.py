"""Configuration indexing and state-vector plumbing for N-site chains.

Local labels are physical: d=2 uses s in {+1,-1} (spin 1/2 in units of 2 Sz),
d=3 uses s in {+1,0,-1} (spin 1). Configuration rank is big-endian in the
site index: site 1 is the most significant digit, with label order (+1,-1)
for d=2 and (+1,0,-1) for d=3, so files and sector listings are reproducible
byte for byte. Spin operators are real: spin_ladder gives S^+ and Sz,
total-spin sweeps are built from them alone, and the hamiltonians gates
from Sz and the integer squared weights of S^+. Every fidelity
goes through a Subspace, which orthonormalizes the target's spanning set
once, however many states are scored against it.

norm and inner are the package's one norm and one inner product of
state-length vectors; they and a Subspace's overlaps sum with numpy's own
einsum kernels, never through BLAS: a threaded BLAS call stalls for
milliseconds whenever its worker thread has gone to sleep (in four N=14
radius scans on a 2-vCPU VM, 20 to 28 of 592 BLAS norms of 2^14 entries
took 1 to 16 ms each, against a median of 19 us), and it splits its sums
by thread count, so outputs would depend on the machine's core count.
"""
import functools
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
# largest configuration count d^N a table or state vector may span; only
# all_configs holds N labels per rank, 8 N bytes each (168 MB at N=20, d=2)
MAX_CONFIGS = 2 ** 20
# a basis vector whose QR diagonal is below this share of the largest adds
# no direction to a target subspace
QR_RANK_TOL = 1e-12
# a state flagged normalized has |v| within this of 1
NORM_TOL = 1e-12
# a site matrix u is unitary when max |u^dagger u - 1| is at most this
UNITARY_TOL = 1e-12


def norm(x):
    """Euclidean norm of a real or complex array, summed by einsum."""
    r = _real_view(x)
    return math.sqrt(np.einsum("i,i->", r, r))


def inner(x, y):
    """<x|y> = sum conj(x) y of two real or complex arrays of one size, as
    a complex number, summed by einsum. Re <x|y> of complex x and y is
    inner of their real views, one sum."""
    x, y = np.ravel(x), np.ravel(y)
    if x.shape != y.shape:
        raise InputError(f"inner product of sizes {x.size} and {y.size}")
    if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        return complex(np.einsum("i,i->", _real_view(x), _real_view(y)))
    return complex(np.einsum("i,i->", np.conj(x), y))


def _real_view(x):
    """x flattened into a contiguous float array: a complex x as its real
    view, re and im interleaved."""
    x = np.ravel(x)
    if np.iscomplexobj(x):
        return np.ascontiguousarray(x, dtype=complex).view(float)
    return np.ascontiguousarray(x, dtype=float)


def _check_dim(d):
    if d not in LABELS:
        raise InputError(f"local dimension must be 2 or 3, got {d}")


def check_sites(N):
    """N as an int, or InputError unless N is an integer >= 2: 4.5 sites
    is refused, not truncated to 4."""
    try:
        n = int(N)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != N or n < 2:
        raise InputError(f"N must be an integer >= 2, got {N!r}")
    return n


def check_size(N, d):
    """d^N, or InputError stating MAX_CONFIGS when d^N exceeds it; checked
    before anything of that size is allocated."""
    _check_dim(d)
    # d >= 2, so d^N <= MAX_CONFIGS needs N <= its bit length; a huge N
    # fails here, before d ** N is computed
    if N > MAX_CONFIGS.bit_length() or d ** N > MAX_CONFIGS:
        raise InputError(f"N={N}, d={d} spans more than {MAX_CONFIGS} "
                         f"configurations (hilbert.MAX_CONFIGS)")
    return d ** N


def digits(ranks, N, d):
    """Base-d digits of a rank or an array of ranks, site 1 (the most
    significant digit) first: shape ranks.shape + (N,), as uint8. The
    package's one decoder of ranks: it writes one site at a time into an
    (N,) + ranks.shape table and returns it with the site axis last, so
    the .T of a 1-D ranks' digits is that C-contiguous table."""
    r = np.asarray(ranks, dtype=np.int64)
    out = np.empty((N,) + r.shape, dtype=np.uint8)
    for site in range(N):
        out[site] = r // d ** (N - 1 - site) % d
    return np.moveaxis(out, 0, -1)


def rank_config(rank, N, d):
    """Configuration (array of labels) for a rank, site 1 first; an array of
    ranks gives one row per rank."""
    _check_dim(d)
    return np.array(LABELS[d], dtype=np.int64)[digits(rank, N, d)]


def all_configs(N, d):
    """(d^N, N) array of labels; row index equals configuration rank."""
    return rank_config(np.arange(check_size(N, d)), N, d)


def total_sz_table(N, d):
    """Total spin-z for every configuration rank, summed one site at a
    time: the table of sites 1..n+1 repeats each entry of the table of
    sites 1..n d times and adds the spins of site n+1, so no (d^N, N)
    digit table is built. Half-integer sums are exact in any order."""
    check_size(N, d)
    table = np.zeros(1)
    for _ in range(N):
        table = (table[:, None] + SPINS[d]).ravel()
    return table


class SectorIndex:
    """Configuration ranks in one total-Sz sector, ascending.

    Listed sectors are shared by every caller, so the ranks are
    write-protected; a caller that wants labels decodes them with
    rank_config(sector.ranks, N, d).
    """

    __slots__ = ("N", "d", "Sz", "ranks")

    def __init__(self, N, d, Sz, ranks):
        self.N = int(N)
        self.d = int(d)
        self.Sz = float(Sz)
        self.ranks = np.array(ranks, dtype=np.int64)
        self.ranks.flags.writeable = False

    @property
    def size(self):
        return len(self.ranks)

    def __repr__(self):
        return (f"SectorIndex(N={self.N}, d={self.d}, Sz={self.Sz}, "
                f"size={self.size})")


@functools.cache
def _listed_sector(N, d, Sz):
    # sums of +-1/2 and +-1 are exact, so the match is exact too
    return SectorIndex(N, d, Sz, np.flatnonzero(total_sz_table(N, d) == Sz))


def enumerate_sector(N, d, Sz):
    """All configurations with total spin-z equal to Sz, ascending rank.

    Sz must be a multiple of 1/2 (InputError otherwise). Each sector is
    listed once per (N, d, Sz) and shared read-only by every later call;
    the sectors of one (N, d) partition its d^N ranks, so its listings hold
    at most d^N ranks in all.
    """
    N = check_sites(N)
    _check_dim(d)
    Sz = float(Sz)
    if not (2 * Sz).is_integer():
        raise InputError(f"Sz must be a multiple of 1/2, got {Sz!r}")
    return _listed_sector(N, int(d), Sz)


class StateVector:
    """Dense wavefunction over all d^N configurations, configuration-major.

    Immutable: the amplitude buffer is write-protected and all operations
    return fresh instances.
    """

    def __init__(self, N, d, amplitudes, normalized=False):
        dim = check_size(N, d)
        self.N = int(N)
        self.d = int(d)
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise InputError(
                f"amplitudes must have length {dim}, got {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise InputError("amplitudes contain non-finite entries")
        if normalized:
            nrm = norm(amps)
            if abs(nrm - 1.0) > NORM_TOL:
                raise InputError(f"flagged normalized but |v| = {nrm!r}, "
                                 f"not within {NORM_TOL:g} of 1")
        amps.flags.writeable = False
        self.amplitudes = amps
        self.normalized = bool(normalized)

    def norm(self):
        return norm(self.amplitudes)

    def normalize(self):
        nrm = self.norm()
        if nrm == 0:
            raise InputError("cannot normalize a zero state")
        return StateVector(self.N, self.d, self.amplitudes / nrm,
                           normalized=True)

    def overlap(self, other):
        """<self|other>."""
        _check_same_space(self, other)
        return inner(self.amplitudes, other.amplitudes)

    def tensor(self):
        return self.amplitudes.reshape((self.d,) * self.N)

    # ------------------------------------------------------------- file forms

    def to_dict(self):
        """The JSON form as a dict, amplitudes as [re, im] pairs."""
        return {"N": self.N, "d": self.d, "normalized": self.normalized,
                "amplitudes": self.amplitudes.view(float).reshape(-1, 2)
                .tolist()}

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        return cls(doc["N"], doc["d"], amps, normalized=doc["normalized"])

    def to_bytes(self):
        head = MAGIC + struct.pack("<BBI", self.d, int(self.normalized),
                                   self.N)
        return head + self.amplitudes.astype("<c16").tobytes()

    @classmethod
    def from_bytes(cls, blob):
        if blob[:6] != MAGIC:
            raise InputError("bad magic: not an IDMPS1 state file")
        if len(blob) < 12:
            raise InputError("truncated IDMPS1 state file header")
        d, normalized, N = struct.unpack("<BBI", blob[6:12])
        _check_dim(d)
        # d^N <= the amplitude count needs N <= its bit length (d >= 2); a
        # corrupt header must fail here, before d ** N is computed
        count, rest = divmod(len(blob) - 12, 16)
        if rest or N > count.bit_length() or count != d ** N:
            raise InputError("truncated IDMPS1 state file")
        amps = np.frombuffer(blob[12:], dtype="<c16")
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


def apply_site_unitary(v, u):
    """Apply a d x d unitary on every site."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (v.d, v.d):
        raise InputError(f"unitary must be {v.d}x{v.d}, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(v.d)).max() > UNITARY_TOL:
        raise InputError(f"matrix is not unitary within {UNITARY_TOL:g}")
    t = v.tensor()
    for i in range(v.N):
        t = _apply_one_site(t, u, i)
    return StateVector(v.N, v.d, t.reshape(-1), normalized=v.normalized)


def spin_matrices(d):
    """(Sx, Sy, Sz) in the label basis (+1,-1) or (+1,0,-1), as complex
    matrices; spin_ladder is the real form that total-spin sweeps use."""
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


def spin_ladder(d):
    """(S^+, Sz) as real matrices in the label basis (+1,-1) or (+1,0,-1).

    S^+ equals Sx + i Sy of spin_matrices bit for bit: its spin-1 entries
    are the sum 1/sqrt(2) + 1/sqrt(2) of the two parts, which as a double is
    2 / sqrt(2), one ulp off math.sqrt(2). S^- is its transpose.
    """
    _check_dim(d)
    up = [1.0] if d == 2 else [2 / math.sqrt(2)] * 2
    return np.diag(up, 1), np.diag(SPINS[d])


def raise_total(t, d, N):
    """sum_i S^+_i applied to the first N axes of the tensor t, each of
    length d; further axes (columns of a basis, say) ride along."""
    up = np.diagonal(spin_ladder(d)[0], 1)
    out = np.zeros_like(t)
    for i in range(N):
        # S^+ on site i takes label digit k + 1 to k with weight up[k]
        np.moveaxis(out, i, -1)[..., :-1] += \
            np.moveaxis(t, i, -1)[..., 1:] * up
    return out


def _apply_one_site(t, m, i):
    return np.moveaxis(np.tensordot(m, t, axes=([1], [i])), 0, i)


def total_spin_quantum(v):
    """(S, Sz) from <S_tot^2> = S(S+1) and <Sz_tot> on a normalized state.

    S^2 = S^- S^+ + Sz (Sz + 1), and Sz is diagonal in the ranks
    (total_sz_table), so <S^2> = |S^+ v|^2 + <Sz (Sz + 1)>: one real sweep
    of S^+ over the real and imaginary parts side by side.
    """
    v = v if v.normalized else v.normalize()
    parts = v.amplitudes.view(float).reshape((v.d,) * v.N + (2,))
    raised = raise_total(parts, v.d, v.N)
    weight = (parts * parts).reshape(-1, 2).sum(axis=1)
    sz = total_sz_table(v.N, v.d)
    s2 = inner(raised, raised).real + inner(weight, sz * (sz + 1)).real
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * s2)), inner(weight, sz).real


def fidelity_per_site(a, b):
    """|<a|b>|^(2/N) after normalizing both states: the fidelity against
    the one-dimensional Subspace of b."""
    return fidelity_per_site_subspace(a, [b])


def _state_list(basis):
    """basis as a list of StateVector; anything else, a lone StateVector
    included, is an InputError that asks for one."""
    items = None
    if not isinstance(basis, StateVector):
        try:
            items = list(basis)
        except TypeError:
            pass
    if items is not None and all(isinstance(b, StateVector) for b in items):
        return items
    if isinstance(basis, StateVector):
        got = "one StateVector; pass [state]"
    elif items is None:
        got = type(basis).__name__
    else:
        got = "a list holding " + ", ".join(sorted(
            {type(b).__name__ for b in items
             if not isinstance(b, StateVector)}))
    raise InputError(f"a target subspace is a list of StateVector, got {got}")


class Subspace:
    """Orthonormal basis of span(basis), built once for any number of
    fidelities against it.

    The basis vectors are orthonormalized by QR, so any spanning set of a
    degenerate target subspace is accepted; a QR direction whose diagonal
    is at or below QR_RANK_TOL times the largest is dropped, and a set
    with no direction left is an InputError. The k kept vectors q_j are
    held once as qh, the read-only contiguous complex (k, d^N) array
    q^dagger, so a state's k overlaps are one einsum against its
    amplitudes.
    """

    def __init__(self, basis):
        basis = _state_list(basis)
        if not basis:
            raise InputError("empty target subspace")
        for b in basis[1:]:
            _check_same_space(basis[0], b)
        self.N, self.d = basis[0].N, basis[0].d
        cols = np.column_stack([b.amplitudes for b in basis])
        q, r = np.linalg.qr(cols)
        keep = np.abs(np.diag(r)) > QR_RANK_TOL * np.abs(np.diag(r)).max()
        if not keep.any():
            raise InputError("target subspace has no direction: every QR "
                             "diagonal is 0 (hilbert.QR_RANK_TOL)")
        self.qh = np.ascontiguousarray(q[:, keep].T.conj())
        self.qh.flags.writeable = False

    def overlaps(self, a):
        """(q^dagger a, |a|): the k overlaps <q_j|a> of a nonzero state a,
        and its norm."""
        _check_same_space(a, self)
        na = a.norm()
        if na == 0:
            raise InputError("fidelity of a zero state is undefined")
        return np.einsum("ij,j->i", self.qh, a.amplitudes), na

    def residual(self, a):
        """|a - P a|^2 / |a|^2 for the projector P = q q^dagger: the
        infidelity 1 - <a|P|a> / |a|^2, taken from the complement, so it
        keeps its relative accuracy where the fidelity rounds to 1."""
        w, na = self.overlaps(a)
        rest = a.amplitudes - np.einsum("ij,i->j", self.qh.conj(), w)
        return (norm(rest) / na) ** 2

    def __repr__(self):
        return f"Subspace(N={self.N}, d={self.d}, rank={len(self.qh)})"


def fidelity_per_site_subspace(a, basis):
    """<a|P|a>^(1/N) for the projector P onto span(basis).

    basis is a Subspace, or a spanning list of states that is wrapped in
    one here; a scan that scores many states against one ground space
    passes its Subspace so the QR runs once.
    """
    space = basis if isinstance(basis, Subspace) else Subspace(basis)
    w, na = space.overlaps(a)
    # w / na would multiply by 1/na, which rounds differently
    return norm(w.view(float) / na) ** (2.0 / a.N)


def embed_sector(reduced, sector, normalized=False):
    """StateVector with the reduced amplitudes placed at the sector ranks."""
    amps = np.zeros(check_size(sector.N, sector.d), dtype=complex)
    amps[sector.ranks] = reduced
    return StateVector(sector.N, sector.d, amps, normalized=normalized)
