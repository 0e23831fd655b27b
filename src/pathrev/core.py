"""Shared value types for the toolkit.

Time grids, path ensembles (diffusion and jump), vector/matrix fields, the
deterministic per-path random stream contract, ensemble serialization, and
the CSV and JSON text of the command-line artifacts.  Everything downstream
builds on these containers, so they are deliberately small, immutable and
numpy-only.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

_U64 = (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.flags.writeable = False
_MAX_INTP = np.iinfo(np.intp).max

_MAGIC = b"PENS1\x00"
# version, dim, n_paths, n_steps, T, seed and the byte length of the UTF-8
# model tag that follows; then the paths as little-endian float64, and no more
_HEADER = struct.Struct("<HIQQdQI")


class PathrevError(Exception):
    """Base of every pathrev error; the command line exits 2 on each."""


class ParameterError(PathrevError, ValueError):
    """Invalid model or grid parameters."""


class SimulationError(PathrevError, RuntimeError):
    """A simulation produced a non-finite state."""


class SupportError(PathrevError, RuntimeError):
    """Evaluation requested outside the trusted support of a density."""


class BandwidthError(PathrevError, ValueError):
    """A bandwidth rule could not produce a usable bandwidth."""


class ConsistencyError(PathrevError, RuntimeError):
    """Inputs violate a structural consistency requirement."""


class NumericError(PathrevError, RuntimeError):
    """A numerically degenerate quantity was encountered."""


class DomainError(PathrevError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(PathrevError, ValueError):
    """Invalid run configuration."""


def _philox_state(seed: int, path_index: int) -> dict:
    """Philox state at the start of the stream keyed by (seed, path index).

    The key is built exactly as two uint64 words (seed and index mod 2^64),
    never through float64, so distinct keys below 2^64 give distinct streams.
    Counter 0 and an empty buffer make the stream independent of whatever
    the bit generator drew before.
    """
    key = np.array([int(seed) & _U64, int(path_index) & _U64], dtype=np.uint64)
    return {"bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": key},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Random stream for one path, a pure function of (seed, path index).

    Counter-based (Philox) so the stream is independent of how paths are
    batched or scheduled.  Every stochastic routine in the package draws
    per-path randomness from this stream, through this function or through
    path_streams, which yields the same streams from one reused generator.
    """
    return next(path_streams(seed, (path_index,)))


def path_streams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """path_rng(seed, i) for each i in indices, from one reused generator.

    Each yielded generator is the same object with its state reset, so it is
    valid only until the next yield; the draws are bit-identical to
    path_rng's.  Resetting a state costs a fraction of building a Philox.
    """
    # seed 0 only fills an initial state that is replaced before any draw;
    # an unseeded Philox would first read OS entropy
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # assigning a state copies it into the generator, so one state dict
    # serves every index with only its key's index word rewritten
    state = _philox_state(seed, 0)
    key = state["state"]["key"]
    for i in indices:
        key[1] = int(i) & _U64
        bitgen.state = state
        yield rng


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the multipliers and key increments of Random123, as numpy's
# Philox uses them
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhi(m: int, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products m * x, from 32-bit halves, in a
    new array; a and b are scratch arrays of x's shape."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    hi, lo = x >> _S32, x & _LO32
    # a collects the middle column: the carry of lo * m_lo plus the low
    # halves of the two cross products, each term below 2^32
    np.multiply(lo, m_lo, out=a)
    a >>= _S32
    lo *= m_hi
    a += np.bitwise_and(lo, _LO32, out=b)
    lo >>= _S32
    np.multiply(hi, m_lo, out=b)
    hi *= m_hi
    hi += lo
    a += np.bitwise_and(b, _LO32, out=lo)
    b >>= _S32
    hi += b
    a >>= _S32
    hi += a
    return hi


def philox_uniforms(seed: int, indices: np.ndarray, block: int) -> np.ndarray:
    """The (n, 4) uniforms 4(block - 1) ... 4 block - 1 of path_rng(seed, i)
    for each i in the integer array indices, bit for bit, with block >= 1.

    Philox is counter-based: numpy's generator computes its block c, four
    64-bit words, from the counter (c, 0, 0, 0) and the key alone, and
    random() turns word x into the double (x >> 11) 2^-53.  So a block is
    computed here for many keys at once, without a generator per path.
    Keys are masked as in _philox_state.  uint64 arrays wrap silently and
    the seed word's schedule is computed on Python ints, so nothing warns.
    """
    if indices.dtype.kind not in "iu":
        # a list of ints past 2^63 converts to float64 and loses its low bits
        raise ParameterError(f"path indices must be an integer array, got {indices.dtype}")
    k0 = int(seed) & _U64
    k1 = indices.astype(np.uint64)
    c0 = np.full(k1.shape, int(block) & _U64, dtype=np.uint64)
    c1, c2, c3 = np.zeros_like(c0), np.zeros_like(c0), np.zeros_like(c0)
    a, b = np.empty_like(c0), np.empty_like(c0)
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    for r in range(_PHILOX_ROUNDS):
        if r:
            k1 += np.uint64(_PHILOX_W[1])
        hi0, hi1 = _mulhi(_PHILOX_M[0], c0, a, b), _mulhi(_PHILOX_M[1], c2, a, b)
        hi1 ^= c1
        hi1 ^= np.uint64((k0 + r * _PHILOX_W[0]) & _U64)
        hi0 ^= c3
        hi0 ^= k1
        c0 *= m0
        c2 *= m1
        c0, c1, c2, c3 = hi1, c2, hi0, c0
    words = np.stack((c0, c1, c2, c3), axis=1)
    words >>= np.uint64(11)
    out = words.astype(np.float64)
    out *= 2.0 ** -53
    return out


def _matvec_rows(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise M @ v_i, i.e. V @ M.T, bit for bit.

    A 1 x 1 M skips the BLAS call: V * m + 0.0 is gemm's 0 + v * m, so it
    agrees on the sign of zero, on infinities, nans and subnormals, at a
    fraction of the cost.  A larger M keeps V @ M.T: a contiguous copy of
    M.T would be faster, but its gemm kernel can differ in the sign of a
    zero or of an overflowed sum.  One row goes through gemm doubled, as
    gemv sums in another order: a row's bits do not depend on its batch.
    """
    if M.shape == (1, 1):
        return V * M[0, 0] + 0.0
    if V.shape[0] == 1:
        return (np.concatenate([V, V]) @ M.T)[:1]
    return V @ M.T


def _quad_rows(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise quadratic form v_i . M v_i through _matvec_rows, so a row's
    bits do not depend on its batch.  At d = 1 it is einsum's value bit for
    bit."""
    return (V * _matvec_rows(M, V)).sum(axis=1)


def _sq_distances(X: np.ndarray, YT: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(m, n) squared Euclidean distances between the rows of X (m, dim) and
    the columns of YT (dim, n), summed one coordinate at a time in the order
    of scipy's cdist, so its square root is cdist's value bit for bit."""
    out = np.subtract(X[:, :1], YT[0], out=out)
    out *= out
    for k in range(1, X.shape[1]):
        T = np.subtract(X[:, k:k + 1], YT[k])
        T *= T
        out += T
    return out


def _check_size(shape: tuple[int, ...]) -> None:
    """MemoryError, as for an allocation too large to make, for a float64
    array of a shape whose byte size numpy cannot represent: numpy raises a
    ValueError for such a shape."""
    if math.prod(shape) * 8 > _MAX_INTP:
        raise MemoryError(f"an array of shape {shape} is beyond numpy's maximum size")


def _batch(X, dim: int) -> np.ndarray:
    """X as an (n, dim) batch of query points; any other shape is refused."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ParameterError(f"expected points of dimension {dim}, got shape {X.shape}")
    return X


def _clamp_time(t: float, T: float) -> float:
    """t clamped to [0, T], for a time in [0, T] up to roundoff."""
    if not (-1e-12 <= t <= T * (1 + 1e-12) + 1e-12):
        raise ParameterError(f"time {t} outside [0, {T}]")
    return min(max(t, 0.0), T)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def _symmetric(A: np.ndarray, name: str) -> np.ndarray:
    """The square matrix A symmetrized and frozen.  A matrix farther than
    atol 1e-12 (np.allclose) from its transpose is refused: covariances and
    diffusion matrices are symmetric, and averaging a non-symmetric one with
    its transpose would run another model than the one asked for."""
    if not np.allclose(A, A.T, atol=1e-12):
        raise ParameterError(f"{name} must be symmetric")
    return _freeze(0.5 * (A + A.T))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n_steps intervals."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"horizon must be finite and positive, got {self.T}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ParameterError(f"n_steps must be a positive integer, got {self.n_steps}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        _check_size((self.n_steps + 1,))
        t = np.arange(self.n_steps + 1, dtype=np.float64) * self.dt
        t[-1] = self.T  # last node is T itself, not an accumulated sum
        t.flags.writeable = False
        return t

    def node(self, i: int) -> float:
        return float(self.nodes[i])

    def index_of(self, t: float) -> int:
        """Nearest grid node to t.  t must lie within [0, T] up to roundoff."""
        return int(round(_clamp_time(t, self.T) / self.dt))


def make_grid(T: float, n_steps: int) -> TimeGrid:
    return TimeGrid(T, n_steps)


@dataclass(frozen=True)
class PathEnsemble:
    """Paths of a diffusion sampled on a common grid.

    paths has shape (n_paths, n_steps + 1, dim), float64, finite.  seed and
    model_tag record provenance; together with the grid they determine the
    tensor exactly (see path_rng).
    """

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    model_tag: str = ""

    def __post_init__(self):
        p = np.asarray(self.paths, dtype=np.float64)
        if p.ndim != 2 + 1:
            raise ParameterError(f"paths must be 3-d, got shape {p.shape}")
        if p.shape[1] != self.grid.n_steps + 1:
            raise ParameterError(
                f"paths second axis {p.shape[1]} != n_steps+1 = {self.grid.n_steps + 1}")
        if p.shape[0] < 1 or p.shape[2] < 1:
            raise ParameterError(f"degenerate paths shape {p.shape}")
        if not np.isfinite(p).all():
            raise ParameterError("paths contain non-finite values")
        object.__setattr__(self, "paths", _freeze(p))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]


_FLIP_SUFFIX = "~rev"


def flip_ensemble(e: PathEnsemble) -> PathEnsemble:
    """Reverse every path in time.  Involution: flipping twice is bit-exact."""
    tag = e.model_tag
    tag = tag[: -len(_FLIP_SUFFIX)] if tag.endswith(_FLIP_SUFFIX) else tag + _FLIP_SUFFIX
    return PathEnsemble(e.grid, e.paths[:, ::-1, :].copy(), e.seed, tag)


@dataclass(frozen=True)
class JumpPathEnsemble:
    """Jump paths of a finite-state walk on [0, T], stored grid-free in
    columns.

    The jumps of path i are rows offsets[i]:offsets[i+1] of the columns
    times and dst, in time order.  States are integers in 0..n_states-1.
    Paths are cadlag: the state at t is the target of the last jump at or
    before t.  The column src of each jump's source state is not taken but
    derived: a jump leaves its path's initial state or the last jump's
    target, so a path's chain of states cannot break.  The construction
    refuses offsets that do not run from 0 to the number of jumps without
    decreasing, states out of range, and times outside [0, T] or decreasing
    within a path.
    """

    n_states: int
    T: float
    initial_states: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    dst: np.ndarray
    seed: int
    src: np.ndarray = field(init=False)

    def __post_init__(self):
        T = float(self.T)
        init, offsets, dst = (_frozen_ints(getattr(self, name), name) for name in
                              ("initial_states", "offsets", "dst"))
        times = _freeze(self.times)
        if init.size < 1:
            raise ParameterError("initial_states must be non-empty")
        if offsets.size != init.size + 1:
            raise ParameterError("offsets and initial_states disagree on n_paths")
        if times.ndim != 1 or times.size != dst.size:
            raise ParameterError("times and dst must be 1-d columns of one length")
        if offsets[0] != 0 or offsets[-1] != times.size or (np.diff(offsets) < 0).any():
            raise ParameterError("offsets must run from 0 to the number of jumps "
                                 "without decreasing")
        for name, states in (("initial", init), ("target", dst)):
            if states.size and (states.min() < 0 or states.max() >= self.n_states):
                raise ParameterError(f"{name} state outside 0..n_states-1")
        # each jump leaves its path's initial state or the last jump's target
        jumped = offsets[:-1] < offsets[1:]
        first = offsets[:-1][jumped]
        src = np.empty_like(dst)
        src[1:] = dst[:-1]
        src[first] = init[jumped]
        src.flags.writeable = False
        if not ((times >= 0.0) & (times <= T)).all():
            raise ParameterError(f"jump time outside [0, {T}]")
        back = np.diff(times) < 0.0
        back[first[first > 0] - 1] = False  # the step into the next path
        if back.any():
            raise ParameterError("jump times decrease within a path")
        for name, value in (("initial_states", init), ("offsets", offsets), ("times", times),
                            ("src", src), ("dst", dst), ("T", T), ("seed", int(self.seed))):
            object.__setattr__(self, name, value)

    @property
    def n_paths(self) -> int:
        return self.initial_states.size

    @cached_property
    def events(self) -> tuple:
        """Per path, its (time, src, dst) tuples in order."""
        rows = list(zip(self.times.tolist(), self.src.tolist(), self.dst.tolist()))
        bounds = self.offsets.tolist()
        return tuple(tuple(rows[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))


def _frozen_ints(arr, name: str) -> np.ndarray:
    out = np.array(arr, dtype=np.int64)
    if out.ndim != 1:
        raise ParameterError(f"{name} must be a 1-d array")
    out.flags.writeable = False
    return out


class VectorField:
    """Time-dependent vector field evaluated on batches of points.

    The wrapped function receives (t, X) with X of shape (n, dim) and must
    return an (n, dim) array.  A query is always an (n, dim) batch; a single
    point is the batch x[None, :], and a (dim,) array is refused.  linear is
    the frozen (M, c) of a field x -> M x + c built by linear or zero, else
    None; the reversal and the entropy report take closed forms from it.
    """

    def __init__(self, fn: Callable[[float, np.ndarray], np.ndarray], dim: int,
                 linear: tuple[np.ndarray, np.ndarray] | None = None):
        self._fn = fn
        self.dim = int(dim)
        self.linear = linear

    def __call__(self, t: float, X: np.ndarray) -> np.ndarray:
        X = _batch(X, self.dim)
        out = np.asarray(self._fn(t, X), dtype=np.float64)
        if out.shape != X.shape:
            raise NumericError(f"field returned shape {out.shape}, expected {X.shape}")
        return out

    @staticmethod
    def zero(dim: int) -> "VectorField":
        """The zero field, which is linear with M = 0 and c = 0."""
        zeros = (_freeze(np.zeros((dim, dim))), _freeze(np.zeros(dim)))
        return VectorField(lambda t, X: np.zeros_like(X), dim, zeros)

    @staticmethod
    def constant(vec: Sequence[float]) -> "VectorField":
        v = np.asarray(vec, dtype=np.float64)
        return VectorField(lambda t, X: np.broadcast_to(v, X.shape).copy(), v.size)

    @staticmethod
    def linear(matrix: np.ndarray, offset: Sequence[float] | None = None) -> "VectorField":
        """x -> matrix @ x + offset, constant in t."""
        A = _freeze(np.array(matrix, dtype=np.float64))
        c = _freeze(np.zeros(A.shape[0]) if offset is None
                    else np.array(offset, dtype=np.float64))
        return VectorField(lambda t, X: _matvec_rows(A, X) + c, A.shape[1], (A, c))


class MatrixField:
    """A constant symmetric diffusion matrix a, queried like a field.

    apply, quad and solve multiply the rows of V by a, or by its inverse,
    computed once on the first solve, through _matvec_rows: a 1-d matrix is
    one elementwise product and a row's bits do not depend on its batch.
    A constant a needs no query point, so they take the rows alone.
    """

    def __init__(self, matrix: np.ndarray):
        A = np.asarray(matrix, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ParameterError(f"diffusion matrix shape {A.shape} is not square")
        self.dim = A.shape[0]
        self.constant_matrix = _symmetric(A, "diffusion matrix")

    @classmethod
    def identity(cls, dim: int) -> "MatrixField":
        return cls(np.eye(dim))

    @cached_property
    def _inv(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.constant_matrix)
        except np.linalg.LinAlgError:
            raise NumericError("diffusion matrix is singular") from None

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Row-wise a v_i."""
        return _matvec_rows(self.constant_matrix, V)

    def quad(self, V: np.ndarray) -> np.ndarray:
        """Row-wise quadratic form v_i . a v_i."""
        return _quad_rows(self.constant_matrix, V)

    def solve(self, V: np.ndarray) -> np.ndarray:
        """Row-wise a^{-1} v_i."""
        return _matvec_rows(self._inv, V)


def psd_sqrt(A: np.ndarray) -> np.ndarray:
    """Factor S with S S^T = A for symmetric PSD A.  Tolerates zero modes."""
    A = np.asarray(A, dtype=np.float64)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(0.5 * (A + A.T))
        if w.min() < -1e-10 * max(1.0, abs(w).max()):
            raise NumericError(f"matrix has negative eigenvalue {w.min()}") from None
        return Q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


# degree-13 Pade coefficients b_k / b_0 of exp (Higham 2005, SIAM J. Matrix
# Anal. Appl. 26:1179); with b_0 = 1, expm of a zero matrix is I exactly
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
_THETA13 = 5.37  # largest 1-norm at which that approximant is exact to roundoff


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential with numpy alone: scipy's linear algebra module
    takes 0.2 s to import, which no run needs to pay.

    A scaled by 2^-s to 1-norm at most _THETA13 gives the Pade approximant
    (V - U)^{-1} (V + U) from its even and odd parts V and U; that is
    squared s times."""
    A = np.asarray(A, dtype=np.float64)
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise NumericError("matrix exponential of a non-finite matrix")
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    X = A * 0.5 ** s
    b, eye = _PADE13, np.eye(A.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1) / sqrt(n).

    The standard error of a single value is inf; an empty sample raises.
    """
    n = vals.size
    if n == 0:
        raise ParameterError("empty sample")
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return float(vals.mean()), se


def save_ensemble(e: PathEnsemble, path: str) -> None:
    """Write an ensemble to the binary container (bit-exact round trip),
    the paths straight from their array, with no bytes copy.  The header
    stores the seed as a signed 64-bit value, so a seed outside
    [-2^63, 2^63) is refused rather than read back as a different number."""
    if not -(1 << 63) <= e.seed < (1 << 63):
        raise ParameterError(f"seed {e.seed} outside [-2^63, 2^63) cannot be stored")
    tag = e.model_tag.encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(_HEADER.pack(1, e.dim, e.n_paths, e.grid.n_steps,
                             e.grid.T, e.seed & _U64, len(tag)))
        f.write(tag)
        f.write(np.ascontiguousarray(e.paths, dtype="<f8"))


def load_ensemble(path: str) -> PathEnsemble:
    """Read a container written by save_ensemble.  A file that is not exactly
    what its header describes (cut short, padded, a tag that is not UTF-8)
    raises ConsistencyError naming the file."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(_MAGIC) + _HEADER.size)
        if not head.startswith(_MAGIC):
            raise ConsistencyError(f"{path}: not an ensemble container")
        if len(head) < len(_MAGIC) + _HEADER.size:
            raise ConsistencyError(f"{path}: container header cut short")
        version, dim, n_paths, n_steps, T, seed_u, taglen = _HEADER.unpack_from(head, len(_MAGIC))
        if version != 1:
            raise ConsistencyError(f"{path}: unsupported container version {version}")
        count = n_paths * (n_steps + 1) * dim
        want = len(head) + taglen + 8 * count
        if size != want:
            raise ConsistencyError(f"{path}: {size} bytes where the header describes {want}")
        try:
            tag = f.read(taglen).decode("utf-8")
        except UnicodeDecodeError:
            raise ConsistencyError(f"{path}: model tag is not UTF-8") from None
        data = np.frombuffer(f.read(8 * count), dtype="<f8")
    seed = seed_u - (1 << 64) if seed_u >= (1 << 63) else seed_u
    paths = data.reshape(n_paths, n_steps + 1, dim)
    return PathEnsemble(TimeGrid(T, n_steps), paths, seed, tag)


# ---------------------------------------------------------------- CSV text
# Floats are written as Python's repr writes them: the shortest digits that
# read back as the value, and among those the nearest to it.  repr costs
# about 1 us a value; _shortest_digits finds the same digits for whole
# columns with error-free float arithmetic and proves them value by value.
# For the 299 041 jumps of the walk benchmark (the bundled cycle at 1e5
# paths), events.csv took 0.074 s through _csv_text against 0.28 s for the
# %-format of the rows' reprs it replaces (medians of 12 alternating trials
# in one process, 12 won, 2 vCPUs).  The kernels work in place where they
# can: fresh float64 temporaries cost more in page faults than arithmetic.

# rows of CSV text built as one matrix; 2^14 was faster than 2^13 and 2^16
_CSV_CHUNK = 1 << 14
_VELTKAMP = float(2 ** 27 + 1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half of 26 bits (Veltkamp)."""
    hi = a * _VELTKAMP
    lo = hi - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    return hi, lo


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and its rounding error: s + e == a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    e = s - v
    np.subtract(a, e, out=e)
    np.subtract(b, v, out=v)
    e += v
    return s, e


# 10^k as a double, exact for k <= 22 (5^22 < 2^53), with its two halves,
# and as an integer for k <= 18
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
_IPOW10 = np.array([10 ** k for k in range(19)], dtype=np.int64)
# a float's cell: sign, "0.000", then 17 digit slots with a slot for the
# point after each of the first 15; NUL marks an empty slot
_CELL = 38
# "0.000" in front of the digits of E < 0: slot i shows for E < _LEAD_BELOW[i]
_LEAD, _LEAD_BELOW = np.frombuffer(b"0.000", dtype=np.uint8), np.array([0, 0, -1, -2, -3])
_ARANGE = np.arange(17)


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of the positive doubles x, as int64 arrays D, n, E: x
    is written with the n digits of D, the first at 10^E.  The fourth array
    marks the values these are proven for; elsewhere D, n and E mean nothing.

    Proven are normal values in [1e-4, 1e15) that are not powers of two
    (whose lower neighbour is nearer than the upper) and whose log10 lies
    more than 1e-9 from an integer, so that np.log10 cannot misplace E.
    With x = m 2^q, m of 53 bits, a number reads back as x iff it lies
    within 2^(q-1) of x, or on that bound with m even, as the reader rounds
    half to even.  At 17 digits, x 10^j with j = 16 - E is split exactly
    into the nearest integer D17 and a rest u + t (Dekker's two-product;
    10^j is exact), and the bound there is above 1/2, so D17 reads back.
    Then n = 16, 15, ... are tried on the values that read back at n + 1:
    the n-digit candidate is the multiple of 10^(17-n) nearest x 10^j, at
    the distance R + u + t for D17's remainder R.  Rounding is monotone,
    so the float distance decides against the bound unless it lands on
    it, and such values are left unproven.  In [1e-4, 1e15) the midpoints
    x +- 2^(q-1) = (2 m +- 1) 2^(q-1) have q <= -3 and so at least 19
    significant digits: no candidate of at most 16 digits lies on the
    bound, and only a rounded distance lands there.  A tie between two
    nearest candidates that both read back is left unproven too.
    """
    with np.errstate(all="ignore"):
        lg = np.log10(x)
        mant, e2 = np.frexp(x)
        ok = (x >= 1e-4) & (x < 1e15) & (mant != 0.5)
        ok &= np.abs(lg - np.rint(lg)) > 1e-9
    # the others take stand-ins, so no warning is raised
    x = np.where(ok, x, 1.5)
    E = np.floor(np.where(ok, lg, 0.0)).astype(np.int64)
    j = 16 - E
    P = _POW10[j]
    p = x * P
    # err = x P - p, exactly
    xh, xl = _split(x)
    ph, pl = _POW10_HI[j], _POW10_LO[j]
    err = xh * ph
    err -= p
    xh *= pl
    err += xh
    ph *= xl
    err += ph
    xl *= pl
    err += xl
    r = np.rint(p)
    p -= r  # exact
    u, t = _two_sum(p, err)
    c = np.rint(u)
    u -= c
    # half-way between two integers, which both read back: left to repr
    ok &= np.abs(u) != 0.5
    v = u + t  # x P - (r + c), rounded
    bound = np.ldexp(P, e2 - 54)  # exact: 2^(q-1) 10^j
    D17 = r.astype(np.int64)
    D17 += c.astype(np.int64)
    n = np.where(ok, 17, 0)
    live = np.flatnonzero(ok)
    for k in range(1, 17):
        if not live.size:
            break
        step = int(_IPOW10[k])
        Dl, vl = D17[live], v[live]
        m = Dl - Dl // step * step  # D17 mod 10^k; // by a constant is the fast one
        # D17 - R is the multiple of 10^k nearest x P; half-way, v decides
        half = m == step // 2
        m -= step * ((m > step // 2) | (half & (vl > 0.0)))
        R = m.astype(np.float64)  # exact: |R| <= 10^16 / 2 < 2^53
        d = np.abs(R + vl)
        bl = bound[live]
        reads = d < bl
        ok[live[d == bl]] = False
        tie = reads & half & (vl == 0.0)
        ok[live[tie]] = False
        reads &= ~tie
        live = live[reads]
        n[live] = 17 - k
    # the nearest multiple of 10^(17-n) again, as n digits
    drop = _IPOW10[17 - n]
    D, m = np.divmod(D17, drop)
    D += (2 * m > drop) | ((2 * m == drop) & (v > 0.0))
    return D, n, E, ok


def _put_digits(y: np.ndarray, out: np.ndarray) -> None:
    """The len(out) decimal digits of the nonnegative integers y (int64 or
    uint64), the first the most significant, as ASCII into the rows of out.
    Limbs of 9 digits are cut off first, so the digits come from uint32
    division by a constant."""
    for end in range(len(out), 0, -9):
        if end > 9:
            y, limb = np.divmod(y, 10 ** 9)
        else:
            limb = y
        limb = limb.astype(np.uint32)
        for row in range(end - 1, max(end - 9, 0) - 1, -1):
            q = limb // np.uint32(10)
            limb -= q * np.uint32(10)
            limb += np.uint32(ord("0"))
            out[row] = limb
            limb = q


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """repr(float(v)) of each value of x into the columns of out, a
    (_CELL, len(x)) uint8 matrix, with NUL wherever no character goes.
    _shortest_digits gives the digits, placed in repr's fixed notation;
    each value it does not prove takes repr."""
    x = np.asarray(x, dtype=np.float64)
    D, n, E, ok = _shortest_digits(np.abs(x))
    out[0] = np.signbit(x)
    out[0] *= ord("-")
    np.less(E, _LEAD_BELOW[:, None], out=out[1:6], casting="unsafe")
    out[1:6] *= _LEAD[:, None]
    np.equal(E, _ARANGE[:15, None], out=out[7:37:2], casting="unsafe")
    out[7:37:2] *= ord(".")
    digits = np.empty((17, x.size), np.uint8)
    _put_digits(D * _IPOW10[17 - n], digits)
    # fixed notation shows a digit after the point, a padding zero if need be
    digits *= _ARANGE[:, None] < np.where(E < 0, n, np.maximum(n, E + 2))
    out[6:36:2] = digits[:15]
    out[36:] = digits[15:]
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([repr(v) for v in x[bad].tolist()], dtype=f"S{_CELL}")
        out[:, bad] = text.view(np.uint8).reshape(bad.size, _CELL).T


def _int_width(v: np.ndarray) -> int:
    """Characters of the longest str(int(i)) over the integer array v, a
    place for the sign included."""
    v = np.asarray(v, dtype=np.int64)
    return 1 + (len(str(int(np.abs(v).view(np.uint64).max()))) if v.size else 1)


def _int_cells(v: np.ndarray, out: np.ndarray) -> None:
    """str(int(i)) of each value of the integer array v into the columns of
    out, a (_int_width(v), len(v)) uint8 matrix, with NUL wherever no
    character goes."""
    v = np.asarray(v, dtype=np.int64)
    mag = np.abs(v).view(np.uint64)  # |min int64| wraps to itself, 2^63 as uint64
    out[0] = v < 0
    out[0] *= ord("-")
    _put_digits(mag, out[1:])
    # leading zeros; the units digit always shows
    out[1:-1] *= mag >= _IPOW10[len(out) - 2:0:-1, None].view(np.uint64)


def _csv_text(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The CSV text of int or float columns of one shape, one block of
    bytes for the header and one per _CSV_CHUNK rows or so.  A column's
    values are its entries in C order, so (paths, nodes) arrays give one
    row per path and node; blocks are cut along the first axis, and a
    broadcast column is copied one block at a time.  Floats read as repr
    writes them (_float_cells), integers as str does.

    A block is built as one uint8 matrix with a column per line and the
    cells of a CSV column in fixed rows, NUL-padded, so that every step
    runs along contiguous rows.  Rows empty in every line are dropped, and
    the transposed matrix without its NULs is the text."""
    yield (",".join(header) + "\n").encode("ascii")
    columns = [np.asarray(c) for c in columns]
    if not columns or not columns[0].size:
        return
    step = max(1, _CSV_CHUNK * len(columns[0]) // columns[0].size)
    for a in range(0, len(columns[0]), step):
        parts = [c[a:a + step].reshape(-1) for c in columns]
        widths = [_CELL if c.dtype.kind == "f" else _int_width(c) for c in parts]
        lines = np.empty((sum(widths) + len(widths), parts[0].size), np.uint8)
        at = 0
        for c, width in zip(parts, widths):
            cells = _float_cells if c.dtype.kind == "f" else _int_cells
            cells(c, lines[at:at + width])
            lines[at + width] = ord(",")
            at += width + 1
        lines[-1] = ord("\n")
        lines = lines[lines.any(axis=1)]
        yield lines.T.tobytes().translate(None, b"\0")


# --------------------------------------------------------------- JSON text

def _json_text(obj) -> str:
    """obj as the CLI writes every JSON document, file or stdout: sorted
    keys, 2-space indent, and null for a non-finite number, which JSON
    cannot hold."""
    def finite(o):
        if isinstance(o, float):
            return o if math.isfinite(o) else None
        if isinstance(o, dict):
            return {k: finite(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [finite(v) for v in o]
        return o

    return json.dumps(finite(obj), indent=2, sort_keys=True, allow_nan=False)
