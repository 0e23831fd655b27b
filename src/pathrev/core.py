"""Shared value types for the toolkit.

Time grids, path ensembles (diffusion and jump), vector/matrix fields, the
deterministic per-path random stream contract, and ensemble serialization.
Everything downstream builds on these containers, so they are deliberately
small, immutable and numpy-only.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

_U64 = (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.flags.writeable = False

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
        t = np.arange(self.n_steps + 1, dtype=np.float64) * self.dt
        t[-1] = self.T  # last node is T itself, not an accumulated sum
        t.flags.writeable = False
        return t

    def node(self, i: int) -> float:
        return float(self.nodes[i])

    def index_of(self, t: float) -> int:
        """Nearest grid node to t.  t must lie within [0, T] up to roundoff."""
        if not np.isfinite(t) or t < -1e-12 or t > self.T * (1 + 1e-12) + 1e-12:
            raise ParameterError(f"time {t} outside [0, {self.T}]")
        return int(round(min(max(t, 0.0), self.T) / self.dt))


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
    times, src and dst, in time order.  States are integers in
    0..n_states-1.  Paths are cadlag: the state at t is the target of the
    last jump at or before t.  The construction refuses offsets that do not
    run from 0 to the number of jumps without decreasing, states out of
    range, a jump that does not leave the state its path is in, and times
    outside [0, T] or decreasing within a path.
    """

    n_states: int
    T: float
    initial_states: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    seed: int

    def __post_init__(self):
        T = float(self.T)
        init, offsets, src, dst = (_frozen_ints(getattr(self, name), name) for name in
                                   ("initial_states", "offsets", "src", "dst"))
        times = _freeze(self.times)
        if init.size < 1:
            raise ParameterError("initial_states must be non-empty")
        if offsets.size != init.size + 1:
            raise ParameterError("offsets and initial_states disagree on n_paths")
        if times.ndim != 1 or not times.size == src.size == dst.size:
            raise ParameterError("times, src and dst must be 1-d columns of one length")
        if offsets[0] != 0 or offsets[-1] != times.size or (np.diff(offsets) < 0).any():
            raise ParameterError("offsets must run from 0 to the number of jumps "
                                 "without decreasing")
        for name, states in (("initial", init), ("source", src), ("target", dst)):
            if states.size and (states.min() < 0 or states.max() >= self.n_states):
                raise ParameterError(f"{name} state outside 0..n_states-1")
        # each jump leaves its path's initial state or the last jump's target
        jumped = offsets[:-1] < offsets[1:]
        first = offsets[:-1][jumped]
        prev = np.empty_like(src)
        prev[1:] = dst[:-1]
        prev[first] = init[jumped]
        if (src != prev).any():
            raise ParameterError("a jump leaves a state its path is not in")
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
    point is the batch x[None, :], and a (dim,) array is refused.
    """

    def __init__(self, fn: Callable[[float, np.ndarray], np.ndarray], dim: int):
        self._fn = fn
        self.dim = int(dim)

    def __call__(self, t: float, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ParameterError(f"expected points of dimension {self.dim}, got shape {X.shape}")
        out = np.asarray(self._fn(t, X), dtype=np.float64)
        if out.shape != X.shape:
            raise NumericError(f"field returned shape {out.shape}, expected {X.shape}")
        return out

    @staticmethod
    def zero(dim: int) -> "VectorField":
        return VectorField(lambda t, X: np.zeros_like(X), dim)

    @staticmethod
    def constant(vec: Sequence[float]) -> "VectorField":
        v = np.asarray(vec, dtype=np.float64)
        return VectorField(lambda t, X: np.broadcast_to(v, X.shape).copy(), v.size)

    @staticmethod
    def linear(matrix: np.ndarray, offset: Sequence[float] | None = None) -> "VectorField":
        """x -> matrix @ x + offset, constant in t."""
        A = np.asarray(matrix, dtype=np.float64)
        c = np.zeros(A.shape[0]) if offset is None else np.asarray(offset, dtype=np.float64)
        return VectorField(lambda t, X: _matvec_rows(A, X) + c, A.shape[1])


class MatrixField:
    """A constant symmetric diffusion matrix a, queried like a field.

    apply, quad and solve take the (t, X) of a field query and multiply the
    rows of V by a, or by its inverse, computed once on the first solve,
    through _matvec_rows: a 1-d matrix is one elementwise product and a
    row's bits do not depend on its batch.
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

    def apply(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise a v_i."""
        return _matvec_rows(self.constant_matrix, V)

    def quad(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise quadratic form v_i . a v_i."""
        return _quad_rows(self.constant_matrix, V)

    def solve(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
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

