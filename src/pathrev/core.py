"""Shared value types for the toolkit.

Time grids, path ensembles (diffusion and jump), vector/matrix fields, the
deterministic per-path random stream contract, and ensemble serialization.
Everything downstream builds on these containers, so they are deliberately
small, immutable and numpy-only.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

_U64 = (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.flags.writeable = False

_MAGIC = b"PENS1\x00"
_HEADER = struct.Struct("<HIQQdQ")  # version, dim, n_paths, n_steps, T, seed


class ParameterError(ValueError):
    """Invalid model or grid parameters."""


class SimulationError(RuntimeError):
    """A simulation produced a non-finite state."""


class SupportError(RuntimeError):
    """Evaluation requested outside the trusted support of a density."""


class BandwidthError(ValueError):
    """A bandwidth rule could not produce a usable bandwidth."""


class ConsistencyError(RuntimeError):
    """Inputs violate a structural consistency requirement."""


class NumericError(RuntimeError):
    """A numerically degenerate quantity was encountered."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(ValueError):
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
    zero or of an overflowed sum.
    """
    if M.shape == (1, 1):
        return V * M[0, 0] + 0.0
    return V @ M.T


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


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
    """Jump paths of a finite-state walk on [0, T], stored grid-free.

    events[i] holds the (time, from_state, to_state) rows of path i in order,
    stored as given (ctmc_simulate passes tuples).  States are integers in
    0..n_states-1.  Paths are cadlag: the state at t is the target of the
    last event at or before t.
    """

    n_states: int
    T: float
    initial_states: np.ndarray
    events: tuple
    seed: int
    model_tag: str = ""

    def __post_init__(self):
        init = np.asarray(self.initial_states, dtype=np.int64)
        if init.ndim != 1 or init.size < 1:
            raise ParameterError("initial_states must be a non-empty 1-d array")
        if init.min() < 0 or init.max() >= self.n_states:
            raise ParameterError("initial state outside 0..n_states-1")
        init.flags.writeable = False
        object.__setattr__(self, "initial_states", init)
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "seed", int(self.seed))
        if len(self.events) != init.size:
            raise ParameterError("events and initial_states disagree on n_paths")

    @property
    def n_paths(self) -> int:
        return self.initial_states.size

    def validate(self, adjacency: np.ndarray | None = None) -> None:
        """Check event ordering, chain consistency and (optionally) edges."""
        for i, evs in enumerate(self.events):
            prev_t = 0.0
            state = int(self.initial_states[i])
            for (s, u, v) in evs:
                if not (prev_t < s <= self.T):
                    raise ConsistencyError(f"path {i}: event time {s} not increasing in (0, T]")
                if u != state:
                    raise ConsistencyError(f"path {i}: event from-state {u} != current {state}")
                if adjacency is not None and not adjacency[u, v]:
                    raise ConsistencyError(f"path {i}: jump {u}->{v} not an edge")
                prev_t, state = s, int(v)


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
    """Symmetric matrix field (t, x) -> dim x dim.

    Symmetry is enforced by construction (the output is symmetrized).  A
    constant field stores its matrix and computes its inverse once, on the
    first solve; apply and solve multiply the rows by that matrix or inverse
    through _matvec_rows, so a 1-d field is one elementwise product.  The
    general pointwise form falls back to per-point loops, which is acceptable
    because all shipped models use constant coefficients.
    """

    def __init__(self, fn: Callable[[float, np.ndarray], np.ndarray] | None,
                 dim: int, constant: np.ndarray | None = None):
        self.dim = int(dim)
        if constant is not None:
            A = np.asarray(constant, dtype=np.float64)
            if A.shape != (self.dim, self.dim):
                raise ParameterError(f"constant matrix shape {A.shape} != ({dim}, {dim})")
            A = 0.5 * (A + A.T)
            self._const = _freeze(A)
            self._fn = None
        else:
            if fn is None:
                raise ParameterError("need either fn or constant")
            self._const = None
            self._fn = fn

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "MatrixField":
        M = np.asarray(matrix, dtype=np.float64)
        return cls(None, M.shape[0], constant=M)

    @classmethod
    def identity(cls, dim: int) -> "MatrixField":
        return cls(None, dim, constant=np.eye(dim))

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    @property
    def constant_matrix(self) -> np.ndarray | None:
        return self._const

    @cached_property
    def _inv(self) -> np.ndarray:
        try:
            return np.linalg.inv(self._const)
        except np.linalg.LinAlgError:
            raise NumericError("constant matrix field is singular") from None

    def at(self, t: float, x: np.ndarray) -> np.ndarray:
        if self._const is not None:
            return self._const
        M = np.asarray(self._fn(t, np.asarray(x, dtype=np.float64)), dtype=np.float64)
        if M.shape != (self.dim, self.dim):
            raise NumericError(f"matrix field returned shape {M.shape}")
        return 0.5 * (M + M.T)

    def apply(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise a(t, x_i) @ v_i."""
        if self._const is not None:
            return _matvec_rows(self._const, V)
        out = np.empty_like(V)
        for i in range(X.shape[0]):
            out[i] = self.at(t, X[i]) @ V[i]
        return out

    def quad(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise quadratic form v_i . a(t, x_i) v_i."""
        if self._const is not None:
            return np.einsum("ni,ij,nj->n", V, self._const, V)
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            out[i] = V[i] @ self.at(t, X[i]) @ V[i]
        return out

    def solve(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise a(t, x_i)^{-1} v_i; a constant a uses its cached inverse."""
        if self._const is not None:
            return _matvec_rows(self._inv, V)
        out = np.empty_like(V)
        for i in range(X.shape[0]):
            out[i] = np.linalg.solve(self.at(t, X[i]), V[i])
        return out



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
    """Write an ensemble to the binary container (bit-exact round trip).

    The header stores the seed as a signed 64-bit value, so a seed outside
    [-2^63, 2^63) is refused rather than read back as a different number.
    """
    if not -(1 << 63) <= e.seed < (1 << 63):
        raise ParameterError(f"seed {e.seed} outside [-2^63, 2^63) cannot be stored")
    tag = e.model_tag.encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(_HEADER.pack(1, e.dim, e.n_paths, e.grid.n_steps,
                             e.grid.T, e.seed & _U64))
        f.write(struct.pack("<I", len(tag)))
        f.write(tag)
        f.write(np.ascontiguousarray(e.paths, dtype="<f8").tobytes())


def load_ensemble(path: str) -> PathEnsemble:
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise ConsistencyError(f"{path}: not an ensemble container")
        version, dim, n_paths, n_steps, T, seed_u = _HEADER.unpack(f.read(_HEADER.size))
        if version != 1:
            raise ConsistencyError(f"{path}: unsupported container version {version}")
        (taglen,) = struct.unpack("<I", f.read(4))
        tag = f.read(taglen).decode("utf-8")
        count = n_paths * (n_steps + 1) * dim
        data = np.frombuffer(f.read(count * 8), dtype="<f8", count=count)
    seed = seed_u - (1 << 64) if seed_u >= (1 << 63) else seed_u
    paths = data.reshape(n_paths, n_steps + 1, dim)
    return PathEnsemble(TimeGrid(T, n_steps), paths, seed, tag)


def ensemble_to_csv(e: PathEnsemble, path: str) -> None:
    """CSV export to the file at path: one row per (path, node), full float
    precision.

    Intended for slices and small ensembles; the binary container is the
    interchange format for anything large.
    """
    with open(path, "w", newline="") as f:
        cols = ",".join(f"x{d + 1}" for d in range(e.dim))
        f.write(f"path_id,t,{cols}\n")
        nodes = e.grid.nodes
        for i in range(e.n_paths):
            for k in range(e.grid.n_steps + 1):
                vals = ",".join(repr(float(v)) for v in e.paths[i, k])
                f.write(f"{i},{float(nodes[k])!r},{vals}\n")
