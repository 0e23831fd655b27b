"""Model builders: Gaussian marginal flows, the Gaussian reversible
reference of a diffusion matrix, generic diffusion specifications and
finite-graph walks.

The shipped models are deliberately simple (linear drift, Gaussian
marginals) so that every downstream quantity has a closed form to test
against.  Every diffusion matrix is constant, and every walk that is
simulated or whose marginals are taken has constant jump rates.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (ConfigError, ConsistencyError, MatrixField, NumericError,
                   ParameterError, VectorField, _freeze, _matvec_rows, _quad_rows,
                   _symmetric, expm, psd_sqrt)

_LOG_2PI = math.log(2.0 * math.pi)
# relative tolerance of sigma sigma^T = a, checked once per spec: psd_sqrt
# sets eigenvalues down to -1e-10 of the largest to zero, and a factor that
# misses a by more than roundoff would simulate another diffusion
_SIGMA_TOL = 1e-12


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian law N(mean, cov).  cov may be PSD (degenerate allowed for
    sampling through factor; density evaluation requires SPD).  As a slice
    law it takes (n, dim) batches: logpdf and pdf return (n,), score returns
    (n, dim)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        C = np.asarray(self.cov, dtype=np.float64)
        if C.shape != (m.size, m.size):
            raise ParameterError(f"cov shape {C.shape} incompatible with mean size {m.size}")
        object.__setattr__(self, "mean", _freeze(m))
        object.__setattr__(self, "cov", _symmetric(C, "cov"))

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def factor(self) -> np.ndarray:
        return psd_sqrt(self.cov)

    @cached_property
    def _inv(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.cov)
        except np.linalg.LinAlgError:
            raise NumericError("covariance is singular; density undefined") from None

    @cached_property
    def _logdet(self) -> float:
        sign, val = np.linalg.slogdet(self.cov)
        if sign <= 0:
            raise NumericError("covariance is singular; density undefined")
        return float(val)

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        return -0.5 * (_quad_rows(self._inv, X - self.mean) + self.dim * _LOG_2PI + self._logdet)

    def pdf(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(X))

    def score(self, X: np.ndarray) -> np.ndarray:
        """Gradient of log density: -cov^{-1} (x - mean), row-wise."""
        return _matvec_rows(self._inv, -(X - self.mean))

    def logpdf_score(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.logpdf(X), self.score(X)


@dataclass(frozen=True)
class GaussianFlow:
    """Marginal flow t -> N(m(t), Sigma(t)) of dX = (M X + c) dt + a^{1/2} dB
    from init.  Sigma - Sigma_0 solves Sigma' = M Sigma + Sigma M^T + Q from 0,
    Q = Sigma'(0), so one exponential of [[M, Q, c], [0, -M^T, 0], [0, 0, 0]] t
    gives E = e^{tM}, G, h with m = E m_0 + h, Sigma = Sigma_0 + G E^T (Van
    Loan 1978, IEEE TAC 23:395).  An exactly stationary start is the law at
    every t.  at keeps one law per distinct t; callers query grid times."""

    M: np.ndarray
    c: np.ndarray
    a: np.ndarray
    init: Gaussian
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.init.dim

    def at(self, t: float) -> Gaussian:
        law = self._laws.get(t)
        if law is None:
            law = self._laws[t] = self._law(t)
        return law

    @cached_property
    def _block(self) -> np.ndarray | None:
        """The block of the exponential, or None for a stationary start."""
        M, S0, d = self.M, self.init.cov, self.dim
        Q = M @ S0 + S0 @ M.T + self.a
        if (M @ self.init.mean + self.c == 0).all() and (Q == 0).all():
            return None
        B = np.zeros((2 * d + 1, 2 * d + 1))
        B[:d, :d], B[:d, d:-1], B[:d, -1], B[d:-1, d:-1] = M, Q, self.c, -M.T
        return B

    def _law(self, t: float) -> Gaussian:
        if self._block is None:
            return self.init
        d = self.dim
        F = expm(t * self._block)
        E = F[:d, :d]
        return Gaussian(E @ self.init.mean + F[:d, -1], self.init.cov + F[:d, d:-1] @ E.T)


def linear_flow(M, c, a, init: Gaussian) -> GaussianFlow:
    """Flow of dX = (M X + c) dt + a^{1/2} dB from init, whose cov must be SPD."""
    try:
        np.linalg.cholesky(init.cov)
    except np.linalg.LinAlgError:
        raise NumericError("flow covariance not SPD at t=0.0") from None
    return GaussianFlow(_freeze(M), _freeze(c), _freeze(a), init)


@dataclass(frozen=True)
class KolmogorovSpec:
    """Reversible reference diffusion with constant diffusion matrix a and
    invariant law m = N(0, a/2).  m's density is exp(-U) with U(x) = x^T a^{-1} x
    plus its normalizing constant, so the generator drift
    (div a - a grad U) / 2 = a grad log m / 2 is -x.
    """

    dim: int
    a: MatrixField
    m: Gaussian
    div_a: VectorField
    drift: VectorField


def gaussian_reference(a: MatrixField) -> KolmogorovSpec:
    """The reference of a constant positive definite a: drift -x, law N(0, a/2)."""
    d = a.dim
    return KolmogorovSpec(d, a, Gaussian(np.zeros(d), 0.5 * a.constant_matrix),
                          VectorField.zero(d), VectorField.linear(-np.eye(d)))


def ou_reference(dim: int = 1) -> tuple[KolmogorovSpec, GaussianFlow]:
    """The reference of a = Id, with its law N(0, Id/2) also returned as a
    constant-in-time flow."""
    ref = gaussian_reference(MatrixField.identity(dim))
    return ref, linear_flow(-np.eye(dim), np.zeros(dim), np.eye(dim), ref.m)


def ou_marginal_flow(init_mean, init_cov) -> GaussianFlow:
    """Marginal flow of dX = -X dt + dB started from N(init_mean, init_cov)."""
    d = np.size(init_mean)
    return linear_flow(-np.eye(d), np.zeros(d), np.eye(d), Gaussian(init_mean, init_cov))


def bm_flow(init_cov, init_mean=None) -> GaussianFlow:
    """Marginal flow of Brownian motion: mean constant, cov(t) = cov_0 + t Id."""
    d = np.atleast_2d(init_cov).shape[0]
    init = Gaussian(np.zeros(d) if init_mean is None else init_mean, init_cov)
    return linear_flow(np.zeros((d, d)), np.zeros(d), np.eye(d), init)


@dataclass(frozen=True)
class DiffusionSpec:
    """What the path simulator needs: drift b, the constant diffusion matrix
    a, its frozen (dim, dim) noise factor sigma with sigma sigma^T = a, and
    an initial law."""

    dim: int
    drift: VectorField
    a: MatrixField
    sigma: np.ndarray
    init: Gaussian
    tag: str = ""


def diffusion_spec(drift: VectorField, a: MatrixField, init: Gaussian,
                   tag: str = "") -> DiffusionSpec:
    """The spec with sigma = psd_sqrt(a), a lower-triangular Cholesky factor
    when a is SPD, so correlated noise keeps its correlation."""
    dim = drift.dim
    if init.dim != dim or a.dim != dim:
        raise ParameterError("drift, a and init disagree on dimension")
    A = a.constant_matrix
    sigma = psd_sqrt(A)
    if np.abs(sigma @ sigma.T - A).max() > _SIGMA_TOL * max(1.0, np.abs(A).max()):
        raise ConsistencyError("sigma sigma^T != a")
    return DiffusionSpec(dim, drift, a, _freeze(sigma), init, tag)


def ou_diffusion(init: Gaussian) -> DiffusionSpec:
    d = init.dim
    return diffusion_spec(VectorField.linear(-np.eye(d)), MatrixField.identity(d), init, tag="ou")


def bm_diffusion(init: Gaussian) -> DiffusionSpec:
    d = init.dim
    return diffusion_spec(VectorField.zero(d), MatrixField.identity(d), init, tag="bm")


@dataclass(frozen=True)
class GraphWalkSpec:
    """Continuous-time walk on a finite graph.

    adjacency is symmetric with no self-loops and must be connected.  The
    intensity j(t, x; y) lives on directed edges: a constant matrix, or a
    callable of t with a rate_bound on the total out-rate.  Only a constant
    matrix can be simulated or have its marginals taken; a callable serves
    as the reversed walk that is reversed again.
    """

    n_states: int
    adjacency: np.ndarray
    p0: np.ndarray
    intensity_matrix: np.ndarray | None = None
    intensity_fn: Callable[[float], np.ndarray] | None = None
    rate_bound: float | None = None

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=bool)
        n = self.n_states
        if A.shape != (n, n):
            raise ParameterError(f"adjacency shape {A.shape} != ({n}, {n})")
        if not (A == A.T).all():
            raise ParameterError("adjacency must be symmetric")
        if A.diagonal().any():
            raise ParameterError("self-loops are not allowed")
        if not _connected(A):
            raise ParameterError("adjacency must be connected")
        p = np.asarray(self.p0, dtype=np.float64)
        if p.shape != (n,) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError("p0 must be a probability vector over the states")
        if (self.intensity_matrix is None) == (self.intensity_fn is None):
            raise ParameterError("exactly one of intensity_matrix / intensity_fn required")
        A.flags.writeable = False
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "p0", _freeze(p))
        if self.intensity_matrix is not None:
            J = np.asarray(self.intensity_matrix, dtype=np.float64)
            _check_intensity(J, A)
            object.__setattr__(self, "intensity_matrix", _freeze(J))

    @property
    def is_constant(self) -> bool:
        return self.intensity_matrix is not None

    def intensity(self, t: float) -> np.ndarray:
        if self.intensity_matrix is not None:
            return self.intensity_matrix
        J = np.asarray(self.intensity_fn(t), dtype=np.float64)
        _check_intensity(J, self.adjacency)
        return J

    def generator(self) -> np.ndarray:
        """Rate matrix Q with zero row sums, of constant intensities."""
        J = np.array(self.intensity_matrix)
        np.fill_diagonal(J, 0.0)
        Q = J - np.diag(J.sum(axis=1))
        return Q


def _connected(A: np.ndarray) -> bool:
    n = A.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(A[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def _check_intensity(J: np.ndarray, A: np.ndarray) -> None:
    if J.shape != A.shape:
        raise ParameterError(f"intensity shape {J.shape} != adjacency {A.shape}")
    if not np.isfinite(J).all():
        raise ParameterError("intensities must be finite")
    if (J < 0).any():
        raise ParameterError("intensities must be nonnegative")
    if (J[~A] != 0).any():
        raise ParameterError("intensity must vanish off the edge set")
    with np.errstate(over="ignore"):
        if not np.isfinite(J.sum(axis=1)).all():
            raise ParameterError("the total out-rate of a state overflows")


def graph_walk(adjacency, intensity, p0, rate_bound=None) -> GraphWalkSpec:
    A = np.asarray(adjacency, dtype=bool)
    if callable(intensity):
        if rate_bound is None:
            raise ParameterError("time-dependent intensities need rate_bound")
        return GraphWalkSpec(A.shape[0], A, p0, intensity_fn=intensity,
                             rate_bound=float(rate_bound))
    return GraphWalkSpec(A.shape[0], A, p0, intensity_matrix=np.asarray(intensity, float))


def biased_cycle_walk(n: int, rate_cw: float, rate_ccw: float) -> GraphWalkSpec:
    """Nearest-neighbour walk on the n-cycle: rate_cw for x -> x+1, rate_ccw
    for x -> x-1 (mod n).  The uniform law is invariant for any rates."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    if rate_cw < 0 or rate_ccw < 0 or (rate_cw == 0 and rate_ccw == 0):
        raise ParameterError("rates must be nonnegative and not both zero")
    A = np.zeros((n, n), dtype=bool)
    J = np.zeros((n, n))
    for x in range(n):
        A[x, (x + 1) % n] = A[x, (x - 1) % n] = True
        J[x, (x + 1) % n] = rate_cw
        J[x, (x - 1) % n] = rate_ccw
    return graph_walk(A, J, np.full(n, 1.0 / n))


def walk_marginal_fn(spec: GraphWalkSpec) -> Callable[[float], np.ndarray]:
    """Exact marginals t -> p_t = p0 expm(t Q) of a walk with constant
    intensities, uncached (a reversal queries any time).  A negative time is
    refused from every start.  An initial law with p0 Q = 0 exactly
    short-circuits the exponential: p_t = p0 without roundoff."""
    if not spec.is_constant:
        raise ParameterError("walk marginals need constant intensities")
    Q = spec.generator()
    stationary = np.array_equal(spec.p0 @ Q, np.zeros(spec.n_states))

    def marginals(t: float) -> np.ndarray:
        t = float(t)
        if t < 0:
            raise ParameterError(f"negative time {t}")
        return spec.p0 if stationary else spec.p0 @ expm(t * Q)

    return marginals


# ---------------------------------------------------------------------------
# JSON model descriptions


@dataclass(frozen=True)
class ModelBundle:
    """What a JSON model description expands to.  Diffusion models carry a
    simulation spec, their exact marginal flow and, when a is positive
    definite, the reversible reference N(0, a/2); graph models carry a walk
    spec."""

    dim: int
    diffusion: DiffusionSpec | None = None
    flow: GaussianFlow | None = None
    reference: KolmogorovSpec | None = None
    walk: GraphWalkSpec | None = None


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(value, key: str, kind: type, where: str) -> int | float:
    """value of field key of object where as kind (int or float).  Strings
    and booleans are rejected, not coerced, an int field takes no
    fractional value, and a value that is not finite as a float (an
    infinity, or an integer too large for a float) is refused."""
    allowed = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{where}: {key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{where}: {key} must be finite")
    return kind(value)


def _array(value, key: str, shape: tuple | None = None) -> np.ndarray:
    """A number or nested lists of numbers as a float array, of `shape` if
    given.  Every entry goes through _number; ragged nesting is refused."""
    def check(v):
        if isinstance(v, list):
            for u in v:
                check(u)
        else:
            _number(v, f"{key} entry", float, "model")

    check(value)
    try:
        arr = np.asarray(value, dtype=np.float64)
    except ValueError:
        raise ConfigError(f"model: {key} is not a rectangular array") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"model: {key} shape {arr.shape} != {shape}")
    return arr


def _initial_law(obj: dict) -> Gaussian:
    """N(init_mean, init_cov) of a diffusion model, a vector of d entries
    and a d x d matrix; an optional dim must agree."""
    mean = _array(obj["init_mean"], "init_mean")
    if mean.ndim != 1:
        raise ConfigError(f"model: init_mean shape {mean.shape} is not (d,)")
    init = Gaussian(mean, _array(obj["init_cov"], "init_cov", (mean.size, mean.size)))
    if "dim" in obj and _number(obj["dim"], "dim", int, "model") != init.dim:
        raise ConfigError("model: dim disagrees with init_mean")
    return init


def load_model(obj) -> ModelBundle:
    """Build a model from a parsed JSON object.

    Supported types: "ou", "bm", "cycle" and "custom" (named built-in fields
    with coefficient arrays; no expression parsing).
    """
    if not isinstance(obj, dict):
        raise ConfigError("model description must be a JSON object")
    mtype = obj.get("type")
    if mtype in ("ou", "bm"):
        _require_keys(obj, {"type", "dim", "init_mean", "init_cov"},
                      {"type", "init_mean", "init_cov"}, "model")
        init = _initial_law(obj)
        if mtype == "bm":
            spec, flow = bm_diffusion(init), bm_flow(init.cov, init.mean)
        else:
            spec, flow = ou_diffusion(init), ou_marginal_flow(init.mean, init.cov)
    elif mtype == "cycle":
        _require_keys(obj, {"type", "n", "rate_cw", "rate_ccw"},
                      {"type", "n", "rate_cw", "rate_ccw"}, "model")
        walk = biased_cycle_walk(_number(obj["n"], "n", int, "model"),
                                 _number(obj["rate_cw"], "rate_cw", float, "model"),
                                 _number(obj["rate_ccw"], "rate_ccw", float, "model"))
        return ModelBundle(walk.n_states, walk=walk)
    elif mtype == "custom":
        _require_keys(obj, {"type", "dim", "drift", "diffusion_matrix", "init_mean", "init_cov"},
                      {"type", "dim", "drift", "diffusion_matrix", "init_mean", "init_cov"},
                      "model")
        init = _initial_law(obj)
        d = init.dim
        M, c = _build_drift(obj["drift"], d)
        a = MatrixField(_array(obj["diffusion_matrix"], "diffusion_matrix", (d, d)))
        spec = diffusion_spec(VectorField.linear(M, c), a, init, tag="custom")
        flow = linear_flow(M, c, a.constant_matrix, init)
    else:
        raise ConfigError(f"model: unknown type {mtype!r}")
    try:
        np.linalg.cholesky(spec.a.constant_matrix)
    except np.linalg.LinAlgError:  # a singular a has no law N(0, a/2)
        return ModelBundle(spec.dim, diffusion=spec, flow=flow)
    return ModelBundle(spec.dim, diffusion=spec, flow=flow,
                       reference=gaussian_reference(spec.a))


def _build_drift(obj: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) of the drift x -> M x + c that obj names."""
    if not isinstance(obj, dict) or "name" not in obj:
        raise ConfigError("drift: expected an object with a 'name'")
    name = obj["name"]
    if name == "zero":
        _require_keys(obj, {"name"}, {"name"}, "drift")
        return np.zeros((dim, dim)), np.zeros(dim)
    if name == "linear":
        _require_keys(obj, {"name", "matrix", "offset"}, {"name", "matrix"}, "drift")
        return (_array(obj["matrix"], "drift matrix", (dim, dim)),
                _array(obj.get("offset", [0.0] * dim), "drift offset", (dim,)))
    raise ConfigError(f"drift: unknown name {name!r}")
