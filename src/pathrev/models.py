"""Model builders: reversible reference diffusions, Gaussian marginal flows,
generic diffusion specifications and finite-graph walks.

The shipped oracles are deliberately simple (constant diffusion matrix,
linear drift, Gaussian marginals) so that every downstream quantity has a
closed form to test against.  Spatially varying coefficients are supported
through the field abstractions but ship without oracles.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (ConfigError, ConsistencyError, MatrixField, NumericError,
                   ParameterError, VectorField, _freeze, _matvec_rows, _quad_rows, expm,
                   psd_sqrt)

_LOG_2PI = math.log(2.0 * math.pi)
_SIGMA_TOL = 1e-12  # relative tolerance of validate_sigma


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
        if C.ndim == 0:
            C = C.reshape(1, 1)
        if C.shape != (m.size, m.size):
            raise ParameterError(f"cov shape {C.shape} incompatible with mean size {m.size}")
        if not np.allclose(C, C.T, atol=1e-12):
            raise ParameterError("cov must be symmetric")
        object.__setattr__(self, "mean", _freeze(m))
        object.__setattr__(self, "cov", _freeze(0.5 * (C + C.T)))

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
    """Reversible reference diffusion with generator drift (div a - a grad U)/2.

    The reversible law has density exp(-U): the potential U includes the
    normalizing constant, so m_logpdf = -U is an actual log probability
    density.  When the law is Gaussian it is also stored as m for
    closed-form entropies.
    """

    dim: int
    potential: Callable[[np.ndarray], np.ndarray]
    grad_potential: Callable[[np.ndarray], np.ndarray]
    a: MatrixField
    div_a: VectorField
    drift: VectorField
    m: Gaussian | None = None

    def m_logpdf(self, X: np.ndarray) -> np.ndarray:
        return -np.asarray(self.potential(X), dtype=np.float64)

    def m_score(self, X: np.ndarray) -> np.ndarray:
        return -np.asarray(self.grad_potential(X), dtype=np.float64)


def kolmogorov_spec(dim: int, potential, grad_potential, a: MatrixField,
                    div_a: VectorField | None = None,
                    m: Gaussian | None = None) -> KolmogorovSpec:
    """Assemble a reversible reference; the drift is derived, not supplied.

    potential is U with its normalizing constant included, so that exp(-U)
    integrates to one; grad_potential is its gradient.
    """
    if div_a is None:
        if not a.is_constant:
            raise ParameterError("div_a must be supplied for non-constant a")
        div_a = VectorField.zero(dim)

    def drift_fn(t, X):
        g = np.asarray(grad_potential(X), dtype=np.float64)
        return 0.5 * (div_a(t, X) - a.apply(t, X, g))

    return KolmogorovSpec(dim, potential, grad_potential, a, div_a,
                          VectorField(drift_fn, dim), m)


def ou_reference(dim: int = 1) -> tuple[KolmogorovSpec, GaussianFlow]:
    """The standard reference: a = Id, U(x) = |x|^2 + (dim/2) log pi, whose
    constant normalizes exp(-U).

    Generator drift is -x and the reversible law is N(0, Id/2), returned both
    inside the spec and as a constant-in-time flow.
    """
    const = 0.5 * dim * math.log(math.pi)

    def potential(X):
        return (X ** 2).sum(axis=1) + const

    def grad_potential(X):
        return 2.0 * X

    m = Gaussian(np.zeros(dim), 0.5 * np.eye(dim))
    spec = kolmogorov_spec(dim, potential, grad_potential, MatrixField.identity(dim), m=m)
    flow = linear_flow(-np.eye(dim), np.zeros(dim), np.eye(dim), m)
    return spec, flow


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
    """What the path simulator needs: drift b, diffusion matrix a = sigma sigma^T,
    a factor sigma, and an initial law."""

    dim: int
    drift: VectorField
    a: MatrixField
    sigma: MatrixField
    init: Gaussian
    tag: str = ""

    def validate_sigma(self, points: np.ndarray) -> None:
        """sigma sigma^T = a at t = 0 on each row of the (n, dim) points."""
        for x in points:
            S = self.sigma.at(0.0, x)
            A = self.a.at(0.0, x)
            if np.abs(S @ S.T - A).max() > _SIGMA_TOL * max(1.0, np.abs(A).max()):
                raise ConsistencyError(f"sigma sigma^T != a at t=0.0, x={x}")


def diffusion_spec(drift: VectorField, a: MatrixField, init: Gaussian,
                   sigma: MatrixField | None = None, tag: str = "") -> DiffusionSpec:
    dim = drift.dim
    if init.dim != dim or a.dim != dim:
        raise ParameterError("drift, a and init disagree on dimension")
    if sigma is None:
        if not a.is_constant:
            raise ParameterError("sigma must be supplied for non-constant a")
        sigma = MatrixField.constant(psd_sqrt(a.constant_matrix))
    return DiffusionSpec(dim, drift, a, sigma, init, tag)


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
    intensity j(t, x; y) lives on directed edges; a constant matrix enables
    the fast simulation path, a callable needs rate_bound for thinning.
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

    def generator(self, t: float = 0.0) -> np.ndarray:
        """Rate matrix Q with zero row sums."""
        J = np.array(self.intensity(t))
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
    """Exact marginals t -> p_t, uncached (thinning queries continuous
    times).  Matrix exponential for constant intensities, an ODE solve of
    the forward equation otherwise.  With constant intensities, an initial
    law with p0 Q = 0 exactly short-circuits the exponential: p_t = p0
    without roundoff.  The ODE branch makes no such check."""
    if spec.is_constant:
        Q = spec.generator(0.0)
        if np.array_equal(spec.p0 @ Q, np.zeros(spec.n_states)):
            return lambda t: spec.p0

        def marginals(t: float) -> np.ndarray:
            t = float(t)
            if t < 0:
                raise ParameterError(f"negative time {t}")
            return spec.p0 @ expm(t * Q)

        return marginals

    from scipy.integrate import solve_ivp

    def marginals(t: float) -> np.ndarray:
        t = float(t)
        if t < 0:
            raise ParameterError(f"negative time {t}")
        if t == 0.0:
            return np.array(spec.p0)
        sol = solve_ivp(lambda s, p: p @ spec.generator(s), (0.0, t), spec.p0,
                        rtol=1e-12, atol=1e-14, dense_output=False)
        return sol.y[:, -1]

    return marginals


# ---------------------------------------------------------------------------
# JSON model descriptions


@dataclass(frozen=True)
class ModelBundle:
    """What a JSON model description expands to.  Diffusion models carry a
    simulation spec, their exact marginal flow and ("ou" only) a reversible
    reference; graph models carry a walk spec."""

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
    """N(init_mean, init_cov) of a diffusion model; an optional dim must agree."""
    init = Gaussian(_array(obj["init_mean"], "init_mean"), _array(obj["init_cov"], "init_cov"))
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
            return ModelBundle(init.dim, diffusion=bm_diffusion(init),
                               flow=bm_flow(init.cov, init.mean))
        return ModelBundle(init.dim, diffusion=ou_diffusion(init),
                           flow=ou_marginal_flow(init.mean, init.cov),
                           reference=ou_reference(init.dim)[0])
    if mtype == "cycle":
        _require_keys(obj, {"type", "n", "rate_cw", "rate_ccw"},
                      {"type", "n", "rate_cw", "rate_ccw"}, "model")
        walk = biased_cycle_walk(_number(obj["n"], "n", int, "model"),
                                 _number(obj["rate_cw"], "rate_cw", float, "model"),
                                 _number(obj["rate_ccw"], "rate_ccw", float, "model"))
        return ModelBundle(walk.n_states, walk=walk)
    if mtype == "custom":
        _require_keys(obj, {"type", "dim", "drift", "diffusion_matrix", "init_mean", "init_cov"},
                      {"type", "dim", "drift", "diffusion_matrix", "init_mean", "init_cov"},
                      "model")
        init = _initial_law(obj)
        d = init.dim
        M, c = _build_drift(obj["drift"], d)
        a = MatrixField.constant(_array(obj["diffusion_matrix"], "diffusion_matrix", (d, d)))
        spec = diffusion_spec(VectorField.linear(M, c), a, init, tag="custom")
        return ModelBundle(d, diffusion=spec,
                           flow=linear_flow(M, c, a.constant_matrix, init))
    raise ConfigError(f"model: unknown type {mtype!r}")


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
