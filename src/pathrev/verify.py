"""Numerical certification of the reversal identities.

Everything here turns an exact statement about a Markov process into a
residual with an honest error bar: the integration-by-parts bracket, the
short-time product-increment limit of the carre du champ, windowed Nelson
difference quotients, the continuity equation for the current velocity,
detailed balance on graphs, and an energy-distance two-sample test for
law equality of simulated ensembles.

Monte-Carlo residuals pass at |estimate| <= z * stderr + atol with z = 3
and a small absolute floor; the identities themselves are exact, so the
thresholds encode only estimator noise and quadrature bias.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import (ConsistencyError, MatrixField, ParameterError, PathEnsemble,
                   SupportError, TimeGrid, VectorField, _sq_distances, mean_stderr,
                   path_streams)
# unused here; perfbench/tracer.py patches path_rng by name in this module
from .core import path_rng  # noqa: F401
from .density import DensityFlow
from .models import GraphWalkSpec
from .reversal import BackwardDriftField, ReversedWalk

_Z_DEFAULT = 3.0
_ATOL_DEFAULT = 1e-3
_SMALL_SAMPLE = 100
# pass bound of an identity computed exactly, as a finite sum: graph_ibp_residual
# and the walk reversal and detailed-balance checks; the CLI also matches a
# stored ensemble's horizon to the config's within it
EXACT_ATOL = 1e-12
# continuity_residual: probes per coordinate and the steps of its central
# differences in time and in space
_N_PER_DIM = 9
_DT_STENCIL = 1e-4
_DX_STENCIL = 1e-4
_CUBIC_WIDTH = 4.0  # width of windowed_cubic's Gaussian window
_DIST_ROWS = 256  # pooled-distance rows per block


@dataclass(frozen=True)
class TestFunction:
    """Smooth scalar observable with gradient and Hessian, batched over rows.

    fn maps (n, d) -> (n,); grad -> (n, d); hess -> (n, d, d), all three in
    closed form in coordinate_function, square_function and windowed_cubic.
    Bounded derivatives on the region of interest are the caller's duty.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(X), dtype=np.float64)

    def laplacian(self, a: MatrixField, X: np.ndarray) -> np.ndarray:
        """Delta_a u = sum_ij a_ij d_i d_j u, evaluated per row."""
        H = np.asarray(self.hess(X), dtype=np.float64)
        return np.einsum("ij,nij->n", a.constant_matrix, H)


def coordinate_function(dim: int = 1, index: int = 0) -> TestFunction:
    """u(x) = x_i."""
    e = np.zeros(dim)
    e[index] = 1.0
    return TestFunction(
        lambda X: X[:, index].copy(),
        lambda X: np.broadcast_to(e, X.shape).copy(),
        lambda X: np.zeros((X.shape[0], dim, dim)))


def square_function(dim: int = 1, index: int = 0) -> TestFunction:
    """u(x) = x_i^2."""
    e = np.zeros(dim)
    e[index] = 1.0
    H = 2.0 * np.outer(e, e)
    return TestFunction(
        lambda X: X[:, index] * X[:, index],
        lambda X: 2.0 * X[:, index:index + 1] * e,
        lambda X: np.broadcast_to(H, (X.shape[0], dim, dim)).copy())


def windowed_cubic(dim: int = 1, index: int = 0) -> TestFunction:
    """u(x) = x_i^3 exp(-x_i^2 / _CUBIC_WIDTH): a cubic tamed by a Gaussian
    window, bounded with bounded derivatives on all of R."""
    w = _CUBIC_WIDTH

    def parts(X):
        x = X[:, index]
        return x, np.exp(-x ** 2 / w)

    def fn(X):
        x, env = parts(X)
        return x ** 3 * env

    def grad(X):
        x, env = parts(X)
        out = np.zeros_like(X)
        out[:, index] = (3.0 * x ** 2 - 2.0 * x ** 4 / w) * env
        return out

    def hess(X):
        x, env = parts(X)
        out = np.zeros((X.shape[0], dim, dim))
        out[:, index, index] = (6.0 * x - 14.0 * x ** 3 / w + 4.0 * x ** 5 / w ** 2) * env
        return out

    return TestFunction(fn, grad, hess)


@dataclass(frozen=True)
class ResidualReport:
    """A residual that should be zero, with its Monte-Carlo error bar.

    passed is |estimate| <= z * mc_stderr + atol with a finite mc_stderr: a
    sample too small for an error bar (one value gives inf) never passes.
    Exact (non-MC) checks set mc_stderr = 0 and z = 0 so only atol matters.
    """

    estimate: float
    mc_stderr: float
    n_samples: int
    passed: bool
    z: float
    atol: float
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _report(vals: np.ndarray, atol: float) -> ResidualReport:
    est, se = mean_stderr(vals)
    n = vals.size
    note = f"small sample (n={n})" if n < _SMALL_SAMPLE else ""
    passed = np.isfinite(se) and abs(est) <= _Z_DEFAULT * se + atol
    return ResidualReport(est, se, n, bool(passed), _Z_DEFAULT, atol, note)


def ibp_residual(v_fwd: VectorField, v_bwd: VectorField | BackwardDriftField, a: MatrixField,
                 X: np.ndarray, t: float, u: TestFunction, v: TestFunction) -> ResidualReport:
    """Integration-by-parts bracket at one time slice.

    With forward and backward generators L+ u = v_fwd . grad u + Delta_a u / 2
    and L- u = v_bwd . grad u + Delta_a u / 2, and carre du champ
    Gamma(u, v) = grad u . a grad v, the mean over X_t ~ P_t of

        (L+ u + L- u) v + Gamma(u, v)

    vanishes.  X holds the slice samples as an (n, dim) batch; the report
    carries the MC mean and passes at z = _Z_DEFAULT, atol = _ATOL_DEFAULT.
    """
    gu = np.asarray(u.grad(X), dtype=np.float64)
    gv = np.asarray(v.grad(X), dtype=np.float64)
    drift_part = ((v_fwd(t, X) + v_bwd(t, X)) * gu).sum(axis=1)
    lap = u.laplacian(a, X)
    gamma = (gu * a.apply(gv)).sum(axis=1)
    bracket = (drift_part + lap) * v(X) + gamma
    return _report(bracket, _ATOL_DEFAULT)


def graph_ibp_residual(spec: GraphWalkSpec, reversed_walk: ReversedWalk,
                       p: np.ndarray, t: float, u: np.ndarray, v: np.ndarray) -> ResidualReport:
    """Exact graph analogue of ibp_residual: no sampling, a finite sum,
    passing at |sum| <= EXACT_ATOL.

    sum_x p(x) [ (L+ u + L- u)(x) v(x) + Gamma(u, v)(x) ] with the graph
    carre du champ Gamma(u, v)(x) = sum_y (u(y)-u(x))(v(y)-v(x)) j(t, x; y).
    The reversed intensities must be defined on every state p charges.
    """
    p = np.asarray(p, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = spec.n_states
    if p.shape != (n,) or u.shape != (n,) or v.shape != (n,):
        raise ParameterError("p, u, v must be state vectors")
    J = spec.intensity(t)
    Jb = reversed_walk.backward_intensity(t)
    bad = np.nonzero((p > 0) & np.isnan(Jb).any(axis=1))[0]
    if bad.size:
        raise ConsistencyError(f"reversed intensity undefined on charged states {bad.tolist()}")
    Jb = np.where(np.isnan(Jb), 0.0, Jb)

    du = u[None, :] - u[:, None]
    dv = v[None, :] - v[:, None]
    Lf = (J * du).sum(axis=1)
    Lb = (Jb * du).sum(axis=1)
    gamma = (J * du * dv).sum(axis=1)
    est = float(p @ ((Lf + Lb) * v + gamma))
    return ResidualReport(est, 0.0, n, bool(abs(est) <= EXACT_ATOL), z=0.0, atol=EXACT_ATOL)


def carre_du_champ_estimate(e: PathEnsemble, u: TestFunction, v: TestFunction,
                            k0: int, k1: int, expected: float,
                            atol: float = _ATOL_DEFAULT) -> ResidualReport:
    """Short-time product-increment estimate of E Gamma(u, v) at time t.

    t and t + h are the times of the grid nodes k0 < k1, and
    mean[ (u(X_{t+h}) - u(X_t)) (v(X_{t+h}) - v(X_t)) ] / h converges to
    E Gamma(u, v)(X_t) linearly in h; the report holds estimate - expected,
    so the bias floor is O(h) and pass needs atol sized accordingly.
    """
    n = e.grid.n_steps
    if not 0 <= k0 < k1 <= n:
        raise ParameterError(f"need 0 <= k0 < k1 <= {n}, got k0={k0}, k1={k1}")
    X0 = e.paths[:, k0, :]
    X1 = e.paths[:, k1, :]
    vals = (u(X1) - u(X0)) * (v(X1) - v(X0)) / (e.grid.node(k1) - e.grid.node(k0))
    return _report(vals - expected, atol)


def nelson_forward_derivative(e: PathEnsemble, u: TestFunction, k0: int,
                              x0, window: float, lag: int) -> float:
    """Windowed forward difference quotient of E[u(X)|X_t near x0], t at node k0.

    Averages (u(X_{t+h}) - u(X_t)) / h over paths with |X_t - x0| <= window
    for h of lag and of 2 lag grid steps, then Richardson-extrapolates the
    two to kill the O(h) term.  A pointwise estimator of the forward
    generator applied to u, not a limit.
    """
    if window <= 0:
        raise ParameterError("window must be positive")
    n = e.grid.n_steps
    if lag < 1 or not 0 <= k0 <= n - 2 * lag:
        raise ParameterError(f"need lag >= 1 and 0 <= k0 <= k0 + 2 lag <= {n}, "
                             f"got k0={k0}, lag={lag}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    X0 = e.paths[:, k0, :]
    sel = np.linalg.norm(X0 - x0[None, :], axis=1) <= window
    if not sel.any():
        raise SupportError(f"no paths within {window} of {x0} at t={e.grid.node(k0)}")
    u0 = u(X0[sel])

    def quotient(k1: int) -> tuple[float, float]:
        dt = e.grid.node(k1) - e.grid.node(k0)
        return float((u(e.paths[sel, k1, :]) - u0).mean() / dt), dt

    d1, h1 = quotient(k0 + lag)
    d2, h2 = quotient(k0 + 2 * lag)
    return (h2 * d1 - h1 * d2) / (h2 - h1)


@dataclass(frozen=True)
class ContinuityReport:
    sup_residual: float
    l1_residual: float
    n_used: int
    n_skipped: int

    def to_dict(self) -> dict:
        return asdict(self)


def continuity_residual(flow: DensityFlow, v_cu: VectorField, grid: TimeGrid,
                        box) -> ContinuityReport:
    """Residual of d_t rho + div(rho v_cu) = 0 on a probe mesh.

    box is (lo, hi) per coordinate, probed by _N_PER_DIM points each, at
    the times T/4, T/2 and 3T/4; probes outside the density's support
    (flow.in_support) are skipped.  Derivatives are second-order central
    differences, so with exact flows the residual is limited only by their
    truncation error.  Each stencil point is one batch of the kept probes.
    """
    d = flow.dim
    lo = np.broadcast_to(np.asarray(box[0], dtype=np.float64), (d,))
    hi = np.broadcast_to(np.asarray(box[1], dtype=np.float64), (d,))
    if (hi <= lo).any():
        raise ParameterError("box upper bounds must exceed lower bounds")
    times = (0.25 * grid.T, 0.5 * grid.T, 0.75 * grid.T)
    for t in times:
        if t - _DT_STENCIL < 0.0 or t + _DT_STENCIL > grid.T:
            raise ParameterError(f"probe time {t} too close to the interval ends")

    axes = [np.linspace(lo[i], hi[i], _N_PER_DIM) for i in range(d)]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    steps = np.eye(d) * _DX_STENCIL

    residuals = []
    n_skipped = 0
    for t in times:
        ok = flow.in_support(t, mesh)
        n_skipped += int((~ok).sum())
        X = mesh[ok]
        drho_dt = ((flow.pdf(t + _DT_STENCIL, X) - flow.pdf(t - _DT_STENCIL, X))
                   / (2.0 * _DT_STENCIL))
        div = 0.0
        for i in range(d):
            up, down = X + steps[i], X - steps[i]
            div = div + (flow.pdf(t, up) * v_cu(t, up)[:, i]
                         - flow.pdf(t, down) * v_cu(t, down)[:, i]) / (2.0 * _DX_STENCIL)
        residuals.append(np.abs(drho_dt + div))
    r = np.concatenate(residuals)
    if not r.size:
        raise ParameterError("every probe fell below the support floor")
    return ContinuityReport(float(r.max()), float(r.mean()), r.size, n_skipped)


def detailed_balance_residual(m, spec: GraphWalkSpec) -> float:
    """max over ordered pairs of |m(x) j(0,x;y) - m(y) j(0,y;x)|.

    m is any positive measure on the states (not necessarily normalized);
    zero means the walk is reversible for m at time 0.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (spec.n_states,) or (m <= 0).any():
        raise ParameterError("m must be a positive state vector")
    F = m[:, None] * spec.intensity(0.0)
    return float(np.abs(F - F.T).max())


@dataclass(frozen=True)
class EnergyTestResult:
    statistic: float
    p_value: float
    n_perm: int
    n_a: int
    n_b: int


def two_sample_energy(A: np.ndarray, B: np.ndarray, n_perm: int = 199,
                      seed: int = 0) -> EnergyTestResult:
    """Energy-distance two-sample test with a permutation null.

    Statistic 2 E|a-b| - E|a-a'| - E|b-b'| over the empirical laws (V-form,
    diagonal included, hence nonnegative and exactly 0 for identical
    samples).  One dimension runs in O(N log N) per permutation through
    sorted prefix sums; higher dimensions build the pooled distance matrix
    once, so keep pooled sizes moderate there.  Permutation streams are
    seeded per permutation index, making the p-value reproducible.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ParameterError("A and B must be (n, dim) sample matrices with equal dim")
    n, m = A.shape[0], B.shape[0]
    if n_perm < 1:
        raise ParameterError("n_perm must be at least 1")
    N = n + m
    identical = n == m and np.array_equal(A, B)

    if A.shape[1] == 1:
        order = np.argsort(np.concatenate([A[:, 0], B[:, 0]]), kind="stable")
        z = np.concatenate([A[:, 0], B[:, 0]])[order]
        sel0 = order < n
        # sum_{i<j} (z_j - z_i) over an ascending sample of size k is
        # (w_k * z).sum() with the rank weights w_k = 2i - k + 1
        w_pool, w_a, w_b = (2.0 * np.arange(k) - k + 1.0 for k in (N, n, m))
        U_pool = float((w_pool * z).sum())

        def stat_from(sel_a: np.ndarray) -> float:
            ua = float((w_a * np.compress(sel_a, z)).sum())
            ub = float((w_b * np.compress(~sel_a, z)).sum())
            cross = U_pool - ua - ub
            return 2.0 * cross / (n * m) - 2.0 * ua / (n * n) - 2.0 * ub / (m * m)
    else:
        # cdist's values without loading scipy.spatial; row blocks bound the
        # temporary, where a broadcast (N, N, dim) array would take dim
        # times the memory of D
        P = np.concatenate([A, B], axis=0)
        PT = np.ascontiguousarray(P.T)
        D = np.empty((N, N))
        for s in range(0, N, _DIST_ROWS):
            _sq_distances(P[s:s + _DIST_ROWS], PT, out=D[s:s + _DIST_ROWS])
        np.sqrt(D, out=D)
        sel0 = np.zeros(N, dtype=bool)
        sel0[:n] = True

        def stat_from(sel_a: np.ndarray) -> float:
            sa = sel_a.astype(np.float64)
            sb = 1.0 - sa
            Dsa = D @ sa
            s_aa = float(sa @ Dsa)
            s_bb = float(sb @ (D @ sb))
            s_ab = float(sb @ Dsa)
            return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)

    obs = 0.0 if identical else stat_from(sel0)
    count = 0
    for rng in path_streams(seed, range(n_perm)):
        sel = np.zeros(N, dtype=bool)
        sel[rng.permutation(N)[:n]] = True
        if stat_from(sel) >= obs:
            count += 1

    p = (count + 1) / (n_perm + 1)
    return EnergyTestResult(float(obs), float(p), n_perm, n, m)
