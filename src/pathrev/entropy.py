"""Relative entropy, Girsanov-type path actions and their decompositions.

For a process P with diffusion matrix a and momenta beta_fwd, beta_bwd
relative to the reversible reference R with the same a (drift v_ref = -x,
invariant law m = N(0, a/2), so R* = R), the path entropy splits two ways:

    H(P|R) = H(P_0|m) + E int |beta_fwd|_a^2 / 2 dt
           = H(P_T|m) + E int |beta_bwd|_a^2 / 2 dt

and, against the reference restarted from P_0, into free energy plus
current and osmotic actions:

    H(P|R^{P_0}) = F(P_T) - F(P_0)
                   + int E |beta_cu|_a^2 / 2 + E |beta_os|_a^2 / 2 dt

with F(mu) = H(mu|m) / 2 and the osmotic action equal to the time integral
of the Fisher information of the marginals.  Monte-Carlo estimates use
per-path trapezoid quadrature on the ensemble grid; reductions are plain
numpy sums, so results are deterministic for a given ensemble.

Path actions are summed node by node: the loop copies each grid node's
slice of the ensemble once into a contiguous (n_paths, dim) array, evaluates
every integrand on it, and adds the trapezoid term d_k (y_k + y_{k+1}) / 2.0
of each integrand to a per-path accumulator, so memory stays at a few
(n_paths,) rows.  Each per-path integral is therefore a left-to-right sum of
np.trapezoid's terms over the nodes, where np.trapezoid sums the same terms
pairwise; the two agree to rounding.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (DomainError, MatrixField, ParameterError, PathEnsemble,
                   TimeGrid, VectorField, mean_stderr)
from .density import DensityFlow
from .models import Gaussian, GaussianFlow, GraphWalkSpec, KolmogorovSpec
from .reversal import BackwardDriftField, momentum_fields


def gaussian_relative_entropy(p: Gaussian, r: Gaussian) -> float:
    """H(p | r) for Gaussians, in nats, from the laws' cached inverse and
    log-determinants."""
    if p.dim != r.dim:
        raise ParameterError("dimension mismatch")
    ri = r._inv
    delta = p.mean - r.mean
    return float(0.5 * (np.trace(ri @ p.cov) + delta @ ri @ delta - p.dim
                        + r._logdet - p._logdet))


@dataclass(frozen=True)
class ActionEstimate:
    value: float
    stderr: float
    n_paths: int
    n_excluded: int = 0


def _estimate(vals: np.ndarray, n_excluded: int) -> ActionEstimate:
    return ActionEstimate(*mean_stderr(vals), vals.size, n_excluded)


def _path_actions(e: PathEnsemble, integrands, n_drop: int) -> list[ActionEstimate]:
    """Mean per-path trapezoid integral of each integrand along the ensemble.

    integrands(t, X) returns the (n_paths,) integrand rows at one grid node.
    A path is left out of every estimate when any of the first n_drop rows
    is non-finite on it at some node.
    """
    nodes = e.grid.nodes
    d = np.diff(nodes)
    ok = np.ones(e.n_paths, dtype=bool)
    for k, t in enumerate(nodes):
        y = np.array(integrands(t, np.ascontiguousarray(e.paths[:, k, :])))
        ok &= np.isfinite(y[:n_drop]).all(axis=0)
        if k == 0:
            acc = np.zeros_like(y)
        else:
            with np.errstate(invalid="ignore"):  # inf - inf only on dropped paths
                acc += d[k - 1] * (prev + y) / 2.0
        prev = y
    dropped = int((~ok).sum())
    return [_estimate(row[ok], dropped) for row in acc]


def girsanov_action(beta: VectorField, a: MatrixField, e: PathEnsemble) -> ActionEstimate:
    """E int_0^T |beta(t, X_t)|_a^2 / 2 dt along the ensemble."""
    (est,) = _path_actions(e, lambda t, X: [0.5 * a.quad(t, X, beta(t, X))], n_drop=1)
    return est


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of a process relative to a reversible reference, both ways.

    total is the forward estimate boundary_initial + action_fwd; the backward
    route boundary_terminal + action_bwd estimates the same number.  Actions
    are E int |beta|_a^2 / 2 dt for the respective momenta.
    """

    boundary_initial: float
    boundary_terminal: float
    action_fwd: float
    action_bwd: float
    action_current: float
    action_osmotic: float
    total: float
    boundary_initial_stderr: float
    boundary_terminal_stderr: float
    action_fwd_stderr: float
    action_bwd_stderr: float
    action_current_stderr: float
    action_osmotic_stderr: float
    total_stderr: float
    n_paths: int
    n_excluded: int

    @property
    def backward_total(self) -> float:
        return self.boundary_terminal + self.action_bwd

    @property
    def backward_total_stderr(self) -> float:
        return math.hypot(self.boundary_terminal_stderr, self.action_bwd_stderr)

    @property
    def free_energy_change(self) -> float:
        """F(P_T) - F(P_0) with F = H(. | m) / 2."""
        return 0.5 * (self.boundary_terminal - self.boundary_initial)

    @property
    def current_osmotic_action(self) -> float:
        return self.action_current + self.action_osmotic

    @property
    def parallelogram_residual(self) -> float:
        return abs(0.5 * self.action_fwd + 0.5 * self.action_bwd
                   - self.action_current - self.action_osmotic)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["backward_total"] = self.backward_total
        out["free_energy_change"] = self.free_energy_change
        out["current_osmotic_action"] = self.current_osmotic_action
        out["parallelogram_residual"] = self.parallelogram_residual
        return out


def _boundary_entropy(density: DensityFlow, ref: KolmogorovSpec, t: float,
                      X: np.ndarray) -> tuple[float, float]:
    """H(P_t | m): closed form when the slice law at t is Gaussian, else a
    Monte-Carlo mean of log(dP_t/dm) over the slice X."""
    law = density.at(t)
    if isinstance(law, Gaussian):
        return gaussian_relative_entropy(law, ref.m), 0.0
    vals = np.log(np.maximum(law.pdf(X), 1e-300)) - ref.m.logpdf(X)
    return mean_stderr(vals)


def current_osmosis_decomposition(drift: VectorField, density: DensityFlow,
                                  ref: KolmogorovSpec, e: PathEnsemble) -> EntropyReport:
    """Full entropy report for a Markov process sharing a with the reference.

    drift is the forward drift of P, density its marginal flow (exact or
    estimated), ref the reversible reference.  The backward momenta come from
    the reversal formula applied to the same data, so every reported number
    is produced by one code path from (drift, density, ref, ensemble).
    """
    if drift.dim != ref.dim or density.dim != ref.dim or e.dim != ref.dim:
        raise ParameterError("dimension mismatch")
    mom = momentum_fields(drift, BackwardDriftField(drift, ref.a, ref.div_a, density), ref)

    def integrands(t, X):  # fwd, bwd, current, osmotic
        return [0.5 * ref.a.quad(t, X, beta) for beta in mom(t, X)]

    fwd, bwd, cur, osm = _path_actions(e, integrands, n_drop=2)

    b0, se0 = _boundary_entropy(density, ref, 0.0, e.paths[:, 0, :])
    bT, seT = _boundary_entropy(density, ref, e.grid.T, e.paths[:, -1, :])

    total = b0 + fwd.value
    total_se = math.hypot(se0, fwd.stderr)
    return EntropyReport(
        boundary_initial=b0, boundary_terminal=bT,
        action_fwd=fwd.value, action_bwd=bwd.value,
        action_current=cur.value, action_osmotic=osm.value,
        total=total,
        boundary_initial_stderr=se0, boundary_terminal_stderr=seT,
        action_fwd_stderr=fwd.stderr, action_bwd_stderr=bwd.stderr,
        action_current_stderr=cur.stderr, action_osmotic_stderr=osm.stderr,
        total_stderr=total_se, n_paths=fwd.n_paths, n_excluded=fwd.n_excluded)


def fisher_information(mu: Gaussian, m: Gaussian, a: np.ndarray) -> float:
    """I_a(mu | m) = int |grad log sqrt(d mu/d m)|_a^2 / 2 d mu, closed form,
    for the constant (dim, dim) diffusion matrix a.

    With D(x) = (Sm^{-1}(x - m.mean) - Smu^{-1}(x - mu.mean)) / 2 this is
    E_mu |D|_a^2 / 2 = (tr(A a A Smu) + c . a c) / 2 for A = (Sm^{-1} -
    Smu^{-1}) / 2 and c = Sm^{-1}(mu.mean - m.mean) / 2.  The inverses are
    the laws' cached ones.
    """
    if mu.dim != m.dim:
        raise ParameterError("dimension mismatch")
    a = np.asarray(a, dtype=np.float64)
    mi = m._inv
    A = 0.5 * (mi - mu._inv)
    c = 0.5 * mi @ (mu.mean - m.mean)
    return float(0.5 * (np.trace(A @ a @ A @ mu.cov) + c @ a @ c))


@dataclass(frozen=True)
class FisherReport:
    """Free energy and Fisher information of a Gaussian flow along a grid."""

    times: np.ndarray
    free_energy: np.ndarray
    fisher: np.ndarray

    def to_rows(self):
        for t, f, i in zip(self.times, self.free_energy, self.fisher):
            yield float(t), float(f), float(i)


def heat_flow_dissipation(flow: GaussianFlow, m: Gaussian, grid: TimeGrid,
                          a: np.ndarray) -> tuple[FisherReport, float]:
    """Check F(mu_T) - F(mu_0) = -2 int I_a(mu_s | m) ds for a zero-momentum
    flow (the reference restarted from mu_0) with the constant diffusion
    matrix a, which the caller passes (np.eye(dim) for the standard
    reference).  Returns the sampled report and the absolute residual of the
    identity under trapezoid quadrature."""
    ts = grid.nodes
    laws = [flow.at(t) for t in ts]
    F = np.array([0.5 * gaussian_relative_entropy(law, m) for law in laws])
    I = np.array([fisher_information(law, m, a) for law in laws])
    residual = abs(float(F[-1] - F[0] + 2.0 * np.trapezoid(I, ts)))
    return FisherReport(ts, F, I), residual


def jump_entropy_integrand(x):
    """The convex integrand of jump entropy: x log x - x + 1 for x > 0,
    1 at x = 0, +inf for x < 0.  Total on all of R, vectorized."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.full(arr.shape, np.inf)
    out[arr == 0] = 1.0
    pos = arr > 0
    v = arr[pos]
    out[pos] = v * np.log(v) - v + 1.0
    return float(out[0]) if scalar else out


def entropy_vs_counting(p) -> float:
    """H(p | counting measure) = sum p log p; finite, possibly negative."""
    p = np.asarray(p, dtype=np.float64)
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ParameterError("p must be a probability vector")
    pos = p > 0
    return float((p[pos] * np.log(p[pos])).sum())


def rw_relative_entropy(spec: GraphWalkSpec, marginals, grid: TimeGrid) -> float:
    """Entropy of a walk's law relative to the unit-rate walk started from
    the counting measure:

        H = sum_x p_0(x) log p_0(x)
            + int_0^T sum_x p_t(x) sum_{y ~ x} h(j(t, x; y)) dt

    with h the jump entropy integrand.  The reference is sigma-finite, so the
    value may be negative.  Negative intensities are a domain error.
    """
    A = spec.adjacency
    nodes = grid.nodes
    vals = np.empty(nodes.size)
    for k, t in enumerate(nodes):
        p = np.asarray(marginals(t), dtype=np.float64)
        J = spec.intensity(t)
        if (J[A] < 0).any():
            raise DomainError(f"negative intensity at t={t}")
        site = np.where(A, jump_entropy_integrand(J), 0.0).sum(axis=1)
        vals[k] = float(p @ site)
    return entropy_vs_counting(spec.p0) + float(np.trapezoid(vals, nodes))
