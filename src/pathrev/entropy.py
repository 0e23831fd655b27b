"""Relative entropy, Girsanov-type path actions and their decompositions.

For a process P with momenta beta_fwd, beta_bwd relative to a reversible
reference R (drift v_ref, matrix a, invariant law m), the path entropy
splits two ways:

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
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (DomainError, MatrixField, ParameterError, PathEnsemble,
                   TimeGrid, VectorField, trapezoid)
from .density import DensityFlow
from .models import Gaussian, GaussianFlow, GraphWalkSpec, KolmogorovSpec
from .reversal import BackwardDriftField


def gaussian_relative_entropy(p: Gaussian, r: Gaussian) -> float:
    """H(p | r) for Gaussians, in nats."""
    if p.dim != r.dim:
        raise ParameterError("dimension mismatch")
    d = p.dim
    ri = np.linalg.inv(r.cov)
    delta = p.mean - r.mean
    _, ldp = np.linalg.slogdet(p.cov)
    _, ldr = np.linalg.slogdet(r.cov)
    return float(0.5 * (np.trace(ri @ p.cov) + delta @ ri @ delta - d + ldr - ldp))


@dataclass(frozen=True)
class ActionEstimate:
    value: float
    stderr: float
    n_paths: int
    n_excluded: int = 0


def _path_actions(integrand: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-path trapezoid integrals, dropping paths with non-finite values."""
    ok = np.isfinite(integrand).all(axis=1)
    vals = trapezoid(integrand[ok], nodes, axis=1)
    return vals, int((~ok).sum())


def _estimate(vals: np.ndarray, n_excluded: int) -> ActionEstimate:
    n = vals.size
    if n == 0:
        raise ParameterError("no usable paths")
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return ActionEstimate(float(vals.mean()), se, n, n_excluded)


def girsanov_action(beta: VectorField, a: MatrixField, e: PathEnsemble) -> ActionEstimate:
    """E int_0^T |beta(t, X_t)|_a^2 / 2 dt along the ensemble."""
    nodes = e.grid.nodes
    integrand = np.empty((e.n_paths, nodes.size))
    for k, t in enumerate(nodes):
        X = e.paths[:, k, :]
        integrand[:, k] = 0.5 * a.quad(t, X, beta(t, X))
    vals, dropped = _path_actions(integrand, nodes)
    return _estimate(vals, dropped)


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
    """H(P_t | m): closed form for Gaussian data, else a Monte-Carlo mean of
    log(dP_t/dm) over the slice."""
    if density.gaussian_flow is not None and ref.m is not None:
        return gaussian_relative_entropy(density.gaussian_flow.at(t), ref.m), 0.0
    vals = np.log(np.maximum(density.pdf(t, X), 1e-300)) - ref.m_logpdf(X)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def current_osmosis_decomposition(drift: VectorField, density: DensityFlow,
                                  ref: KolmogorovSpec, e: PathEnsemble,
                                  b_max: float = 1e6) -> EntropyReport:
    """Full entropy report for a Markov process sharing a with the reference.

    drift is the forward drift of P, density its marginal flow (exact or
    estimated), ref the reversible reference.  The backward momenta come from
    the reversal formula applied to the same data, so every reported number
    is produced by one code path from (drift, density, ref, ensemble).
    """
    if drift.dim != ref.dim or density.dim != ref.dim or e.dim != ref.dim:
        raise ParameterError("dimension mismatch")
    nodes = e.grid.nodes
    v_bwd = BackwardDriftField(drift, ref.a, ref.div_a, density, b_max)

    shape = (e.n_paths, nodes.size)
    int_f = np.empty(shape)
    int_b = np.empty(shape)
    int_c = np.empty(shape)
    int_o = np.empty(shape)
    for k, t in enumerate(nodes):
        X = e.paths[:, k, :]
        vr = ref.drift(t, X)
        bf = ref.a.solve(t, X, drift(t, X) - vr)
        bb = ref.a.solve(t, X, v_bwd(t, X) - vr)
        int_f[:, k] = 0.5 * ref.a.quad(t, X, bf)
        int_b[:, k] = 0.5 * ref.a.quad(t, X, bb)
        int_c[:, k] = 0.5 * ref.a.quad(t, X, 0.5 * (bf - bb))
        int_o[:, k] = 0.5 * ref.a.quad(t, X, 0.5 * (bf + bb))

    ok = (np.isfinite(int_f) & np.isfinite(int_b)).all(axis=1)
    dropped = int((~ok).sum())
    est = {}
    for name, arr in (("fwd", int_f), ("bwd", int_b), ("cur", int_c), ("osm", int_o)):
        est[name] = _estimate(trapezoid(arr[ok], nodes, axis=1), dropped)

    b0, se0 = _boundary_entropy(density, ref, 0.0, e.paths[:, 0, :])
    bT, seT = _boundary_entropy(density, ref, e.grid.T, e.paths[:, -1, :])

    total = b0 + est["fwd"].value
    total_se = math.hypot(se0, est["fwd"].stderr)
    return EntropyReport(
        boundary_initial=b0, boundary_terminal=bT,
        action_fwd=est["fwd"].value, action_bwd=est["bwd"].value,
        action_current=est["cur"].value, action_osmotic=est["osm"].value,
        total=total,
        boundary_initial_stderr=se0, boundary_terminal_stderr=seT,
        action_fwd_stderr=est["fwd"].stderr, action_bwd_stderr=est["bwd"].stderr,
        action_current_stderr=est["cur"].stderr, action_osmotic_stderr=est["osm"].stderr,
        total_stderr=total_se, n_paths=int(ok.sum()), n_excluded=dropped)


def fisher_information(mu: Gaussian, m: Gaussian, a: np.ndarray | None = None) -> float:
    """I_a(mu | m) = int |grad log sqrt(d mu/d m)|_a^2 / 2 d mu, closed form.

    With D(x) = (Sm^{-1}(x - m.mean) - Smu^{-1}(x - mu.mean)) / 2 this is
    E_mu |D|_a^2 / 2 = (tr(A a A Smu) + c . a c) / 2 for A = (Sm^{-1} -
    Smu^{-1}) / 2 and c = Sm^{-1}(mu.mean - m.mean) / 2.
    """
    if mu.dim != m.dim:
        raise ParameterError("dimension mismatch")
    d = mu.dim
    a = np.eye(d) if a is None else np.asarray(a, dtype=np.float64)
    mi = np.linalg.inv(m.cov)
    pi_ = np.linalg.inv(mu.cov)
    A = 0.5 * (mi - pi_)
    c = 0.5 * mi @ (mu.mean - m.mean)
    return float(0.5 * (np.trace(A @ a @ A @ mu.cov) + c @ a @ c))


def fisher_information_mc(density: DensityFlow, ref: KolmogorovSpec, t: float,
                          X: np.ndarray) -> ActionEstimate:
    """Monte-Carlo I_a(P_t | m) from a slice of samples X drawn from P_t."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    D = 0.5 * (np.atleast_2d(density.score(t, X)) - np.atleast_2d(ref.m_score(X)))
    vals = 0.5 * ref.a.quad(t, X, D)
    ok = np.isfinite(vals)
    return _estimate(vals[ok], int((~ok).sum()))


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
                          a: np.ndarray | None = None) -> tuple[FisherReport, float]:
    """Check F(mu_T) - F(mu_0) = -2 int I_a(mu_s | m) ds for a zero-momentum
    flow (the reference restarted from mu_0).  Returns the sampled report and
    the absolute residual of the identity under trapezoid quadrature."""
    ts = grid.nodes
    F = np.array([0.5 * gaussian_relative_entropy(flow.at(t), m) for t in ts])
    I = np.array([fisher_information(flow.at(t), m, a) for t in ts])
    residual = abs(float(F[-1] - F[0] + 2.0 * trapezoid(I, ts)))
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
    return entropy_vs_counting(spec.p0) + float(trapezoid(vals, nodes))
