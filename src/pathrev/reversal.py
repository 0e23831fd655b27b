"""Time reversal of diffusions and jump walks.

For a diffusion with forward drift b, diffusion matrix a and marginal
densities mu_t, the reversed process solves an SDE with the same a and drift

    b_rev(t, x) = -b(T - t, x) + div a(T - t, x) + a(T - t, x) grad log mu_{T-t}(x),

where (div a)_i = sum_j d_j a_ij.  The same data split symmetrically gives
the current and osmotic velocities: with v_fwd = b and v_bwd the backward
drift at original time (v_bwd(t, x) = b_rev(T - t, x)),

    v_cu = (v_fwd - v_bwd) / 2,   v_os = (v_fwd + v_bwd) / 2.

For a walk with marginals p_t the reversed jump intensities satisfy
p_t(x) j_fwd(t, x; y) = p_t(y) j_bwd(t, y; x) and are packaged at reversed
time s = T - t.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (ConsistencyError, MatrixField, ParameterError, VectorField)
from .density import DensityFlow
from .models import GraphWalkSpec, KolmogorovSpec

_B_MAX = 1e6  # backward drift norms above this are rescaled to it (cap_hits)


class BackwardDriftField:
    """Backward drift at original time: -b + div a + a score.

    Evaluated on (n, dim) batches.  Score values below the density's
    support floor are replaced by zero and counted in floor_hits.  Output
    norms above _B_MAX are rescaled to it and counted in cap_hits; both
    counters are diagnostics, not errors.
    """

    def __init__(self, b: VectorField, a: MatrixField, div_a: VectorField,
                 density: DensityFlow):
        if b.dim != density.dim or a.dim != density.dim:
            raise ParameterError("drift, a and density disagree on dimension")
        self.b, self.a, self.div_a, self.density = b, a, div_a, density
        self.dim = density.dim
        self.floor_hits = 0
        self.cap_hits = 0

    def __call__(self, t: float, X: np.ndarray) -> np.ndarray:
        sc, ok = self.density.score_in_support(t, X)
        if not ok.all():
            self.floor_hits += int((~ok).sum())
            sc = np.where(ok[:, None], sc, 0.0)
        out = -self.b(t, X) + self.div_a(t, X) + self.a.apply(t, X, sc)
        norms = np.linalg.norm(out, axis=1)
        over = norms > _B_MAX
        if over.any():
            self.cap_hits += int(over.sum())
            out[over] *= (_B_MAX / norms[over])[:, None]
        return out


class ReversedDrift:
    """Drift of the reversed process as a field in reversed time.

    Evaluation at reversed time t delegates to self.backward at original time
    T - t; its floor_hits and cap_hits count the queries.  An explicit Euler
    run over [0, T] only ever queries reversed times up to T - dt, so the
    original time 0 slice is never touched.
    """

    def __init__(self, backward: BackwardDriftField, T: float):
        if not (T > 0):
            raise ParameterError(f"horizon must be positive, got {T}")
        self.backward = backward
        self.T = float(T)
        self.dim = backward.dim

    def __call__(self, t: float, X: np.ndarray) -> np.ndarray:
        if not (-1e-12 <= t <= self.T * (1 + 1e-12)):
            raise ParameterError(f"reversed time {t} outside [0, {self.T}]")
        return self.backward(self.T - t, X)


def reversed_drift(b: VectorField, a: MatrixField, div_a: VectorField,
                   density: DensityFlow, T: float) -> ReversedDrift:
    """Drift of the time-reversed diffusion on [0, T]."""
    return ReversedDrift(BackwardDriftField(b, a, div_a, density), T)


@dataclass(frozen=True)
class MomentumFields:
    """Momenta of a process relative to a reversible reference.

    beta_dir solves a beta_dir = v_dir - v_ref for dir in {fwd, bwd}, and
    beta_cu, beta_os are the half-difference and half-sum.  A call at (t, X)
    returns all four from one evaluation of each velocity; beta_os is the
    osmotic one alone.
    """

    v_fwd: VectorField
    v_bwd: VectorField
    ref: KolmogorovSpec

    def __call__(self, t: float, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """(beta_fwd, beta_bwd, beta_cu, beta_os) on the (n, dim) batch X."""
        a, vr = self.ref.a, self.ref.drift(t, X)
        bf = a.solve(t, X, self.v_fwd(t, X) - vr)
        bb = a.solve(t, X, self.v_bwd(t, X) - vr)
        return bf, bb, 0.5 * (bf - bb), 0.5 * (bf + bb)

    def beta_os(self, t: float, X: np.ndarray) -> np.ndarray:
        return self(t, X)[3]


def momentum_fields(v_fwd: VectorField, v_bwd: VectorField,
                    ref: KolmogorovSpec) -> MomentumFields:
    """Momenta of (v_fwd, v_bwd) relative to the reference generator drift."""
    if v_fwd.dim != ref.dim or v_bwd.dim != ref.dim:
        raise ParameterError("velocities and reference disagree on dimension")
    return MomentumFields(v_fwd, v_bwd, ref)


@dataclass(frozen=True)
class OsmoticResidual:
    max_abs: float
    weighted_l2: float
    n_used: int
    n_skipped: int


def osmotic_residual(density: DensityFlow, ref: KolmogorovSpec,
                     momentum: MomentumFields, times, X: np.ndarray) -> OsmoticResidual:
    """Residual of the osmotic identity beta_os = grad log sqrt(rho).

    rho_t = d mu_t / dm is the density of the process law against the
    reversible reference law, so grad log sqrt(rho) = (score_mu - score_m)/2.
    X is an (n, dim) batch of probes and times a sequence of times.  Probes
    below the density's support floor are skipped.  Reports the sup norm
    and the mu-weighted L2 norm over the used probes.
    """
    sup = 0.0
    num = 0.0
    wsum = 0.0
    used = skipped = 0
    for t in times:
        t = float(t)
        pdf, score, ok = density.pdf_score_in_support(t, X)
        if not ok.any():
            skipped += X.shape[0]
            continue
        Xs = X[ok]
        lhs = momentum.beta_os(t, Xs)
        rhs = 0.5 * (score[ok] - ref.m_score(Xs))
        r = np.linalg.norm(lhs - rhs, axis=1)
        w = pdf[ok]
        sup = max(sup, float(r.max()))
        num += float((w * r ** 2).sum())
        wsum += float(w.sum())
        used += Xs.shape[0]
        skipped += int((~ok).sum())
    if used == 0:
        raise ParameterError("all probes fell below the support floor")
    return OsmoticResidual(sup, float(np.sqrt(num / wsum)), used, skipped)


@dataclass(frozen=True)
class ReversedWalk:
    """Reversed jump intensities packaged at reversed time s = T - t.

    intensity(s)[u, v] is the reversed walk's rate from u to v.  Entries that
    are 0/0 (no mass and no flow) are undefined and stored as NaN: flagged
    absent, not zero.  p_init is the terminal marginal of the forward walk,
    i.e. the reversed initial law.
    """

    n_states: int
    adjacency: np.ndarray
    T: float
    _intensity_fn: Callable[[float], np.ndarray]
    p_init: np.ndarray

    def intensity(self, s: float) -> np.ndarray:
        return self._intensity_fn(float(s))

    def backward_intensity(self, t: float) -> np.ndarray:
        """Backward intensities indexed by original time t."""
        return self.intensity(self.T - t)

    def as_walk_spec(self, rate_bound: float) -> GraphWalkSpec:
        """Materialize as a simulatable walk; requires every edge defined."""
        from .models import graph_walk

        def fn(s):
            J = self.intensity(s)
            if np.isnan(J).any():
                raise ConsistencyError("reversed intensity undefined on a charged edge")
            return J

        return graph_walk(self.adjacency, fn, self.p_init, rate_bound=rate_bound,
                          tag="reversed-walk")


def reversed_jump_intensities(spec: GraphWalkSpec, marginals: Callable[[float], np.ndarray],
                              T: float) -> ReversedWalk:
    """Reverse a walk using its marginal flow.

    marginals(t) must return the law p_t of the forward walk.  A state y with
    p_t(y) = 0 but incoming flow p_t(x) j(t, x; y) > 0 is inconsistent and
    raises; a state with neither mass nor flow yields undefined (NaN) rows.
    """
    if not (T > 0):
        raise ParameterError(f"horizon must be positive, got {T}")
    A = spec.adjacency

    def at_reversed(s: float) -> np.ndarray:
        if not (-1e-12 <= s <= T * (1 + 1e-12)):
            raise ParameterError(f"reversed time {s} outside [0, {T}]")
        t = min(max(T - s, 0.0), T)
        p = np.asarray(marginals(t), dtype=np.float64)
        J = spec.intensity(t)
        flow = p[:, None] * J  # flow[x, y] = p(x) j(x, y)
        dead = p == 0.0
        bad = dead & (flow.sum(axis=0) > 0)
        if bad.any():
            y = int(np.nonzero(bad)[0][0])
            raise ConsistencyError(
                f"marginal mass is zero at state {y}, t={t}, but flow into it is positive")
        out = np.zeros_like(J)
        alive = ~dead
        out[alive] = flow.T[alive] / p[alive, None]
        # no mass and no flow: the reversed rates out of a dead state are 0/0
        out[dead[:, None] & A] = np.nan
        return out

    p_T = np.asarray(marginals(T), dtype=np.float64)
    return ReversedWalk(spec.n_states, A, float(T), at_reversed, p_T)
