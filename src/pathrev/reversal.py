"""Time reversal of diffusions and jump walks.

For a diffusion with forward drift b, diffusion matrix a and marginal
densities mu_t, the reversed process solves an SDE with the same a and drift

    b_rev(t, x) = -b(T - t, x) + div a(T - t, x) + a(T - t, x) grad log mu_{T-t}(x),

where (div a)_i = sum_j d_j a_ij.  BackwardDriftField computes it at original
time T - t; its reversed(T), which reversed_drift returns, reads it on the
reversed clock t.  The same data split symmetrically gives
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

from .core import (ConsistencyError, MatrixField, ParameterError, VectorField,
                   _matvec_rows)
from .density import DensityFlow
from .models import Gaussian, GraphWalkSpec, KolmogorovSpec

_B_MAX = 1e6  # backward drift norms above this are rescaled to it (cap_hits)


class BackwardDriftField:
    """Backward drift at original time: -b + div a + a score.

    Evaluated on (n, dim) batches.  When b is linear (VectorField.linear
    records its (M, c)), div a is the linear zero and the slice law at t is a
    Gaussian N(m_t, Sigma_t), the field is affine at t: A(t) x + c(t) with
    A = -M - a Sigma_t^{-1} and c = -c_b + a Sigma_t^{-1} m_t, which affine(t)
    returns.  Otherwise, as for a
    KdeModel slice law, it is evaluated through the score of one
    DensityFlow.pdf_score_in_support query: score values below the
    density's support floor are replaced by zero and counted in floor_hits.
    On either path, output norms above _B_MAX are rescaled to it and counted
    in cap_hits; both counters are diagnostics, not errors.
    """

    def __init__(self, b: VectorField, a: MatrixField, div_a: VectorField,
                 density: DensityFlow):
        if b.dim != density.dim or a.dim != density.dim:
            raise ParameterError("drift, a and density disagree on dimension")
        self.b, self.a, self.div_a, self.density = b, a, div_a, density
        self.dim = density.dim
        self.floor_hits = 0
        self.cap_hits = 0
        div_zero = div_a.linear is not None and not any(v.any() for v in div_a.linear)
        self._linear_b = b.linear if div_zero else None

    def affine(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        """(A, c) with the field equal to A x + c at t before the cap, or
        None where it is not affine."""
        if self._linear_b is None:
            return None
        law = self.density.at(t)
        if not isinstance(law, Gaussian):
            return None
        M, cb = self._linear_b
        P = self.a.constant_matrix @ law._inv
        return -M - P, -cb + P @ law.mean

    def __call__(self, t: float, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ParameterError(f"expected points of dimension {self.dim}, got shape {X.shape}")
        table = self.affine(t)
        if table is None:
            # the pdf is dropped at once: held to the end of the call, it
            # kept the heap from shrinking and raised a KDE run's peak RSS
            sc, ok = self.density.pdf_score_in_support(t, X)[1:]
            if not ok.all():
                self.floor_hits += int((~ok).sum())
                sc = np.where(ok[:, None], sc, 0.0)
            out = -self.b(t, X) + self.div_a(t, X) + self.a.apply(sc)
        else:
            out = _matvec_rows(table[0], X) + table[1]
        norms = np.linalg.norm(out, axis=1)
        over = norms > _B_MAX
        if over.any():
            self.cap_hits += int(over.sum())
            out[over] *= (_B_MAX / norms[over])[:, None]
        return out

    def reversed(self, T: float) -> VectorField:
        """This field on the reversed clock: its value at s in [0, T] is the
        field's at T - s, counted in this field's floor_hits and cap_hits.  An
        Euler run over [0, T] queries s <= T - dt only, never original time 0."""
        if not (T > 0):
            raise ParameterError(f"horizon must be positive, got {T}")
        T = float(T)
        return VectorField(lambda s, X: self(_original_time(s, T), X), self.dim)


def _original_time(s: float, T: float) -> float:
    """T - s clamped to [0, T], for a reversed time s in [0, T] up to roundoff."""
    if not (-1e-12 <= s <= T * (1 + 1e-12)):
        raise ParameterError(f"reversed time {s} outside [0, {T}]")
    return min(max(T - s, 0.0), T)


def reversed_drift(b: VectorField, a: MatrixField, div_a: VectorField,
                   density: DensityFlow, T: float) -> VectorField:
    """Drift of the time-reversed diffusion on [0, T], on the reversed clock."""
    return BackwardDriftField(b, a, div_a, density).reversed(T)


@dataclass(frozen=True)
class MomentumFields:
    """Momenta of a process relative to a reversible reference.

    beta_dir solves a beta_dir = v_dir - v_ref for dir in {fwd, bwd}, and
    beta_cu, beta_os are the half-difference and half-sum.  A call at (t, X)
    returns all four from one evaluation of each velocity.
    """

    v_fwd: VectorField
    v_bwd: VectorField
    ref: KolmogorovSpec

    def __call__(self, t: float, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """(beta_fwd, beta_bwd, beta_cu, beta_os) on the (n, dim) batch X."""
        a, vr = self.ref.a, self.ref.drift(t, X)
        bf = a.solve(self.v_fwd(t, X) - vr)
        bb = a.solve(self.v_bwd(t, X) - vr)
        return bf, bb, 0.5 * (bf - bb), 0.5 * (bf + bb)


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
        lhs = momentum(t, Xs)[3]
        rhs = 0.5 * (score[ok] - ref.m.score(Xs))
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
        """This walk as a spec with callable intensities, which
        reversed_jump_intensities reverses again; every edge must be defined.
        rate_bound bounds the total out-rate for a thinning simulation, which
        ctmc_simulate does not offer: it refuses the spec."""
        from .models import graph_walk

        def fn(s):
            J = self.intensity(s)
            if np.isnan(J).any():
                raise ConsistencyError("reversed intensity undefined on a charged edge")
            return J

        return graph_walk(self.adjacency, fn, self.p_init, rate_bound=rate_bound)


def reversed_jump_intensities(spec: GraphWalkSpec | ReversedWalk,
                              marginals: Callable[[float], np.ndarray],
                              T: float) -> ReversedWalk:
    """Reverse a walk using its marginal flow.

    spec is a GraphWalkSpec or a ReversedWalk: only n_states, adjacency and
    intensity(t) are read, so a reversed walk reverses again without a
    simulatable spec.  marginals(t) must return the law p_t of the walk
    being reversed.  A state y with p_t(y) = 0 but incoming flow
    p_t(x) j(t, x; y) > 0 is inconsistent and raises; a state with neither
    mass nor flow yields undefined (NaN) rows.
    """
    if not (T > 0):
        raise ParameterError(f"horizon must be positive, got {T}")
    A = spec.adjacency

    def at_reversed(s: float) -> np.ndarray:
        t = _original_time(s, T)
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
