"""Marginal densities and scores: exact Gaussian flows and kernel estimates.

A DensityFlow bundles pdf, score and an approximate supremum per time slice,
plus a relative support floor below which scores are not trusted.  Scores
from the kernel estimator are analytic derivatives of the estimator itself,
never finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .core import (BandwidthError, ParameterError, PathEnsemble, SupportError,
                   _freeze)
from .models import GaussianFlow

_LOG_2PI = math.log(2.0 * math.pi)
_CHUNK = 256  # query rows per kernel-matrix block, bounds transient memory


@dataclass(frozen=True)
class DensityFlow:
    """Time-indexed density with score and a trust region.

    score values are returned everywhere they are finite; in_support marks
    where pdf >= floor_rel * sup_pdf(t), and consumers (the reversal module
    in particular) are expected to gate score usage on that mask.
    """

    pdf_fn: Callable[[float, np.ndarray], np.ndarray]
    score_fn: Callable[[float, np.ndarray], np.ndarray]
    sup_fn: Callable[[float], float]
    dim: int
    floor_rel: float = 1e-3
    tag: str = ""
    gaussian_flow: GaussianFlow | None = None

    def __post_init__(self):
        if not (0.0 < self.floor_rel < 1.0):
            raise ParameterError(f"floor_rel must lie in (0, 1), got {self.floor_rel}")

    def pdf(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.pdf_fn(t, x)

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.score_fn(t, x)

    def support_threshold(self, t: float) -> float:
        return self.floor_rel * self.sup_fn(t)

    def in_support(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.atleast_1d(self.pdf_fn(t, x)) >= self.support_threshold(t)


def exact_flow_density(flow: GaussianFlow, floor_rel: float = 1e-12) -> DensityFlow:
    """Wrap a Gaussian marginal flow as a DensityFlow with exact score.

    The closed-form score is valid on all of space, so the trust floor is
    nominal; the 1e-3 default of estimated densities would falsely exclude
    tail points whose score is perfectly known.
    """
    return DensityFlow(flow.pdf, flow.score, lambda t: flow.at(t).max_pdf(),
                       flow.dim, floor_rel, tag="exact:" + flow.tag, gaussian_flow=flow)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density estimate of one time slice.

    pdf integrates to one analytically; score is the analytic gradient
    grad pdf / pdf, evaluated with log-sum-exp weights for stability.
    """

    samples: np.ndarray
    bandwidth: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.samples, dtype=np.float64)
        if S.ndim != 2 or S.shape[0] < 1:
            raise ParameterError(f"samples must be (n, dim) with n >= 1, got {S.shape}")
        h = np.atleast_1d(np.asarray(self.bandwidth, dtype=np.float64))
        if h.size == 1 and S.shape[1] > 1:
            h = np.full(S.shape[1], float(h[0]))
        if h.shape != (S.shape[1],):
            raise ParameterError(f"bandwidth shape {h.shape} != (dim,)")
        if not ((h > 0) & np.isfinite(h)).all():
            raise BandwidthError(f"bandwidth must be positive and finite, got {h}")
        object.__setattr__(self, "samples", _freeze(S))
        object.__setattr__(self, "bandwidth", _freeze(h))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def _log_kernels(self, X: np.ndarray) -> np.ndarray:
        # (m, n) matrix of log kernel values for a chunk of queries
        U = (X[:, None, :] - self.samples[None, :, :]) / self.bandwidth
        return -0.5 * (U * U).sum(axis=2) - (np.log(self.bandwidth).sum()
                                             + 0.5 * self.dim * _LOG_2PI)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(X.shape[0])
        for s in range(0, X.shape[0], _CHUNK):
            L = self._log_kernels(X[s:s + _CHUNK])
            out[s:s + _CHUNK] = logsumexp(L, axis=1) - math.log(self.n_samples)
        return out[0] if np.ndim(x) == 1 else out

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def score(self, x: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty_like(X)
        h2 = self.bandwidth ** 2
        for s in range(0, X.shape[0], _CHUNK):
            Xc = X[s:s + _CHUNK]
            L = self._log_kernels(Xc)
            W = np.exp(L - logsumexp(L, axis=1, keepdims=True))
            out[s:s + _CHUNK] = (W @ self.samples - Xc * W.sum(axis=1, keepdims=True)) / h2
        return out[0] if np.ndim(x) == 1 else out

    def sup_pdf(self) -> float:
        """Approximate supremum: max of pdf over the sample mean and a fixed
        subsample of kernel centers.  Used only for the relative floor."""
        probes = np.vstack([self.samples.mean(axis=0, keepdims=True), self.samples[:256]])
        return float(self.pdf(probes).max())


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Per-dimension rule sigma_d (4 / ((dim + 2) n))^(1 / (dim + 4))."""
    S = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, d = S.shape
    sd = S.std(axis=0, ddof=1)
    return sd * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def score_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Wider rule sigma_d (4 / ((dim + 4) n))^(1 / (dim + 6)), tuned for the
    gradient of the estimate rather than the estimate itself."""
    S = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, d = S.shape
    sd = S.std(axis=0, ddof=1)
    return sd * (4.0 / ((d + 4) * n)) ** (1.0 / (d + 6))


def kde_fit(samples: np.ndarray, rule="silverman") -> KdeModel:
    """Fit a Gaussian KDE to one slice.

    rule is "silverman" (default), "score", or an explicit positive scalar or
    per-dimension array.  A slice with zero variance in some coordinate has
    no usable automatic bandwidth; supply one explicitly in that case.
    """
    S = np.asarray(samples, dtype=np.float64)
    if S.ndim == 1:
        S = S[:, None]
    if isinstance(rule, str):
        if rule == "silverman":
            h = silverman_bandwidth(S)
        elif rule == "score":
            h = score_bandwidth(S)
        else:
            raise BandwidthError(f"unknown bandwidth rule {rule!r}")
        if not (h > 0).all():
            flat = np.nonzero(~(h > 0))[0]
            raise BandwidthError(
                f"sample variance vanishes in coordinate(s) {flat.tolist()}; "
                "pass an explicit bandwidth instead of a rule")
    else:
        h = np.atleast_1d(np.asarray(rule, dtype=np.float64))
    return KdeModel(S, h)


def kde_score(model: KdeModel, x: np.ndarray, floor_rel: float = 1e-3) -> np.ndarray:
    """Score at x, refusing points below the relative support floor."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    lo = floor_rel * model.sup_pdf()
    p = model.pdf(X)
    if (p < lo).any():
        bad = X[np.argmin(p)]
        raise SupportError(f"pdf {p.min():.3e} below support floor {lo:.3e} near x={bad}")
    out = model.score(X)
    return out[0] if np.ndim(x) == 1 else out


def kde_flow(e: PathEnsemble, rule="silverman", floor_rel: float = 1e-3) -> DensityFlow:
    """Per-slice KDE wrapped as a DensityFlow.

    Queries snap to the nearest grid node (same convention as marginal_slice)
    and each slice model is fitted lazily, then cached.
    """
    cache: dict[int, KdeModel] = {}
    sup_cache: dict[int, float] = {}

    def model_at(t: float) -> KdeModel:
        idx = e.grid.index_of(t)
        if idx not in cache:
            cache[idx] = kde_fit(e.paths[:, idx, :], rule)
        return cache[idx]

    def sup_at(t: float) -> float:
        idx = e.grid.index_of(t)
        if idx not in sup_cache:
            sup_cache[idx] = model_at(t).sup_pdf()
        return sup_cache[idx]

    return DensityFlow(lambda t, x: model_at(t).pdf(x),
                       lambda t, x: model_at(t).score(x),
                       sup_at, e.dim, floor_rel, tag="kde:" + e.model_tag)
