"""Marginal densities and scores: exact Gaussian flows and kernel estimates.

A DensityFlow is a map from time t to a slice law, the marginal at t: a
Gaussian for exact flows, a KdeModel for kernel estimates.  Every slice law
answers pdf, score, logpdf_score (both from one evaluation) and max_pdf (the
supremum, exact or approximate, behind the relative support floor below
which scores are not trusted; 0 for exact flows, whose score is exact in
the far tails too).  Laws and flows take query points only as (n, dim)
batches and return (n,) values and (n, dim) scores; one point is the batch
x[None, :].  Scores from the kernel estimator are analytic derivatives of
the estimator itself, never finite differences.

The kernel estimator makes one pass over its samples per query: each chunk
of query rows builds its log-kernel matrix once, and that matrix and its row
log-sum-exp give both the log density and the score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import BandwidthError, ParameterError, PathEnsemble, _freeze
from .models import Gaussian, GaussianFlow

_LOG_2PI = math.log(2.0 * math.pi)
_CHUNK = 256  # query rows per kernel-matrix block, bounds transient memory


def _row_logsumexp(L: np.ndarray) -> np.ndarray:
    """log(sum(exp(L), axis=1)) with the arithmetic of scipy.special.logsumexp
    (scipy 1.17), so results match it bit for bit.

    The row maximum is shifted out and its ties are excluded from the sum:
    lse = log1p(s / count) + log(count) + max, where s sums exp(L - max) over
    the other entries.  A row whose result is not finite (all -inf, or inf or
    nan entries) falls back to log(sum(exp(L))), as scipy does.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top = L.max(axis=1, keepdims=True)
        E = L - top
        tied = E == 0
        count = tied.sum(axis=1, dtype=np.float64)
        E[tied] = -np.inf
        np.exp(E, out=E)  # in place: a fresh (m, n) buffer costs more than the exp
        out = np.log1p(E.sum(axis=1) / count) + np.log(count) + top[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(L[bad]).sum(axis=1))
    return out


@dataclass(frozen=True)
class DensityFlow:
    """Time-indexed density with score and a trust region.

    at(t) returns the slice law at time t (a Gaussian or a KdeModel), and
    every query below takes its values from one at(t) call.  Queries take
    an (n, dim) batch X and return arrays over its rows.  score values
    are returned everywhere they are finite; in_support marks where
    pdf >= floor_rel * max_pdf of the slice, and consumers (the reversal
    module in particular) are expected to gate score usage on that mask;
    floor_rel = 0 trusts every point, so score_in_support evaluates no pdf
    there.  gaussian_flow, when set, is the exact
    Gaussian flow behind at: it marks the density as exact and serves
    closed-form quantities such as boundary entropies.
    """

    at: Callable[[float], Gaussian | KdeModel]
    dim: int
    floor_rel: float = 1e-3
    tag: str = ""
    gaussian_flow: GaussianFlow | None = None

    def __post_init__(self):
        if not (0.0 <= self.floor_rel < 1.0):
            raise ParameterError(f"floor_rel must lie in [0, 1), got {self.floor_rel}")

    def pdf(self, t: float, X: np.ndarray) -> np.ndarray:
        return self.at(t).pdf(X)

    def score(self, t: float, X: np.ndarray) -> np.ndarray:
        return self.at(t).score(X)

    def _trusted(self, law: Gaussian | KdeModel, p: np.ndarray) -> np.ndarray:
        return p >= self.floor_rel * law.max_pdf()

    def in_support(self, t: float, X: np.ndarray) -> np.ndarray:
        law = self.at(t)
        return self._trusted(law, law.pdf(X))

    def score_in_support(self, t: float, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(score, in_support mask) at X.  At floor 0 every point is trusted
        and no pdf is evaluated; otherwise one logpdf_score call gives both."""
        law = self.at(t)
        if self.floor_rel == 0.0:
            return law.score(X), np.ones(X.shape[0], dtype=bool)
        lp, sc = law.logpdf_score(X)
        return sc, self._trusted(law, np.exp(lp))

    def pdf_score_in_support(self, t: float,
                             X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pdf, score, in_support mask) at X, from one logpdf_score call."""
        law = self.at(t)
        lp, sc = law.logpdf_score(X)
        p = np.exp(lp)
        return p, sc, self._trusted(law, p)


def exact_flow_density(flow: GaussianFlow) -> DensityFlow:
    """Wrap a Gaussian marginal flow as a DensityFlow with exact score.

    The closed-form score is exact on all of space, so the trust floor is 0
    and every point is in support, even where the pdf underflows to 0; a
    positive floor would zero the score at tail points where it is
    perfectly known.
    """
    return DensityFlow(flow.at, flow.dim, 0.0, tag="exact:" + flow.tag,
                       gaussian_flow=flow)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density estimate of one time slice.

    pdf integrates to one analytically; score is the analytic gradient
    grad pdf / pdf, evaluated with log-sum-exp weights for stability.
    logpdf_score computes both in one pass over the samples; logpdf and
    score are views of that pass, so all three agree bit for bit.  Queries
    are (n, dim) batches.
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
        # log normaliser of one kernel: sum log h + dim/2 log 2 pi
        object.__setattr__(self, "_log_norm", np.log(h).sum() + 0.5 * S.shape[1] * _LOG_2PI)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def _log_kernels(self, X: np.ndarray) -> np.ndarray:
        # (m, n) matrix of log kernel values for a chunk of queries; the
        # in-place steps do the arithmetic of -0.5 |(x - s) / h|^2 - log_norm
        U = X[:, None, :] - self.samples[None, :, :]
        U /= self.bandwidth
        U *= U
        L = U.sum(axis=2)
        L *= -0.5
        L -= self._log_norm
        return L

    def logpdf_score(self, X: np.ndarray, _score: bool = True):
        """(logpdf, score) at X from one kernel pass per chunk of _CHUNK rows.

        The chunk's log-kernel matrix L and its row log-sum-exp give
        logpdf = lse - log n and the normalised weights W = exp(L - lse) of
        score = (W @ samples - x sum W) / h^2.  _score=False skips the score
        half and returns None in its place.
        """
        X = np.asarray(X, dtype=np.float64)
        lp = np.empty(X.shape[0])
        sc = np.empty_like(X) if _score else None
        log_n = math.log(self.n_samples)
        h2 = self.bandwidth ** 2
        for s in range(0, X.shape[0], _CHUNK):
            Xc = X[s:s + _CHUNK]
            L = self._log_kernels(Xc)
            lse = _row_logsumexp(L)
            lp[s:s + _CHUNK] = lse - log_n
            if _score:
                W = np.exp(np.subtract(L, lse[:, None], out=L), out=L)
                sc[s:s + _CHUNK] = (W @ self.samples - Xc * W.sum(axis=1, keepdims=True)) / h2
                del W
            # free this chunk's matrix before the next chunk builds its own,
            # so one chunk's matrices are alive at a time: with two, the heap
            # can shrink and grow again, faulting its pages back in per chunk
            del L
        return lp, sc

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        return self.logpdf_score(X, _score=False)[0]

    def pdf(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(X))

    def score(self, X: np.ndarray) -> np.ndarray:
        return self.logpdf_score(X)[1]

    @cached_property
    def _max_pdf(self) -> float:
        probes = np.vstack([self.samples.mean(axis=0, keepdims=True), self.samples[:256]])
        return float(self.pdf(probes).max())

    def max_pdf(self) -> float:
        """Approximate supremum: max of pdf over the sample mean and a fixed
        subsample of kernel centers, computed once per model.  Used only for
        the relative floor."""
        return self._max_pdf


# automatic bandwidth rules: sd * (4 / ((d + k) n)) ** (1 / (d + k + 2)) per
# coordinate, with k = 2 for the density (Silverman) and k = 4 for the wider
# rule tuned for its gradient
_RULES = {"silverman": 2, "score": 4}


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
        if rule not in _RULES:
            raise BandwidthError(f"unknown bandwidth rule {rule!r}")
        n, d = S.shape
        k = _RULES[rule]
        h = S.std(axis=0, ddof=1) * (4.0 / ((d + k) * n)) ** (1.0 / (d + k + 2))
        if not (h > 0).all():
            flat = np.nonzero(~(h > 0))[0]
            raise BandwidthError(
                f"sample variance vanishes in coordinate(s) {flat.tolist()}; "
                "pass an explicit bandwidth instead of a rule")
    else:
        h = np.atleast_1d(np.asarray(rule, dtype=np.float64))
    return KdeModel(S, h)


def kde_flow(e: PathEnsemble, rule="silverman") -> DensityFlow:
    """Per-slice KDE wrapped as a DensityFlow with DensityFlow's default
    trust floor.

    Queries snap to the nearest grid node (same convention as marginal_slice)
    and each slice model is fitted lazily, then cached.
    """
    cache: dict[int, KdeModel] = {}

    def model_at(t: float) -> KdeModel:
        idx = e.grid.index_of(t)
        if idx not in cache:
            cache[idx] = kde_fit(e.paths[:, idx, :], rule)
        return cache[idx]

    return DensityFlow(model_at, e.dim, tag="kde:" + e.model_tag)
