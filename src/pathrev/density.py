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
of query rows exponentiates its scaled squared distances once, shifted so the
nearest kernel is 1, and those values give both the log density and the score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import BandwidthError, ParameterError, PathEnsemble, _freeze, _sq_distances
from .models import Gaussian, GaussianFlow

_LOG_2PI = math.log(2.0 * math.pi)
_CHUNK = 256  # query rows per kernel-matrix block, bounds transient memory


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
    return DensityFlow(flow.at, flow.dim, 0.0, tag="exact:linear", gaussian_flow=flow)


def _slice_samples(samples) -> np.ndarray:
    """samples as an (n, dim) float array with n >= 1, else ParameterError."""
    S = np.asarray(samples, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] < 1:
        raise ParameterError(f"samples must be (n, dim) with n >= 1, got {S.shape}")
    return S


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density estimate of one time slice.

    pdf integrates to one analytically; score is the analytic gradient
    grad pdf / pdf, the kernel-weighted mean of the samples minus x, over
    h^2.  logpdf_score computes both in one pass over the samples, with one
    exp per kernel entry; logpdf and score are views of that pass, so all
    three agree bit for bit.  samples is an (n, dim) array and bandwidth the
    (dim,) array of per-coordinate bandwidths.  Queries are (n, dim) batches.
    """

    samples: np.ndarray
    bandwidth: np.ndarray

    def __post_init__(self):
        S = _slice_samples(self.samples)
        h = np.atleast_1d(np.asarray(self.bandwidth, dtype=np.float64))
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

    def logpdf_score(self, X: np.ndarray, _score: bool = True):
        """(logpdf, score) at X from one kernel pass per chunk of _CHUNK rows.

        With c = 1 / (h sqrt 2), Q = |x c - s c|^2 and q its row minimum, one
        exp gives E = exp(q - Q) and sum = E.sum(axis=1); then logpdf =
        log sum - q - log_norm - log n and score = (E @ samples / sum - x) / h^2.
        A row without a finite Q stays unshifted: logpdf -inf (or nan) and a
        nan score.  _score=False returns None in place of the score.
        """
        X = np.asarray(X, dtype=np.float64)
        lp = np.empty(X.shape[0])
        sc = np.empty_like(X) if _score else None
        c = 1.0 / (self.bandwidth * math.sqrt(2.0))
        XC = X * c
        SC = self.samples.T * c[:, None]  # (dim, n): one contiguous row per coordinate
        shift = self._log_norm + math.log(self.n_samples)
        h2 = self.bandwidth ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(0, X.shape[0], _CHUNK):
                Q = _sq_distances(XC[s:s + _CHUNK], SC)
                q = Q.min(axis=1)
                q[~np.isfinite(q)] = 0.0
                E = np.exp(np.subtract(q[:, None], Q, out=Q), out=Q)
                total = E.sum(axis=1)
                lp[s:s + _CHUNK] = np.log(total) - q - shift
                if _score:
                    sc[s:s + _CHUNK] = ((E @ self.samples) / total[:, None]
                                        - X[s:s + _CHUNK]) / h2
                # free this chunk's matrix before the next chunk builds its
                # own, so one kernel matrix is alive at a time: with two, the
                # heap can shrink and grow again, faulting its pages back in
                # per chunk
                del Q, E
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
_KDE_MIN_SAMPLES = 2  # both rules scale the sample standard deviation


def kde_fit(samples: np.ndarray, rule: str = "silverman") -> KdeModel:
    """Fit a Gaussian KDE to one (n, dim) slice with an automatic bandwidth.

    rule names the bandwidth rule, "silverman" (default) or "score".  Both
    scale the sample standard deviation, so a slice of one sample or of zero
    variance in some coordinate has none; KdeModel(samples, h) takes a fixed one.
    """
    S = _slice_samples(samples)
    if not (isinstance(rule, str) and rule in _RULES):
        raise BandwidthError(f"unknown bandwidth rule {rule!r}")
    n, d = S.shape
    if n < _KDE_MIN_SAMPLES:
        raise BandwidthError(
            f"an automatic bandwidth needs at least {_KDE_MIN_SAMPLES} samples, got {n}")
    k = _RULES[rule]
    h = S.std(axis=0, ddof=1) * (4.0 / ((d + k) * n)) ** (1.0 / (d + k + 2))
    if not (h > 0).all():
        flat = np.nonzero(~(h > 0))[0]
        raise BandwidthError(
            f"sample variance vanishes in coordinate(s) {flat.tolist()}; "
            "fix a bandwidth with KdeModel(samples, h) instead of a rule")
    return KdeModel(S, h)


def kde_flow(e: PathEnsemble, rule: str = "silverman") -> DensityFlow:
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
