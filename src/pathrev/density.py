"""Marginal densities and scores: exact Gaussian flows and kernel estimates.

A DensityFlow is a map from time t to a slice law, the marginal at t: a
Gaussian for exact flows, a KdeModel for kernel estimates.  Every slice law
answers pdf, score and logpdf_score (both from one evaluation), and
trusted, which says from pdf values where its score is trusted.  A Gaussian
trusts its score everywhere: it is exact in the far tails too.  A KdeModel
trusts it where pdf >= _FLOOR_REL * max_pdf, and settles most points from
two bounds on max_pdf without building it.  Laws and flows take query
points only as (n, dim) batches and return (n,) values and (n, dim) scores;
one point is the batch x[None, :].  Scores from the kernel estimator are
analytic derivatives of the estimator itself, never finite differences.

The kernel estimator makes one pass over its samples per query: each chunk
of query rows exponentiates its scaled squared distances once, shifted so the
nearest kernel is 1, and those values give both the log density and the score.
At dim 1 the samples are taken in sorted order: the shift is found by binary
search, and the shifted exponents of each block of sorted samples come from
one 3-column matmul, so the pass sweeps its kernel matrix four times (matmul,
exp, row sum, matvec) where the squared differences take seven.
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
_BLOCKS = 4  # blocks of the sorted 1-d samples, each centred at its midpoint
_FLOOR_REL = 1e-3  # a KDE score is trusted where pdf >= _FLOOR_REL * max_pdf
# relative margin of the kernel peak over any computed pdf: the pass rounds
# the peak by a few ulps at most
_PEAK_SLACK = 1e-9


@dataclass(frozen=True)
class DensityFlow:
    """Time-indexed density with score and a trust region.

    at(t) returns the slice law at time t (a Gaussian or a KdeModel), and
    every query below takes its values from one at(t) call.  Queries take
    an (n, dim) batch X and return arrays over its rows.  score values
    are returned everywhere they are finite; in_support marks where the
    slice law's score is trusted (everywhere for a Gaussian, above the
    relative floor for a KdeModel), and consumers are expected to gate score
    usage on that mask.  pdf_score_in_support gives all three from one
    logpdf_score call; it is the one query of the reversal module's score
    path.  tag names the source; perfbench/tracer.py reads its "exact:" prefix.
    """

    at: Callable[[float], Gaussian | KdeModel]
    dim: int
    tag: str = ""

    def pdf(self, t: float, X: np.ndarray) -> np.ndarray:
        return self.at(t).pdf(X)

    def score(self, t: float, X: np.ndarray) -> np.ndarray:
        return self.at(t).score(X)

    def in_support(self, t: float, X: np.ndarray) -> np.ndarray:
        law = self.at(t)
        return law.trusted(law.pdf(X))

    def pdf_score_in_support(self, t: float,
                             X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pdf, score, in_support mask) at X, from one logpdf_score call."""
        law = self.at(t)
        lp, sc = law.logpdf_score(X)
        p = np.exp(lp)
        return p, sc, law.trusted(p)


def exact_flow_density(flow: GaussianFlow) -> DensityFlow:
    """Wrap a Gaussian marginal flow as a DensityFlow with exact score."""
    return DensityFlow(flow.at, flow.dim, tag="exact:linear")


def _nearest_sq(xc: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """min over j of (xc_i - sc_j)^2 for each xc_i, with sc sorted ascending,
    bit for bit.  The rounded difference is monotone in sc_j, so the minimum
    lies at one of the two sorted neighbours of xc_i.  An infinite xc_i gives
    inf and a nan one nan."""
    i = np.searchsorted(sc, xc)
    below = sc[np.maximum(i - 1, 0)]
    above = sc[np.minimum(i, sc.size - 1)]
    return np.minimum((xc - below) ** 2, (xc - above) ** 2)


def _slice_samples(samples) -> np.ndarray:
    """samples as a finite (n, dim) float array with n >= 1, else ParameterError."""
    S = np.asarray(samples, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] < 1:
        raise ParameterError(f"samples must be (n, dim) with n >= 1, got {S.shape}")
    if not np.isfinite(S).all():
        raise ParameterError("samples must be finite")
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
        At dim 1 the columns of E are the samples in sorted order, q - Q
        comes from one small matmul per block of them (_sorted_exponents) and
        the weighted mean is taken about their midpoint; at dim >= 2 q - Q
        comes from the squared differences (_direct_exponents).  A row without
        a finite Q stays unshifted: logpdf -inf (or nan) and a nan score.
        _score=False returns None in place of the score.
        """
        X = np.asarray(X, dtype=np.float64)
        m = X.shape[0]
        lp = np.empty(m)
        sc = np.empty_like(X) if _score else None
        shift = self._log_norm + math.log(self.n_samples)
        h2 = self.bandwidth ** 2
        # one kernel matrix per call, reused by every chunk; two rows at
        # least, for a one-row chunk taken doubled
        buf = np.empty((max(2, min(_CHUNK, m)), self.n_samples))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            exponents = (self._sorted_exponents if self.samples.shape[1] == 1
                         else self._direct_exponents)
            S, centre, fill = exponents(X)
            for s in range(0, m, _CHUNK):
                rows = slice(s, min(s + _CHUNK, m))
                q, E = fill(rows, buf)
                np.exp(E, out=E)
                total = E.sum(axis=1)
                lp[rows] = np.log(total) - q - shift
                if _score:
                    sc[rows] = ((E @ S) / total[:, None] - (X[rows] - centre)) / h2
        return lp, sc

    def _direct_exponents(self, X: np.ndarray):
        """(samples, centre 0, fill) for the pass at any dim: fill(rows, buf)
        writes q - Q of those rows of X into the first rows of buf, a
        coordinate at a time, and returns q, set to 0 where it is not finite,
        and that part of buf."""
        c = 1.0 / (self.bandwidth * math.sqrt(2.0))
        XC = X * c
        SC = self.samples.T * c[:, None]  # (dim, n): one contiguous row per coordinate

        def fill(rows, buf):
            Q = _sq_distances(XC[rows], SC, out=buf[:rows.stop - rows.start])
            q = Q.min(axis=1)
            q[~np.isfinite(q)] = 0.0
            return q, np.subtract(q[:, None], Q, out=Q)

        return self.samples, 0.0, fill

    def _sorted_exponents(self, X: np.ndarray):
        """(sorted samples less their centre, centre, fill) for the pass at
        dim 1, whose kernel columns are the samples in sorted order.  q is the
        nearest squared distance, found by search among the sorted s c, bit
        for bit the row minimum of the direct pass.  The sorted samples are
        cut into _BLOCKS contiguous blocks, each centred at its midpoint p,
        and with u = (x - p) c and v = (s - p) c one (rows x 3) @ (3 x n_g)
        matmul per block writes q - (u - v)^2 = [u, 1, q - u^2] . [2v, -v^2, 1]
        into its columns of E.  Near the centres u and v are small, so the
        expanded square loses little to cancellation.  A row without a
        finite q writes [0, 1, -q]: -inf (E = 0) or nan, as the direct pass.
        """
        c = 1.0 / (self.bandwidth[0] * math.sqrt(2.0))
        S = np.sort(self.samples, axis=0)  # a copy: max_pdf probes samples[:256]
        s, x = S[:, 0], X[:, 0]
        n = s.size
        # block edges; fewer than _BLOCKS samples leave no block empty
        cuts = sorted({g * n // _BLOCKS for g in range(_BLOCKS + 1)})
        blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        P = 0.5 * (s[cuts[:-1]] + s[[b - 1 for b in cuts[1:]]])
        v = (s - np.repeat(P, [b.stop - b.start for b in blocks])) * c
        B = np.ones((3, n))  # rows 2v, -v^2, 1
        np.multiply(v, 2.0, out=B[0])
        np.multiply(v, -v, out=B[1])
        q = _nearest_sq(x * c, s * c)
        A = np.ones((len(blocks), x.size, 3))  # per block, rows u, 1, q - u^2
        U, T = A[:, :, 0], A[:, :, 2]
        np.multiply(x - P[:, None], c, out=U)
        np.subtract(q, U * U, out=T)
        bad = ~np.isfinite(q)
        if bad.any():
            U[:, bad] = 0.0
            T[:, bad] = -q[bad]
            q[bad] = 0.0

        def fill(rows, buf):
            k = rows.stop - rows.start
            # gemv rounds a one-row product otherwise than gemm: one row goes
            # through gemm doubled, so its bits do not depend on its batch
            Ar = A[:, rows] if k > 1 else A[:, [rows.start] * 2]
            E = buf[:Ar.shape[1]]
            for g, cols in enumerate(blocks):
                np.matmul(Ar[g], B[:, cols], out=E[:, cols])
            return q[rows], E[:k]

        # the score's weighted mean is taken about the samples' midpoint, so
        # for samples far from 0 it does not cancel against x
        centre = 0.5 * (s[0] + s[-1])
        return S - centre, centre, fill

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        return self.logpdf_score(X, _score=False)[0]

    def pdf(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(X))

    def score(self, X: np.ndarray) -> np.ndarray:
        return self.logpdf_score(X)[1]

    @cached_property
    def _pdf_at_mean(self) -> float:
        return float(self.pdf(self.samples.mean(axis=0, keepdims=True))[0])

    @cached_property
    def max_pdf(self) -> float:
        """Approximate supremum: the largest pdf over the sample mean and the
        first 256 samples, computed once per model.  Used only for the
        relative floor, and built only when trusted needs it."""
        return max(self._pdf_at_mean, float(self.pdf(self.samples[:256]).max()))

    def trusted(self, p: np.ndarray) -> np.ndarray:
        """Where the score is trusted, given pdf values p: p >= _FLOOR_REL *
        max_pdf, flag for flag, with max_pdf built only if two bounds on it
        leave some p undecided.  No computed pdf exceeds the kernel peak
        exp(-log_norm) by more than _PEAK_SLACK, so p at or above _FLOOR_REL
        times the slack peak is trusted; the pdf at the sample mean is one of
        max_pdf's probes, so p below _FLOOR_REL times it is not.  Rounding
        is monotone, so both answers are the exact rule's; nan falls
        through to it."""
        with np.errstate(over="ignore"):
            peak = (1.0 + _PEAK_SLACK) * np.exp(-self._log_norm)
        above = p >= _FLOOR_REL * peak
        below = p < _FLOOR_REL * self._pdf_at_mean
        if (above | below).all():
            return above
        return p >= _FLOOR_REL * self.max_pdf


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
    """Per-slice KDE of the ensemble e wrapped as a DensityFlow.

    A query at time t reads the slice at e's grid node nearest to t
    (TimeGrid.index_of), so between nodes the density is constant in time;
    the CLI refuses a stored ensemble on another grid than its config's.
    Each slice model is fitted lazily, then cached.
    """
    cache: dict[int, KdeModel] = {}

    def model_at(t: float) -> KdeModel:
        idx = e.grid.index_of(t)
        if idx not in cache:
            cache[idx] = kde_fit(e.paths[:, idx, :], rule)
        return cache[idx]

    return DensityFlow(model_at, e.dim, tag="kde:" + e.model_tag)
