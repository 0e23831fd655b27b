import math
import re
import warnings

import numpy as np
import pytest

from scipy.special import logsumexp

from pathrev import density
from pathrev.core import BandwidthError, ParameterError, make_grid, path_rng
from pathrev.density import DensityFlow, KdeModel, exact_flow_density, kde_fit, kde_flow
from pathrev.models import Gaussian, ou_diffusion, ou_marginal_flow
from pathrev.simulate import SimConfig, euler_maruyama

INV_SQRT_PI = 0.5641895835477563


class TestExactFlowDensity:
    def test_values_follow_the_flow(self):
        flow = ou_marginal_flow([0.0], [[0.5]])
        d = exact_flow_density(flow)
        assert d.pdf(0.3, np.zeros((1, 1)))[0] == pytest.approx(INV_SQRT_PI, abs=1e-15)
        assert d.score(0.3, np.array([[1.0]]))[0, 0] == pytest.approx(-2.0, abs=1e-14)

    def test_trust_region_is_wide(self):
        d = exact_flow_density(ou_marginal_flow([0.0], [[0.5]]))
        # closed-form scores are trusted everywhere, also where the pdf
        # underflows to 0 (x = 40)
        X = np.array([[5.0], [10.0], [40.0]])
        assert d.in_support(0.5, X).all()
        assert d.pdf_score_in_support(0.5, X)[2].all()
        assert d.pdf(0.5, X)[2] == 0.0

    def test_one_slice_law_call_matches_separate_queries(self, floored):
        flow = ou_marginal_flow([1.0], [[0.5]])
        d = floored(flow, 1e-3)
        X = np.linspace(-4.0, 6.0, 101)[:, None]  # tails fall below the floor
        for t in (0.0, 0.5, 1.0):
            p, sc, ok = d.pdf_score_in_support(t, X)
            assert np.array_equal(p, d.pdf(t, X))
            assert np.array_equal(sc, d.score(t, X))
            assert np.array_equal(ok, d.in_support(t, X))
            assert 0 < ok.sum() < len(X)


class TestQueryBatches:
    """Every slice law takes (n, dim) batches and refuses any other shape,
    where numpy would broadcast it, read one column of it or fail on it."""

    @staticmethod
    def _flow(kind):
        if kind == "exact-2d":
            return exact_flow_density(ou_marginal_flow([0.0, 0.0], np.eye(2)))
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        return kde_flow(euler_maruyama(spec, SimConfig(50, 3, make_grid(1.0, 4))))

    @pytest.mark.parametrize("query", ["pdf", "score", "in_support", "pdf_score_in_support"])
    @pytest.mark.parametrize("kind, shape", [
        ("exact-2d", (3, 1)), ("kde-1d", (3, 2)), ("exact-2d", (2,)), ("kde-1d", (1,))],
        ids=["exact-narrow", "kde-wide", "exact-bare", "kde-bare"])
    def test_refuses_misshapen_batches(self, kind, shape, query):
        d = self._flow(kind)
        line = f"expected points of dimension {d.dim}, got shape {shape}"
        with pytest.raises(ParameterError, match=re.escape(line)):
            getattr(d, query)(0.5, np.zeros(shape))


class TestKdeModel:
    def test_two_kernel_pdf_closed_form(self):
        # centers -1 and 1 with h = 1: pdf(0) = phi(1) = e^{-1/2}/sqrt(2 pi)
        m = KdeModel(np.array([[-1.0], [1.0]]), np.array([1.0]))
        assert m.pdf(np.zeros((1, 1)))[0] == pytest.approx(0.24197072451914337, abs=1e-15)

    def test_single_kernel_score(self):
        # one center c: score(x) = -(x - c) / h^2 exactly
        m = KdeModel(np.array([[0.7]]), np.array([0.5]))
        assert m.score(np.array([[1.2]]))[0, 0] == pytest.approx(-0.5 / 0.25, abs=1e-12)

    def test_symmetry_pins_score_at_zero(self):
        m = KdeModel(np.array([[-1.0], [1.0]]), np.array([1.0]))
        assert m.score(np.zeros((1, 1)))[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_pdf_integrates_to_one(self):
        x = path_rng(99, 0).standard_normal((40, 1))
        m = kde_fit(x)
        xs = np.linspace(-8, 8, 2001)[:, None]
        total = np.trapezoid(m.pdf(xs), xs[:, 0])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_accuracy_on_gaussian_sample(self):
        x = path_rng(5150, 0).standard_normal((100000, 1))
        m = kde_fit(x, rule="silverman")
        target = 1.0 / math.sqrt(2 * math.pi)
        assert abs(float(m.pdf(np.zeros((1, 1)))[0]) - target) <= 0.01

    def test_score_accuracy_on_gaussian_sample(self):
        x = path_rng(31337, 0).standard_normal((100000, 1))
        m = kde_fit(x, rule="score")
        assert abs(float(m.score(np.array([[1.0]]))[0, 0]) + 1.0) <= 0.05

    def test_max_pdf_is_probe_maximum_computed_once(self):
        # probes are the sample mean 0 and both centers; pdf peaks at 0
        m = KdeModel(np.array([[-1.0], [1.0]]), np.array([1.0]))
        assert m.max_pdf == m.pdf(np.zeros((1, 1)))[0]
        assert m.max_pdf > m.pdf(np.ones((1, 1)))[0]
        assert "max_pdf" in vars(m)

    def test_chunking_invisible(self):
        # a row's pdf does not depend on the batch it comes in, nor on its
        # place among the batch's chunks: bit for bit at every batch size,
        # one-row batches and one-row last chunks (513 = 2 * 256 + 1) too.
        # Its score may differ by the rounding of another matvec, relative
        # to 1 + |score|: the line of queries crosses the score's zero
        for dim in (1, 2):
            m = kde_fit(path_rng(4, 0).standard_normal((50, dim)))
            # 600 rows cross the chunk boundary twice
            X = np.linspace(-2, 2, 600)[:, None] * np.linspace(1.0, -0.5, dim)
            p_all, sc_all = m.pdf(X), m.score(X)
            for batch in (1, 2, 3, 255, 256, 257, 513):
                parts = [m.logpdf_score(X[s:s + batch]) for s in range(0, len(X), batch)]
                assert np.array_equal(np.exp(np.concatenate([lp for lp, _ in parts])), p_all)
                sc = np.concatenate([sc for _, sc in parts])
                assert np.allclose(sc, sc_all, rtol=1e-13, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ParameterError):
            KdeModel(np.zeros((0, 1)), np.array([1.0]))
        with pytest.raises(ParameterError):
            KdeModel(np.zeros(5), np.array([1.0]))  # 1-d samples
        with pytest.raises(ParameterError):
            KdeModel(np.zeros((3, 2)), 0.5)  # one bandwidth for two coordinates
        with pytest.raises(BandwidthError):
            KdeModel(np.zeros((3, 1)), np.array([0.0]))
        with pytest.raises(BandwidthError):
            KdeModel(np.zeros((3, 1)), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_refused(self, bad):
        # an infinite sample once gave a finite pdf, a nan max_pdf and nan
        # scores, so every point was silently untrusted
        S = np.array([[0.0, 0.0], [1.0, 0.5], [bad, 0.0]])
        with pytest.raises(ParameterError, match="finite"):
            KdeModel(S[:, :1], np.array([0.5]))
        with pytest.raises(ParameterError, match="finite"):
            KdeModel(S, np.array([0.5, 0.5]))
        with pytest.raises(ParameterError, match="finite"):
            kde_fit(S)


def _peak_bound(m):
    # the kernel peak with its slack, as KdeModel.trusted states it
    return (1.0 + density._PEAK_SLACK) * np.exp(-m._log_norm)


def _trust_models():
    """KdeModels at dim 1 and 2, with automatic and fixed bandwidths, at
    sample counts on both sides of the 256-row chunk."""
    models = []
    for dim in (1, 2):
        for n in (1, 2, 3, 50, 255, 256, 257, 600):
            S = path_rng(70 + n, dim).standard_normal((n, dim)) * np.linspace(0.5, 2.0, dim)
            models.append(pytest.param(KdeModel(S, np.full(dim, 0.3)), id=f"d{dim}-n{n}-fixed"))
            if n >= 2:
                for rule in ("silverman", "score"):
                    models.append(pytest.param(kde_fit(S, rule), id=f"d{dim}-n{n}-{rule}"))
    return models


_TRUST_MODELS = _trust_models()


class TestTrustRule:
    """KdeModel.trusted settles points from two bounds on max_pdf; every flag
    must be the exact rule's, p >= _FLOOR_REL * max_pdf."""

    def _queries(self, m):
        # the samples and the mean (the mode's neighbourhood), rays from the
        # mean to the deep tails, and rows at +-inf and nan
        S = m.samples
        mean = S.mean(axis=0)
        rays = [mean + r * np.sign(np.arange(S.shape[1]) - 0.5) * m.bandwidth
                for r in np.concatenate([np.linspace(0.0, 12.0, 97), [20.0, 40.0, 80.0, 1e3]])]
        rows = [np.full(S.shape[1], v) for v in (math.inf, -math.inf, math.nan)]
        return np.vstack([S[:300], mean, *rays, *rows])

    @pytest.mark.parametrize("m", _TRUST_MODELS)
    def test_flags_match_exact_rule(self, m):
        p = m.pdf(self._queries(m))
        floor = density._FLOOR_REL * m.max_pdf
        # pdf values on and next to each threshold the rule compares with
        edges = [density._FLOOR_REL * t for t in (m.max_pdf, m._pdf_at_mean, _peak_bound(m))]
        near = [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]
        extra = np.array(near + [0.0, math.inf, math.nan])
        for q in (p, extra, np.concatenate([p, extra])):
            assert np.array_equal(m.trusted(q), q >= floor)
            # one value at a time, so the bounds decide alone where they can
            one = np.array([m.trusted(q[i:i + 1])[0] for i in range(q.size)])
            assert np.array_equal(one, q >= floor)
        assert (p >= floor).any() and not (p >= floor).all()

    @pytest.mark.parametrize("m", _TRUST_MODELS)
    def test_mean_is_the_first_probe(self, m):
        probes = np.vstack([m.samples.mean(axis=0, keepdims=True), m.samples[:256]])
        pdf = m.pdf(probes)
        assert m._pdf_at_mean == pdf[0]
        assert m.max_pdf == pdf.max()

    @pytest.mark.parametrize("dim, h", [(1, [7.0]), (2, [3.0, 0.2])])
    def test_max_pdf_below_peak_bound_on_equal_samples(self, dim, h):
        # every kernel at its peak: the largest pdf the pass can compute.  At
        # these bandwidths some n round it above the bare peak exp(-log_norm),
        # by an ulp or two, so the bound needs its slack
        over = 0
        for n in range(1, 1001):
            m = KdeModel(np.full((n, dim), 0.7), np.array(h))
            assert m.max_pdf <= _peak_bound(m)
            over += m.max_pdf > np.exp(-m._log_norm)
        assert over > 0

    def test_query_at_samples_skips_max_pdf(self):
        # at its own samples a 500-sample slice's pdf is at least the kernel
        # peak / 500, above _FLOOR_REL times the peak bound
        m = kde_fit(path_rng(8, 0).standard_normal((500, 1)))
        flow = DensityFlow(lambda t: m, 1)
        assert flow.pdf_score_in_support(0.0, m.samples)[2].all()
        assert flow.in_support(0.0, m.samples).all()
        assert "max_pdf" not in vars(m)


def _log_kernels(model, X):
    # the (m, n) log-kernel matrix, built directly
    S, h = model.samples, model.bandwidth
    return -0.5 * (((X[:, None, :] - S[None, :, :]) / h) ** 2).sum(axis=2) - model._log_norm


def _direct_kde(model, X):
    """logpdf and score of the KDE from its log-kernel matrix L: scipy's
    logsumexp of L, and the score from the weights exp(L - lse)."""
    L = _log_kernels(model, X)
    lse = logsumexp(L, axis=1)
    with np.errstate(invalid="ignore"):  # rows of L that are all -inf
        W = np.exp(L - lse[:, None])
    S, h = model.samples, model.bandwidth
    return lse - math.log(S.shape[0]), (W @ S - X * W.sum(axis=1, keepdims=True)) / h ** 2


# The kernel pass works in x c - s c with c = 1 / (h sqrt 2), at dim 1 through
# a matmul of the expanded square, where the direct matrix halves
# ((x - s) / h)^2, so the two round differently.  On README.md's scenario
# (TestAccuracy.test_readme_scenario: 30 seeds of 500 samples and 513 queries
# at dim 1, 2 and 3, ties included) the largest differences read 9.15e-16
# (1 + |lp|) on logpdf, at dim 1, and 2.24e-14 (1 + |score|) on the score, at
# dim 2.  Over every comparison in this file they read 1.31e-15 (the 1-d
# offset-1e3 case) and 2.15e-13 (far queries at dim 2); the bounds are about
# twice that.  Both grow with |lp|, the size of the squared distances whose
# last bits differ.
_LP_TOL, _SCORE_TOL = 2e-15, 5e-13


def _close(got, ref, tol):
    # equal where not finite (the same infinities and nans), within
    # tol (1 + |ref|) elsewhere
    fin = np.isfinite(ref)
    assert np.array_equal(got[~fin], ref[~fin], equal_nan=True)
    assert np.all(np.abs(got[fin] - ref[fin]) <= tol * (1.0 + np.abs(ref[fin])))


def _readme_scenario(seed, dim):
    """README.md's accuracy scenario: 500 samples of N(0, I) under the score
    rule and 513 queries of N(0, 4 I), the first five at samples (ties)."""
    g = path_rng(seed, dim)
    model = kde_fit(g.standard_normal((500, dim)), rule="score")
    X = g.standard_normal((513, dim)) * 2.0
    X[:5] = model.samples[:5]
    return model, X


def _one_d_queries(model, g):
    # ties, the sample range and beyond, and queries 40 to 60 bandwidths past
    # either end, where every kernel underflows
    S, h = model.samples, model.bandwidth
    lo, hi = S.min(), S.max()
    wide = lo + (hi - lo) * g.uniform(-0.5, 1.5, (200, 1))
    far = np.array([[40.0], [45.0], [60.0]]) * h
    return np.vstack([S[:5], wide, hi + far, lo - far])


def _one_d_cases():
    """1-d models whose kernel pass the accuracy test measures: (model,
    queries, reference model, offset), where the reference is the direct
    KDE of the reference model at the queries less the offset."""
    g = path_rng(33, 1)
    z = g.standard_normal((500, 1))
    cases = {
        "normal": KdeModel(z, np.array([0.3])),
        # samples far from 0: x c near 2e5, where x c - s c cancels
        "offset-1e3": kde_fit(1e3 + 1e-2 * z),
        "n1": KdeModel(np.array([[0.4]]), np.array([0.3])),
        "n2": KdeModel(np.array([[0.4], [1.1]]), np.array([0.3])),
        "tied": KdeModel(np.full((300, 1), 0.7), np.array([0.3])),
    }
    out = []
    for name, model in cases.items():
        X = _one_d_queries(model, g)
        ref, offset = model, 0.0
        if name == "offset-1e3":
            # the direct score W @ S - x W loses about 1e-8 to cancellation
            # at 1e3, so the reference is the same KDE translated by -1e3;
            # samples and queries translate exactly, and the estimator is
            # translation-invariant
            ref, offset = KdeModel(model.samples - 1e3, model.bandwidth), 1e3
        out.append(pytest.param(model, X, ref, offset, id=name))
    return out


class TestAccuracy:
    """The kernel pass against the direct log-kernel matrix, within _LP_TOL
    and _SCORE_TOL: README.md's scenario at dim 1, 2 and 3, and 1-d cases for
    the sorted pass's edges."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_readme_scenario(self, dim, seed):
        model, X = _readme_scenario(seed, dim)
        lp, sc = model.logpdf_score(X)
        ref_lp, ref_sc = _direct_kde(model, X)
        _close(lp, ref_lp, _LP_TOL)
        _close(sc, ref_sc, _SCORE_TOL)

    @pytest.mark.parametrize("model, X, ref, offset", _one_d_cases())
    def test_one_d_cases(self, model, X, ref, offset):
        lp, sc = model.logpdf_score(X)
        ref_lp, ref_sc = _direct_kde(ref, X - offset)
        assert np.isfinite(lp).all() and np.isfinite(sc).all()
        _close(lp, ref_lp, _LP_TOL)
        _close(sc, ref_sc, _SCORE_TOL)

    def test_shift_is_the_nearest_square(self):
        # the 1-d shift q, found by search among the sorted scaled samples,
        # is the row minimum of (x c - s c)^2 bit for bit: at ties, at
        # midpoints between neighbours, past both ends, at 1e3 + 1e-2 z and
        # at +-inf and nan
        g = path_rng(35, 1)
        S = np.sort(np.concatenate([np.round(g.standard_normal(200) * 3.0, 1),
                                    1e3 + 1e-2 * g.standard_normal(100)]))
        c = 1.0 / (0.05 * math.sqrt(2.0))
        x = np.concatenate([S, 0.5 * (S[1:] + S[:-1]), S + 1e-3 * g.standard_normal(S.size),
                            [S[0] - 7.0, S[-1] + 7.0, 1e200, math.inf, -math.inf, math.nan]])
        xc, sc = x * c, S * c
        with np.errstate(over="ignore", invalid="ignore"):
            brute = ((xc[:, None] - sc[None, :]) ** 2).min(axis=1)
            assert np.array_equal(density._nearest_sq(xc, sc), brute, equal_nan=True)


class TestRowLogsumexp:
    """The row log-sum-exp inside the kernel pass, logpdf + log n, agrees with
    scipy's logsumexp of the directly built log-kernel matrix."""

    @staticmethod
    def _same(model, X):
        _close(model.logpdf(X), _direct_kde(model, X)[0], _LP_TOL)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_rows(self, seed):
        g = path_rng(seed, 7)
        n, dim = 1 + 37 * seed, 1 + seed % 3
        model = KdeModel(g.standard_normal((n, dim)), g.uniform(0.05, 2.0, dim))
        self._same(model, g.standard_normal((1 + seed % 7, dim)) * g.uniform(0.1, 60.0))

    def test_kernel_shaped_rows(self):
        # the shape the KDE produces: one chunk of 256 queries on 500 samples
        g = path_rng(11, 0)
        model = kde_fit(g.standard_normal((500, 1)), rule="score")
        self._same(model, g.standard_normal((256, 1)) * 4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_maxima(self, seed):
        g = path_rng(seed, 8)
        S = np.round(g.standard_normal((40, 1)) * 2.0)  # many repeated centers
        self._same(KdeModel(S, 0.7), np.vstack([S[:6], [[S.max() + 1.0]]]))
        # every center alike: each row is one value throughout
        self._same(KdeModel(np.full((40, 1), 3.25), 0.7), S[:6])

    def test_single_column(self):
        # one sample: the log-kernel row is one entry, overflowed at 1e200
        model = KdeModel(np.array([[0.4]]), 0.3)
        with np.errstate(over="ignore"):
            self._same(model, np.array([[0.0], [-3.5], [1e200], [-1e-320], [0.4]]))

    def test_row_of_minus_infinity(self):
        # an infinite coordinate makes every log kernel -inf: logpdf -inf; a
        # nan one makes logpdf nan; the score is nan on both
        for dim in (1, 2):
            model = kde_fit(path_rng(26, dim).standard_normal((50, dim)))
            X = np.zeros((4, dim))
            X[:3, 0] = [np.inf, -np.inf, np.nan]
            with np.errstate(invalid="ignore"):
                self._same(model, X)
            lp, sc = model.logpdf_score(X)
            assert lp[0] == -np.inf and lp[1] == -np.inf and np.isnan(lp[2])
            assert np.isnan(sc[:3]).all() and np.isfinite(sc[3]).all()


class TestKernelPass:
    """logpdf and score of the one-exp kernel pass against the direct
    log-kernel matrix and its weight-matrix score."""

    @staticmethod
    def _check(model, X):
        lp, sc = model.logpdf_score(X)
        ref_lp, ref_sc = _direct_kde(model, X)
        _close(lp, ref_lp, _LP_TOL)
        _close(sc, ref_sc, _SCORE_TOL)
        return lp, sc

    @pytest.mark.parametrize("m", [1, 256, 257, 513])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_direct_kde(self, m, dim):
        g = path_rng(24, dim)
        model = kde_fit(g.standard_normal((500, dim)), rule="score")
        X = g.standard_normal((m, dim)) * 2.0
        X[:min(m, 5)] = model.samples[:min(m, 5)]  # the query ties a kernel center
        self._check(model, X)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_far_query_stays_finite(self, dim):
        # 40 bandwidths and more from every sample, every kernel underflows:
        # exp(-Q) sums to 0 unshifted, and the shift keeps logpdf finite
        g = path_rng(25, dim)
        model = kde_fit(g.standard_normal((500, dim)), rule="score")
        X = model.samples.max(axis=0) + np.array([[40.0], [45.0], [60.0]]) * model.bandwidth
        assert (np.exp(_log_kernels(model, X)) == 0.0).all()
        lp, sc = self._check(model, X)
        assert np.isfinite(lp).all() and np.isfinite(sc).all()
        assert (lp < -800.0).all() and (sc < 0.0).all()


class TestFusedKernelPass:
    """logpdf_score equals separate logpdf and score calls bit for bit."""

    @pytest.mark.parametrize("m", [1, 256, 257, 513])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_separate_passes(self, m, dim):
        g = path_rng(21, dim)
        model = kde_fit(g.standard_normal((300, dim)), rule="score")
        X = g.standard_normal((m, dim)) * 2.0
        lp, sc = model.logpdf_score(X)
        assert lp.shape == (m,) and sc.shape == (m, dim)
        assert np.array_equal(lp, model.logpdf(X))
        assert np.array_equal(sc, model.score(X))
        assert np.array_equal(np.exp(lp), model.pdf(X))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_point(self, dim):
        # one point is a one-row batch, and gives the values of its row in a
        # larger batch (the score up to the rounding of a different matmul)
        g = path_rng(22, dim)
        model = kde_fit(g.standard_normal((100, dim)))
        X = g.standard_normal((5, dim))
        lp, sc = model.logpdf_score(X[2:3])
        assert lp.shape == (1,) and sc.shape == (1, dim)
        assert np.array_equal(lp, model.logpdf(X[2:3]))
        assert np.array_equal(sc, model.score(X[2:3]))
        lp5, sc5 = model.logpdf_score(X)
        assert np.array_equal(lp, lp5[2:3])
        assert np.allclose(sc, sc5[2:3], rtol=1e-13, atol=0.0)

    def test_flow_takes_all_three_from_one_pass(self):
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        e = euler_maruyama(spec, SimConfig(300, 5, make_grid(1.0, 10)))
        d = kde_flow(e, rule="score")
        X = np.linspace(-4.0, 6.0, 600)[:, None]  # tails fall below the floor
        for t in (0.0, 0.5, 1.0):
            p, sc, ok = d.pdf_score_in_support(t, X)
            assert np.array_equal(p, d.pdf(t, X))
            assert np.array_equal(sc, d.score(t, X))
            assert np.array_equal(ok, d.in_support(t, X))
            assert 0 < ok.sum() < len(X)


class TestBandwidthRules:
    def test_rules_against_formulas(self):
        x = path_rng(12, 0).standard_normal((500, 1))
        sd = x.std(ddof=1)
        assert kde_fit(x, rule="silverman").bandwidth[0] == pytest.approx(
            sd * (4.0 / (3 * 500)) ** 0.2, rel=1e-12)
        assert kde_fit(x, rule="score").bandwidth[0] == pytest.approx(
            sd * (4.0 / (5 * 500)) ** (1.0 / 7.0), rel=1e-12)
        # a 1-d sample is refused, as KdeModel refuses it
        with pytest.raises(ParameterError, match=r"\(n, dim\)"):
            kde_fit(x[:, 0], rule="score")

    def test_score_rule_is_wider(self):
        x = path_rng(12, 0).standard_normal((500, 1))
        assert kde_fit(x, rule="score").bandwidth[0] > kde_fit(x).bandwidth[0]

    def test_kde_fit_rule_dispatch(self):
        x = path_rng(12, 0).standard_normal((100, 1))
        assert kde_fit(x).bandwidth[0] == kde_fit(x, rule="silverman").bandwidth[0]
        for rule in ("sheather-jones", 0.3, np.array([0.3])):
            with pytest.raises(BandwidthError, match="unknown bandwidth rule"):
                kde_fit(x, rule=rule)

    def test_degenerate_sample_refused(self):
        with pytest.raises(BandwidthError, match=r"KdeModel\(samples, h\)"):
            kde_fit(np.ones((50, 1)))
        # a fixed bandwidth rescues it
        m = KdeModel(np.ones((50, 1)), np.array([0.1]))
        assert m.bandwidth[0] == 0.1

    def test_one_sample_refused_without_warnings(self):
        # a sample standard deviation needs two values; numpy would warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule in ("silverman", "score"):
                with pytest.raises(BandwidthError, match="at least 2 samples, got 1"):
                    kde_fit(np.ones((1, 2)), rule=rule)


class TestKdeFlow:
    def _ensemble(self, n_paths=4000, seed=303):
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        return euler_maruyama(spec, SimConfig(n_paths, seed, make_grid(1.0, 50)))

    def test_slice_matches_direct_fit(self):
        e = self._ensemble()
        d = kde_flow(e, rule="silverman")
        m = kde_fit(e.paths[:, 25, :], rule="silverman")
        x = np.array([[0.4], [0.9]])
        assert np.array_equal(d.pdf(0.5, x), m.pdf(x))
        assert np.array_equal(d.score(0.5, x), m.score(x))

    def test_cache_returns_identical_objects(self):
        e = self._ensemble(n_paths=500)
        d = kde_flow(e)
        a = d.pdf(0.5, np.array([[0.5]]))
        b = d.pdf(0.5, np.array([[0.5]]))
        assert np.array_equal(a, b)

    def test_in_support_masks_tail(self):
        e = self._ensemble()
        d = kde_flow(e)
        mask = d.in_support(1.0, np.array([[0.3], [9.0]]))
        assert mask[0] and not mask[1]

    @pytest.mark.parametrize("rule", ["silverman", "score"])
    def test_one_path_refused_when_built(self, rule):
        # the refusal comes from kde_flow itself, before any slice is fitted
        e = self._ensemble(n_paths=1)
        with pytest.raises(BandwidthError, match="at least 2 samples, got 1"):
            kde_flow(e, rule=rule)
        assert kde_flow(self._ensemble(n_paths=2), rule=rule).dim == 1

    def test_mean_score_is_near_zero(self):
        # E_mu[grad log mu] = 0 for smooth densities
        e = self._ensemble(n_paths=20000, seed=404)
        d = kde_flow(e, rule="score")
        X = e.paths[:, -1, :]
        s = d.score(1.0, X)[:, 0]
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean()) <= 3 * se + 0.01


class TestKdeSupremumAccuracy:
    """Sup-norm accuracy of the slice estimates on a known Gaussian.

    The pdf itself is within 0.02 everywhere mass lives.  The score is not:
    at n = 1e5 the smoothing bias near the edge of the trust region is a few
    tenths for both bandwidth rules, so the tight tail tolerance is recorded
    as a known limitation rather than weakened.
    """

    def _setup(self, rule):
        rng = path_rng(2024, 0)
        x = rng.standard_normal((100000, 1)) * math.sqrt(0.5)
        m = kde_fit(x, rule=rule)
        g = Gaussian(np.zeros(1), np.eye(1) * 0.5)
        xs = np.linspace(-3.0, 3.0, 301)[:, None]
        keep = g.pdf(xs) >= 0.05 * INV_SQRT_PI  # the peak of N(0, 1/2)
        return m, g, xs[keep]

    @pytest.mark.parametrize("rule", ["silverman", "score"])
    def test_sup_pdf_error(self, rule):
        m, g, xs = self._setup(rule)
        err = np.abs(m.pdf(xs) - g.pdf(xs)).max()
        assert err <= 0.02

    @pytest.mark.xfail(strict=True, reason="kernel smoothing bias: sup-norm "
                       "score error at the trust-region edge measured 0.23 to "
                       "0.54 at n=1e5 for both rules; the 0.1 target needs a "
                       "debiased estimator, not a bigger sample")
    @pytest.mark.parametrize("rule", ["silverman", "score"])
    def test_sup_score_error_tail(self, rule):
        m, g, xs = self._setup(rule)
        err = np.abs(m.score(xs)[:, 0] - g.score(xs)[:, 0]).max()
        assert err <= 0.1
