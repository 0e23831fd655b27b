import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from pathrev import core
from pathrev.cli import main
from pathrev.core import (ConfigError, ConsistencyError, MatrixField,
                          NumericError, ParameterError, VectorField, make_grid,
                          path_rng)
from pathrev.models import (Gaussian, GaussianFlow, GraphWalkSpec,
                            biased_cycle_walk, bm_diffusion, bm_flow,
                            diffusion_spec, gaussian_reference, graph_walk,
                            linear_flow, load_model, ou_diffusion,
                            ou_marginal_flow, ou_reference, walk_marginal_fn)
from pathrev.reversal import reversed_jump_intensities

INV_SQRT_PI = 0.5641895835477563


class TestGaussian:
    def test_pdf_value(self):
        # N(0, 1/2) density at the origin is pi^{-1/2}
        g = Gaussian(np.zeros(1), np.eye(1) * 0.5)
        assert g.pdf(np.zeros((1, 1)))[0] == pytest.approx(INV_SQRT_PI, abs=1e-15)

    def test_score_is_linear(self):
        g = Gaussian(np.zeros(1), np.eye(1) * 0.5)
        assert g.score(np.array([[1.0]]))[0, 0] == pytest.approx(-2.0, abs=1e-14)
        S = g.score(np.array([[0.5], [-0.25]]))
        assert np.allclose(S, np.array([[-1.0], [0.5]]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_score_is_the_matmul_bit_for_bit(self, d):
        C = np.array([[0.5, 0.1], [0.1, 0.3]])[:d, :d]
        g = Gaussian(np.full(d, 0.25), C)
        X = np.vstack([np.full((1, d), 0.25), np.linspace(-3.0, 3.0, 20 * d).reshape(-1, d)])
        expected = -(X - g.mean) @ np.linalg.inv(g.cov).T
        assert np.array_equal(g.score(X).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_logpdf_row_bits_do_not_depend_on_batch(self, d):
        # einsum's quadratic form gave a 2-d row other last bits in a batch
        # of 1 or 2 than in a larger one
        rng = path_rng(34, d)
        B = rng.standard_normal((d, d))
        g = Gaussian(rng.standard_normal(d), B @ B.T + d * np.eye(d))
        X = rng.standard_normal((300, d)) * 3.0
        rows = np.concatenate([g.logpdf(X[i:i + 1]) for i in range(X.shape[0])])
        pairs = np.concatenate([g.logpdf(X[i:i + 2]) for i in range(0, X.shape[0], 2)])
        batch = g.logpdf(X)
        assert np.array_equal(rows.view(np.uint64), batch.view(np.uint64))
        assert np.array_equal(pairs.view(np.uint64), batch.view(np.uint64))

    def test_one_dimensional_logpdf_is_the_einsum_bit_for_bit(self):
        # the 1-d exact density, and so every 1-d artifact, kept its bits
        # when the quadratic form left einsum
        g = Gaussian(np.array([0.3]), np.array([[0.7]]))
        X = path_rng(35, 0).standard_normal((100000, 1)) * 4.0
        D = X - g.mean
        q = np.einsum("ni,ij,nj->n", D, g._inv, D)
        expected = -0.5 * (q + math.log(2.0 * math.pi) + g._logdet)
        assert np.array_equal(g.logpdf(X).view(np.uint64), expected.view(np.uint64))

    def test_batch_pdf(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        p = g.pdf(np.zeros((3, 2)))
        assert p.shape == (3,)
        assert np.allclose(p, 1.0 / (2 * math.pi))

    def test_singular_cov(self):
        g = Gaussian(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(NumericError):
            g.pdf(np.zeros((1, 2)))
        # a degenerate law still has a factor to sample through
        assert np.array_equal(g.factor, np.zeros((2, 2)))

    def test_validation(self):
        with pytest.raises(ParameterError):
            Gaussian(np.zeros(2), np.eye(3))
        with pytest.raises(ParameterError):
            Gaussian(np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGaussianFlow:
    def test_ou_marginal_flow_values(self):
        flow = ou_marginal_flow([1.0], [[0.5]])
        m1 = flow.at(1.0)
        assert m1.mean[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert m1.cov[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert flow.at(0.0).mean[0] == 1.0
        assert flow.at(0.0).cov[0, 0] == 0.5

    def test_ou_marginal_flow_relaxes_cov(self):
        flow = ou_marginal_flow([0.0], [[2.0]])
        c = flow.at(0.7).cov[0, 0]
        expected = math.exp(-1.4) * 2.0 + (1 - math.exp(-1.4)) * 0.5
        assert c == pytest.approx(expected, abs=1e-15)

    def test_bm_flow(self):
        flow = bm_flow([[1.0]])
        assert flow.at(0.0).cov[0, 0] == 1.0
        assert flow.at(1.0).cov[0, 0] == 2.0
        assert flow.at(1.0).score(np.array([[1.0]]))[0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_at_keeps_one_law_per_time(self):
        flow = ou_marginal_flow([1.0], [[0.5]])
        g = flow.at(0.25)
        assert flow.at(0.25) is g and flow.at(0.5) is not g
        fresh = ou_marginal_flow([1.0], [[0.5]]).at(0.25)
        X = np.linspace(-3.0, 3.0, 13)[:, None]
        assert np.array_equal(g.score(X), fresh.score(X))
        assert np.array_equal(g.logpdf(X), fresh.logpdf(X))
        # the cache is not part of the flow's value
        assert flow == GaussianFlow(flow.M, flow.c, flow.a, flow.init)
        assert "_laws" not in repr(flow)

    def test_validate_spd(self):
        # a flow's start covariance must be SPD; a PSD one has no density
        for build in (lambda C: ou_marginal_flow([0.0], C), bm_flow):
            build([[0.5]])
            for C in ([[-1.0]], [[0.0]]):
                with pytest.raises(NumericError, match="not SPD at t=0.0"):
                    build(C)


class TestExpm:
    def test_matches_scipy(self):
        # sizes 1 to 5, 1-norms from 1e-3 to 50: with and without squaring
        rng = np.random.default_rng(12)
        for _ in range(400):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            A *= 10.0 ** rng.uniform(-3.0, math.log10(50.0)) / np.abs(A).sum(axis=0).max()
            R = expm(A)
            assert np.abs(core.expm(A) - R).max() <= 1e-11 * np.abs(R).max()

    @pytest.mark.parametrize("t", [1.0, 12.0])
    def test_nilpotent_jordan_block(self, t):
        # exp(tJ) for the 5 x 5 shift J is the finite series t^k / k!; at
        # t = 12 scipy is 2.2e-14 off it
        J = np.diag(np.ones(4), 1)
        exact = sum(np.linalg.matrix_power(t * J, k) / math.factorial(k) for k in range(5))
        assert np.allclose(core.expm(t * J), exact, rtol=1e-15, atol=0.0)
        assert np.allclose(core.expm(t * J), expm(t * J), rtol=1e-13, atol=0.0)

    def test_zero_is_identity_and_nonfinite_is_refused(self):
        assert np.array_equal(core.expm(np.zeros((3, 3))), np.eye(3))
        with pytest.raises(NumericError, match="non-finite"):
            core.expm(np.array([[np.inf]]))


def _ou_closed_form(m0, S0, t):
    """The hand-written OU flow: exp(-t) m0, exp(-2t) S0 + (1 - exp(-2t)) Id/2."""
    e = math.exp(-2.0 * t)
    return math.exp(-t) * np.asarray(m0), e * np.asarray(S0) + (1.0 - e) * (0.5 * np.eye(len(m0)))


def _bm_closed_form(m0, S0, t):
    """The hand-written Brownian flow: m0, S0 + t Id."""
    return np.asarray(m0, dtype=float), np.asarray(S0) + t * np.eye(len(m0))


def _ulps(x, y):
    """|x - y| in units in the last place of the largest entry of y."""
    return float(np.abs(x - y).max() / np.spacing(np.abs(y).max()))


_ROT = np.array([[-1.0, 1.0], [-1.0, -1.0]])  # -I + J, J = [[0, 1], [-1, 0]]


class TestLinearFlow:
    def test_matches_moment_odes(self):
        # a non-reversible drift, a full a, an offset and a start far from
        # stationarity against m' = M m + c, S' = M S + S M^T + a
        c, a = np.array([0.3, -0.2]), np.array([[1.0, 0.2], [0.2, 0.5]])
        init = Gaussian([1.0, -0.5], [[0.5, 0.1], [0.1, 0.3]])
        flow = linear_flow(_ROT, c, a, init)

        def rhs(t, y):
            m, S = y[:2], y[2:].reshape(2, 2)
            return np.concatenate([_ROT @ m + c, (_ROT @ S + S @ _ROT.T + a).ravel()])

        ts = np.linspace(0.0, 3.0, 13)
        sol = solve_ivp(rhs, (0.0, 3.0), np.concatenate([init.mean, init.cov.ravel()]),
                        t_eval=ts, rtol=1e-12, atol=1e-14)
        for k, t in enumerate(ts):
            law = flow.at(float(t))
            assert np.allclose(law.mean, sol.y[:2, k], rtol=0.0, atol=1e-10)
            assert np.allclose(law.cov, sol.y[2:, k].reshape(2, 2), rtol=0.0, atol=1e-10)

    # the bundled OU start, the fingerprint tool's BM and 2-d OU starts, and
    # a start at 4 times the stationary variance, whose Sigma_0 + G E^T
    # cancels about two thirds of Sigma_0 by t = 1
    @pytest.mark.parametrize("kind, m0, S0, bound", [
        ("ou", [1.0], [[0.5]], 4), ("ou", [0.5], [[0.4]], 4),
        ("ou", [1.0, -0.5], [[0.5, 0.1], [0.1, 0.3]], 4), ("ou", [0.0], [[2.0]], 6),
        ("bm", [0.5], [[0.4]], 4), ("bm", [1.0, -0.5], [[0.5, 0.1], [0.1, 0.3]], 4)])
    def test_matches_hand_written_flows(self, kind, m0, S0, bound):
        flow = ou_marginal_flow(m0, S0) if kind == "ou" else bm_flow(S0, m0)
        closed = _ou_closed_form if kind == "ou" else _bm_closed_form
        for t in make_grid(1.0, 400).nodes:
            law = flow.at(float(t))
            m, S = closed(m0, S0, float(t))
            assert _ulps(law.mean, m) <= bound and _ulps(law.cov, S) <= bound

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reference_flow_is_its_law_bit_for_bit(self, dim):
        ref, flow = ou_reference(dim)
        for t in make_grid(1.0, 400).nodes:
            law = flow.at(float(t))
            assert law is flow.init
            assert np.array_equal(law.mean.view(np.uint64), ref.m.mean.view(np.uint64))
            assert np.array_equal(law.cov.view(np.uint64), ref.m.cov.view(np.uint64))

    def test_exactly_stationary_start_with_offset_is_returned(self):
        # x' = -x/2 + 0.2 with a = 2 keeps N(0.4, 2): both derivatives are 0
        init = Gaussian([0.4], [[2.0]])
        flow = linear_flow(np.array([[-0.5]]), np.array([0.2]), np.array([[2.0]]), init)
        assert all(flow.at(t) is init for t in (0.0, 0.3, 1.7))
        # the rotation keeps N(0, I/2), and the flow says so without roundoff
        half = Gaussian(np.zeros(2), 0.5 * np.eye(2))
        assert linear_flow(_ROT, np.zeros(2), np.eye(2), half).at(0.9) is half

    def test_start_must_be_spd(self):
        for C in ([[-1.0]], [[0.0]]):
            with pytest.raises(NumericError, match="not SPD at t=0.0"):
                linear_flow(np.array([[-0.5]]), np.zeros(1), np.eye(1), Gaussian([0.0], C))


class TestKolmogorovSpec:
    def test_ou_reference_drift(self):
        ref, flow = ou_reference()
        X = np.array([[0.5], [-2.0]])
        assert np.allclose(ref.drift(0.0, X), -X)
        assert np.array_equal(ref.a.constant_matrix, np.eye(1))
        assert np.allclose(flow.at(0.3).cov, 0.5 * np.eye(1))

    def test_reversible_law_is_normalized_gaussian(self):
        # N(0, 1/2): density exp(-x^2) / sqrt(pi), score -2x
        ref, _ = ou_reference()
        x = np.array([[0.7]])
        assert np.exp(ref.m.logpdf(x))[0] == pytest.approx(
            math.exp(-0.49) * INV_SQRT_PI, rel=1e-15)
        assert ref.m.score(x)[0, 0] == -2.0 * 0.7

    def test_gaussian_reference_of_a_correlated_matrix(self):
        # m = N(0, a/2), and the generator drift a grad log m / 2 is -x
        a = MatrixField(np.array([[2.0, 1.0], [1.0, 2.0]]))
        ref = gaussian_reference(a)
        assert ref.dim == 2 and ref.a is a
        assert np.array_equal(ref.m.mean, np.zeros(2))
        assert np.array_equal(ref.m.cov, [[1.0, 0.5], [0.5, 1.0]])
        X = np.array([[1.5, -0.25], [0.0, 2.0]])
        assert np.array_equal(ref.drift(0.0, X), -X)
        assert np.array_equal(ref.div_a(0.0, X), np.zeros_like(X))
        assert np.allclose(0.5 * a.apply(ref.m.score(X)), -X, rtol=0, atol=1e-15)


class TestDiffusionSpec:
    def test_ou_diffusion(self):
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        X = np.array([[2.0]])
        assert np.allclose(spec.drift(0.0, X), -X)
        assert np.array_equal(spec.sigma, np.eye(1))

    def test_bm_diffusion(self):
        spec = bm_diffusion(Gaussian(np.zeros(1), np.eye(1)))
        assert np.allclose(spec.drift(0.0, np.array([[3.0]])), 0.0)

    def test_correlated_noise_factor(self):
        # the lower-triangular Cholesky factor, not its symmetrization
        spec = diffusion_spec(VectorField.zero(2), MatrixField([[2.0, 1.0], [1.0, 2.0]]),
                              Gaussian(np.zeros(2), np.eye(2)))
        S = spec.sigma
        assert S[0, 1] == 0.0 and not S.flags.writeable
        assert np.allclose(S @ S.T, [[2.0, 1.0], [1.0, 2.0]], rtol=0, atol=1e-15)

    def test_sigma_consistency_check(self, tmp_path, capsys):
        # a = Q diag(1, -5e-11) Q^T passes psd_sqrt's eigenvalue tolerance,
        # but the factor of its clipped spectrum misses a by 5e-11
        c, s = math.cos(0.3), math.sin(0.3)
        Q = np.array([[c, -s], [s, c]])
        model = {"type": "custom", "dim": 2, "drift": {"name": "zero"},
                 "diffusion_matrix": (Q @ np.diag([1.0, -5e-11]) @ Q.T).tolist(),
                 "init_mean": [0.0, 0.0], "init_cov": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ConsistencyError, match=r"^sigma sigma\^T != a$"):
            load_model(model)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "grid": {"T": 1.0, "n_steps": 10},
                                   "n_paths": 10, "seed": 1}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "consistency error: sigma sigma^T != a\n"
        assert not out.exists()

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            diffusion_spec(VectorField.zero(1), MatrixField.identity(2),
                           Gaussian(np.zeros(1), np.eye(1)))


def _c4(rate_cw=2.0, rate_ccw=1.0):
    return biased_cycle_walk(4, rate_cw=rate_cw, rate_ccw=rate_ccw)


class TestGraphWalkSpec:
    def test_biased_cycle_shape(self):
        spec = _c4()
        assert spec.n_states == 4
        assert spec.adjacency[0, 1] and spec.adjacency[0, 3]
        assert not spec.adjacency[0, 2]
        assert np.allclose(spec.p0, 0.25)

    def test_intensity_and_generator(self):
        spec = _c4()
        J = spec.intensity(0.0)
        assert J[0, 1] == 2.0 and J[1, 0] == 1.0
        Q = spec.generator()
        assert np.allclose(Q.sum(axis=1), 0.0)
        assert np.allclose(np.diag(Q), -3.0)

    def test_adjacency_validation(self):
        J2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            graph_walk(np.array([[False, True], [False, False]]), J2,
                       np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            graph_walk(np.eye(2, dtype=bool), J2, np.array([0.5, 0.5]))
        A = np.zeros((4, 4), dtype=bool)
        A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = True
        J4 = A.astype(float)
        with pytest.raises(ParameterError):
            graph_walk(A, J4, np.full(4, 0.25))  # disconnected

    def test_refuses_an_overflowing_out_rate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="total out-rate of a state overflows"):
                _c4(rate_cw=1e308, rate_ccw=1e308)
        assert _c4(rate_cw=1e307, rate_ccw=1e307).intensity_matrix.sum(axis=1).max() == 2e307

    def test_law_and_intensity_validation(self):
        A = np.array([[False, True], [True, False]])
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            graph_walk(A, J, np.array([0.7, 0.7]))
        with pytest.raises(ParameterError):
            GraphWalkSpec(2, A, np.array([0.5, 0.5]))  # no intensity
        with pytest.raises(ParameterError):
            GraphWalkSpec(2, A, np.array([0.5, 0.5]), intensity_matrix=J,
                          intensity_fn=lambda t: J)  # both
        with pytest.raises(ParameterError):
            graph_walk(A, np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            graph_walk(_c4().adjacency, np.ones((4, 4)), np.full(4, 0.25))

    def test_callable_rates_need_bound(self):
        A = np.array([[False, True], [True, False]])
        fn = lambda t: np.array([[0.0, 1.0 + t], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            graph_walk(A, fn, np.array([0.5, 0.5]))
        spec = graph_walk(A, fn, np.array([0.5, 0.5]), rate_bound=3.0)
        assert spec.intensity(1.0)[0, 1] == 2.0
        assert not spec.is_constant

    def test_biased_cycle_parameter_errors(self):
        with pytest.raises(ParameterError):
            biased_cycle_walk(2, rate_cw=1.0, rate_ccw=1.0)
        with pytest.raises(ParameterError):
            biased_cycle_walk(4, rate_cw=-1.0, rate_ccw=1.0)
        with pytest.raises(ParameterError):
            biased_cycle_walk(4, rate_cw=0.0, rate_ccw=0.0)


class TestWalkMarginals:
    def test_uniform_start_is_invariant(self):
        p = walk_marginal_fn(_c4())
        # doubly stochastic generator keeps the uniform law fixed, bit for bit
        for t in (0.0, 0.25, 0.5, 1.0):
            assert np.array_equal(p(t), np.full(4, 0.25))

    def test_delta_start_semigroup(self):
        base = _c4()
        spec = graph_walk(base.adjacency, base.intensity_matrix,
                          np.array([1.0, 0.0, 0.0, 0.0]))
        p = walk_marginal_fn(spec)
        Q = spec.generator()
        assert np.allclose(p(1.0), spec.p0 @ expm(Q), atol=1e-12)
        # independent first-order check of the forward equation
        h = 1e-4
        assert np.allclose(p(h), spec.p0 + h * (spec.p0 @ Q), atol=1e-6)
        assert p(0.7).sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ParameterError):
            p(-0.5)

    def test_negative_time_is_refused_from_every_start(self):
        base = _c4()
        delta = graph_walk(base.adjacency, base.intensity_matrix,
                           np.array([1.0, 0.0, 0.0, 0.0]))
        for spec in (base, delta):  # stationary, then not
            p = walk_marginal_fn(spec)
            with pytest.raises(ParameterError, match="negative time -1.0"):
                p(-1.0)
            assert p(0.0).tolist() == spec.p0.tolist()

    def test_refuses_callable_intensities(self):
        spec = _c4()
        rev = reversed_jump_intensities(spec, walk_marginal_fn(spec), 1.0)
        with pytest.raises(ParameterError, match="walk marginals need constant intensities"):
            walk_marginal_fn(rev.as_walk_spec(rate_bound=13.0))

    def test_keeps_nothing_per_time(self):
        # a reversal queries the marginals at whatever times it is asked
        # for, so a per-time cache would grow by one entry per query
        base = _c4()
        spec = graph_walk(base.adjacency, base.intensity_matrix,
                          np.array([0.4, 0.3, 0.2, 0.1]))
        p = walk_marginal_fn(spec)
        p(0.5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for t in np.linspace(0.001, 1.0, 2000):
                p(t)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 20_000


class TestLoadModel:
    def test_ou(self):
        b = load_model({"type": "ou", "init_mean": [1.0], "init_cov": [[0.5]]})
        assert b.dim == 1
        assert b.flow.at(1.0).mean[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert b.reference is not None

    def test_bm(self):
        b = load_model({"type": "bm", "init_mean": [0.0], "init_cov": [[1.0]]})
        assert b.flow.at(1.0).cov[0, 0] == 2.0
        assert b.reference.m.cov[0, 0] == 0.5

    @pytest.mark.parametrize("a, cov", [
        ([[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.5], [0.5, 1.0]]),
        ([[1.0, 1.0], [1.0, 1.0]], None), ([[1.0, 0.0], [0.0, 0.0]], None)])
    def test_custom_reference_exactly_when_a_is_positive_definite(self, a, cov):
        b = load_model({"type": "custom", "dim": 2, "drift": {"name": "zero"},
                        "diffusion_matrix": a, "init_mean": [0.0, 0.0],
                        "init_cov": [[1.0, 0.0], [0.0, 1.0]]})
        if cov is None:
            assert b.reference is None
        else:
            assert np.array_equal(b.reference.m.cov, cov)
            assert b.reference.a is b.diffusion.a

    def test_cycle(self):
        b = load_model({"type": "cycle", "n": 4, "rate_cw": 2.0, "rate_ccw": 1.0})
        assert b.walk.n_states == 4
        assert b.diffusion is None

    def test_custom(self):
        b = load_model({"type": "custom", "dim": 1,
                        "drift": {"name": "linear", "matrix": [[-1.0]]},
                        "diffusion_matrix": [[1.0]],
                        "init_mean": [1.0], "init_cov": [[0.5]]})
        X = np.array([[2.0]])
        assert np.allclose(b.diffusion.drift(0.0, X), -X)
        # the flow comes from the same drift and diffusion arrays
        assert b.flow.at(1.0).mean[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert b.flow.at(1.0).cov[0, 0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("field, message", [
        ({"drift": {"name": "linear", "matrix": [[-1.0]], "offset": [0.1, 0.2]}},
         "drift offset shape (2,) != (1,)"),
        ({"drift": {"name": "linear", "matrix": [[-1.0, 0.0]]}},
         "drift matrix shape (1, 2) != (1, 1)"),
        ({"diffusion_matrix": 2.0}, "diffusion_matrix shape () != (1, 1)")])
    def test_custom_arrays_must_match_dim(self, field, message):
        obj = {"type": "custom", "dim": 1, "drift": {"name": "zero"},
               "diffusion_matrix": [[1.0]], "init_mean": [1.0], "init_cov": [[0.5]]}
        obj.update(field)
        with pytest.raises(ConfigError) as exc:
            load_model(obj)
        assert str(exc.value) == "model: " + message

    def test_json_string(self):
        # a string is neither parsed nor opened as a path
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_model('{"type": "cycle", "n": 3, "rate_cw": 1.0, "rate_ccw": 2.0}')

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            load_model({"type": "heat"})
        with pytest.raises(ConfigError):
            load_model({"type": "ou", "init_mean": [1.0], "init_cov": [[0.5]],
                        "bogus": 1})
        with pytest.raises(ConfigError):
            load_model({"type": "ou", "dim": 2, "init_mean": [1.0],
                        "init_cov": [[0.5]]})
        with pytest.raises(ConfigError):
            load_model({"type": "custom", "dim": 1, "drift": {"name": "spiral"},
                        "diffusion_matrix": [[1.0]],
                        "init_mean": [0.0], "init_cov": [[1.0]]})
        with pytest.raises(ConfigError):
            load_model([1, 2, 3])

    @pytest.mark.parametrize("key, value", [
        ("n", "4"), ("n", True), ("n", 4.5), ("rate_cw", "2.0"), ("rate_ccw", False)])
    def test_cycle_fields_are_not_coerced(self, key, value):
        obj = {"type": "cycle", "n": 4, "rate_cw": 2.0, "rate_ccw": 1.0}
        obj[key] = value
        with pytest.raises(ConfigError, match=key):
            load_model(obj)

    @pytest.mark.parametrize("mtype", ["ou", "bm", "custom"])
    @pytest.mark.parametrize("key, value", [
        ("dim", True), ("dim", "1"), ("dim", 1.0), ("dim", 2),
        ("init_mean", ["1.0"]), ("init_mean", [None]), ("init_mean", True),
        ("init_cov", [[True]]), ("init_cov", [["0.5"]]),
        ("init_mean", [[1.0], 2.0]), ("init_cov", [[0.5], [0.5, 1.0]])])
    def test_initial_law_fields_are_not_coerced(self, mtype, key, value):
        obj = {"type": mtype, "dim": 1, "init_mean": [1.0], "init_cov": [[0.5]]}
        if mtype == "custom":
            obj.update(drift={"name": "zero"}, diffusion_matrix=[[1.0]])
        obj[key] = value
        with pytest.raises(ConfigError, match=key):
            load_model(obj)

    @pytest.mark.parametrize("field, pattern", [
        ({"diffusion_matrix": [[True]]}, "diffusion_matrix"),
        ({"drift": {"name": "linear", "matrix": [["x"]]}}, "drift matrix"),
        ({"drift": {"name": "linear", "matrix": [[-1.0]], "offset": [None]}}, "drift offset")])
    def test_custom_coefficients_are_numbers(self, field, pattern):
        obj = {"type": "custom", "dim": 1, "drift": {"name": "zero"},
               "diffusion_matrix": [[1.0]], "init_mean": [1.0], "init_cov": [[0.5]]}
        obj.update(field)
        with pytest.raises(ConfigError, match=pattern):
            load_model(obj)

    @pytest.mark.parametrize("dim", ["1", True, 1.0])
    def test_custom_dim_is_an_integer(self, dim):
        with pytest.raises(ConfigError, match="dim"):
            load_model({"type": "custom", "dim": dim, "drift": {"name": "zero"},
                        "diffusion_matrix": [[1.0]],
                        "init_mean": [0.0], "init_cov": [[1.0]]})
