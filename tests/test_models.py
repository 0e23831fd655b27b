import math

import numpy as np
import pytest
from scipy.linalg import expm

from pathrev.core import (ConfigError, ConsistencyError, MatrixField,
                          NumericError, ParameterError, VectorField)
from pathrev.models import (Gaussian, GaussianFlow, GraphWalkSpec,
                            biased_cycle_walk, bm_diffusion, bm_flow,
                            diffusion_spec, graph_walk, kolmogorov_spec,
                            load_model, ou_diffusion, ou_marginal_flow,
                            ou_reference, walk_marginal_fn)

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

    def test_batch_pdf(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        p = g.pdf(np.zeros((3, 2)))
        assert p.shape == (3,)
        assert np.allclose(p, 1.0 / (2 * math.pi))

    def test_max_pdf(self):
        g = Gaussian(np.array([3.0]), np.eye(1) * 0.5)
        assert g.max_pdf() == pytest.approx(INV_SQRT_PI, abs=1e-15)

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
        fresh = Gaussian(flow.mean_fn(0.25), flow.cov_fn(0.25))
        X = np.linspace(-3.0, 3.0, 13)[:, None]
        assert np.array_equal(g.score(X), fresh.score(X))
        assert np.array_equal(g.logpdf(X), fresh.logpdf(X))
        # the cache is not part of the flow's value
        assert flow == GaussianFlow(flow.mean_fn, flow.cov_fn, flow.dim, flow.tag)
        assert "_laws" not in repr(flow)

    def test_validate_spd(self):
        # a flow's start covariance must be SPD; a PSD one has no density
        for build in (lambda C: ou_marginal_flow([0.0], C), bm_flow):
            build([[0.5]])
            for C in ([[-1.0]], [[0.0]]):
                with pytest.raises(NumericError, match="not SPD at t=0.0"):
                    build(C)


class TestKolmogorovSpec:
    def test_ou_reference_drift(self):
        ref, flow = ou_reference()
        X = np.array([[0.5], [-2.0]])
        assert np.allclose(ref.drift(0.0, X), -X)
        assert ref.a.is_constant
        assert np.array_equal(ref.a.constant_matrix, np.eye(1))
        assert np.allclose(flow.at(0.3).cov, 0.5 * np.eye(1))

    def test_reversible_law_is_normalized_gaussian(self):
        ref, _ = ou_reference()
        x = np.array([[0.7]])
        assert np.exp(ref.m_logpdf(x))[0] == pytest.approx(ref.m.pdf(x)[0], rel=1e-12)
        assert ref.m_score(x)[0, 0] == pytest.approx(-2.0 * 0.7, abs=1e-13)

    def test_derived_drift_formula(self):
        # a = Id and U = |x|^2 give b = -x
        spec = kolmogorov_spec(1, lambda X: (X ** 2).sum(axis=1),
                               lambda X: 2.0 * X, MatrixField.identity(1))
        X = np.array([[1.5], [-0.25]])
        assert np.allclose(spec.drift(0.0, X), -X)

    def test_nonconstant_a_needs_div(self):
        af = MatrixField(lambda t, x: np.eye(1), 1)
        with pytest.raises(ParameterError):
            kolmogorov_spec(1, lambda X: (X ** 2).sum(axis=1),
                            lambda X: 2.0 * X, af)


class TestDiffusionSpec:
    def test_ou_diffusion(self):
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        X = np.array([[2.0]])
        assert np.allclose(spec.drift(0.0, X), -X)
        assert np.array_equal(spec.sigma.at(0.0, X[0]), np.eye(1))

    def test_bm_diffusion(self):
        spec = bm_diffusion(Gaussian(np.zeros(1), np.eye(1)))
        assert np.allclose(spec.drift(0.0, np.array([[3.0]])), 0.0)

    def test_sigma_consistency_check(self):
        spec = diffusion_spec(VectorField.zero(1), MatrixField.identity(1),
                              Gaussian(np.zeros(1), np.eye(1)),
                              sigma=MatrixField.constant([[2.0]]))
        with pytest.raises(ConsistencyError):
            spec.validate_sigma(np.zeros((1, 1)))

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
        Q = spec.generator(0.0)
        assert np.allclose(Q.sum(axis=1), 0.0)
        assert np.allclose(spec.out_rates(), [3.0, 3.0, 3.0, 3.0])

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
        Q = spec.generator(0.0)
        assert np.allclose(p(1.0), spec.p0 @ expm(Q), atol=1e-12)
        # independent first-order check of the forward equation
        h = 1e-4
        assert np.allclose(p(h), spec.p0 + h * (spec.p0 @ Q), atol=1e-6)
        assert p(0.7).sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ParameterError):
            p(-0.5)

    def test_time_dependent_route(self):
        base = _c4()
        fn = lambda t: (1.0 + t) * base.intensity_matrix
        spec = graph_walk(base.adjacency, fn, np.array([1.0, 0.0, 0.0, 0.0]),
                          rate_bound=7.0)
        p = walk_marginal_fn(spec)
        # commuting generators: p(t) = p0 expm((t + t^2/2) Q0)
        expected = spec.p0 @ expm(1.5 * base.generator(0.0))
        assert np.allclose(p(1.0), expected, atol=1e-9)


class TestLoadModel:
    def test_ou(self):
        b = load_model({"type": "ou", "init_mean": [1.0], "init_cov": [[0.5]]})
        assert b.dim == 1
        assert b.flow.at(1.0).mean[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert b.reference is not None

    def test_bm(self):
        b = load_model({"type": "bm", "init_mean": [0.0], "init_cov": [[1.0]]})
        assert b.flow.at(1.0).cov[0, 0] == 2.0
        assert b.reference is None

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
        assert b.flow is None

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
