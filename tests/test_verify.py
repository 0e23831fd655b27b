import math

import numpy as np
import pytest

import pathrev.density
from pathrev import verify
from pathrev.core import (ConsistencyError, MatrixField, ParameterError,
                          SupportError, VectorField, make_grid, path_rng,
                          path_streams)
from pathrev.density import DensityFlow, exact_flow_density
from pathrev.models import (Gaussian, biased_cycle_walk, bm_diffusion,
                            bm_flow, graph_walk, ou_diffusion,
                            ou_marginal_flow, ou_reference, walk_marginal_fn)
from pathrev.reversal import BackwardDriftField, reversed_jump_intensities
from pathrev.simulate import SimConfig, euler_maruyama
from pathrev.verify import TestFunction as _TestFunction  # alias: not a test class
from pathrev.verify import (carre_du_champ_estimate,
                            continuity_residual, coordinate_function,
                            detailed_balance_residual, graph_ibp_residual,
                            ibp_residual, nelson_forward_derivative,
                            square_function, two_sample_energy,
                            windowed_cubic)


class TestTestFunctions:
    def test_coordinate(self):
        u = coordinate_function(2, index=1)
        X = np.array([[1.0, 2.0], [3.0, -4.0]])
        assert np.array_equal(u(X), np.array([2.0, -4.0]))
        assert np.array_equal(u.grad(X)[:, 1], np.ones(2))
        assert np.array_equal(u.hess(X), np.zeros((2, 2, 2)))

    def test_square(self):
        u = square_function(1)
        X = np.array([[3.0]])
        assert u(X)[0] == 9.0
        assert u.grad(X)[0, 0] == 6.0
        assert u.hess(X)[0, 0, 0] == 2.0

    def test_square_is_the_coordinate_product(self):
        u = square_function(2, index=1)
        X = np.array([[1.5, -2.0], [-0.5, 3.0]])
        assert np.array_equal(u(X), X[:, 1] ** 2)
        assert np.array_equal(u.grad(X), [[0.0, -4.0], [0.0, 6.0]])
        assert np.array_equal(u.hess(X), np.broadcast_to([[0.0, 0.0], [0.0, 2.0]],
                                                         (2, 2, 2)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_square_derivatives_are_2x_and_2(self, d):
        X = path_rng(5, d).standard_normal((20, d)) * 3.0
        for i in range(d):
            u = square_function(d, index=i)
            e = np.eye(d)[i]
            assert np.array_equal(u(X), X[:, i] * X[:, i])
            assert np.array_equal(u.grad(X), 2.0 * X[:, i:i + 1] * e)
            assert np.array_equal(u.hess(X), np.broadcast_to(2.0 * np.outer(e, e), (20, d, d)))

    def test_windowed_cubic_derivatives_match_fd(self):
        u = windowed_cubic(1)
        xs = np.array([[0.0], [0.7], [-1.3], [2.1]])
        h = 1e-6
        for x in xs:
            up = u(np.array([x + h]))[0]
            dn = u(np.array([x - h]))[0]
            assert u.grad(x[None, :])[0, 0] == pytest.approx((up - dn) / (2 * h),
                                                             abs=1e-7)
            gp = u.grad(np.array([x + h]))[0, 0]
            gn = u.grad(np.array([x - h]))[0, 0]
            assert u.hess(x[None, :])[0, 0, 0] == pytest.approx((gp - gn) / (2 * h),
                                                                abs=1e-6)

    def test_laplacian_constant_a(self):
        u = square_function(2, index=1)
        a = MatrixField([[2.0, 0.0], [0.0, 3.0]])
        X = np.zeros((4, 2))
        assert np.array_equal(u.laplacian(a, X), np.full(4, 6.0))


@pytest.fixture(scope="module")
def stationary():
    ref, stat_flow = ou_reference(1)
    density = exact_flow_density(stat_flow)
    v_bwd = VectorField(BackwardDriftField(ref.drift, ref.a, ref.div_a,
                                           density), 1)
    return ref, v_bwd


class TestIbpResidual:
    def test_battery_on_stationary_slice(self, stationary):
        ref, v_bwd = stationary
        X = path_rng(404, 0).standard_normal((200_000, 1)) * math.sqrt(0.5)
        funcs = [coordinate_function(1), square_function(1), windowed_cubic(1)]
        for i in range(3):
            for j in range(i, 3):
                rep = ibp_residual(ref.drift, v_bwd, ref.a, X, 0.3,
                                   funcs[i], funcs[j])
                assert rep.passed, (i, j, rep)
                assert rep.mc_stderr > 0.0
                assert rep.n_samples == 200_000

    def test_pointwise_integrand_value(self, stationary):
        # at x = 1/2 with u = v = x^2 the bracket is -4x^4 + 6x^2 = 1.25
        ref, v_bwd = stationary
        u = square_function(1)
        rep = ibp_residual(ref.drift, v_bwd, ref.a, np.array([[0.5]]), 0.3, u, u)
        assert rep.estimate == pytest.approx(1.25, abs=1e-12)
        assert "small sample" in rep.note

    def test_one_row_has_no_error_bar_and_fails(self, stationary):
        # the bracket at x = 0 is 1 for u = v = x; one value gives an infinite
        # standard error, which must not make |1| <= z * se + atol vacuous
        ref, v_bwd = stationary
        u = coordinate_function(1)
        rep = ibp_residual(ref.drift, v_bwd, ref.a, np.zeros((1, 1)), 0.3, u, u)
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)
        assert rep.mc_stderr == math.inf
        assert rep.n_samples == 1
        assert rep.passed is False

    def test_report_dict_roundtrip(self, stationary):
        ref, v_bwd = stationary
        u = coordinate_function(1)
        rep = ibp_residual(ref.drift, v_bwd, ref.a, np.zeros((5, 1)), 0.1, u, u)
        d = rep.to_dict()
        assert set(d) == {"estimate", "mc_stderr", "n_samples", "passed",
                          "z", "atol", "note"}


class TestGraphIbp:
    def test_biased_cycle_battery(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        p = np.full(4, 0.25)
        eye = np.eye(4)
        for t in (0.0, 0.5):
            for i in range(4):
                for j in range(4):
                    rep = graph_ibp_residual(spec, rw, p, t, eye[i], eye[j])
                    assert abs(rep.estimate) <= 1e-12, (t, i, j, rep.estimate)
                    assert rep.passed
                    assert rep.z == 0.0 and rep.mc_stderr == 0.0

    def test_symmetric_cycle(self):
        spec = biased_cycle_walk(4, rate_cw=1.0, rate_ccw=1.0)
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        u = np.array([1.0, -1.0, 2.0, 0.0])
        v = np.array([0.0, 3.0, -1.0, 1.0])
        rep = graph_ibp_residual(spec, rw, np.full(4, 0.25), 0.5, u, v)
        assert abs(rep.estimate) <= 1e-12

    def test_undefined_on_charged_state_raises(self):
        A = np.array([[False, True, False],
                      [True, False, True],
                      [False, True, False]])
        J = np.array([[0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0]])
        spec = graph_walk(A, J, np.array([0.0, 0.0, 1.0]))
        rw = reversed_jump_intensities(spec, lambda t: spec.p0, T=1.0)
        charged = np.full(3, 1.0 / 3.0)
        with pytest.raises(ConsistencyError, match="charged states"):
            graph_ibp_residual(spec, rw, charged, 0.5, np.eye(3)[0], np.eye(3)[1])

    def test_shape_validation(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        with pytest.raises(ParameterError):
            graph_ibp_residual(spec, rw, np.full(3, 1 / 3), 0.5,
                               np.zeros(4), np.zeros(4))


@pytest.fixture(scope="module")
def ou3_ensemble():
    spec = ou_diffusion(Gaussian([3.0], [[0.5]]))
    return euler_maruyama(spec, SimConfig(100_000, 818, make_grid(1.0, 100)))


class TestCarreDuChamp:
    # ou3_ensemble has 100 steps on [0, 1]: node 25 is t = 1/4, one step 0.01
    def test_bias_shrinks_linearly_in_h(self, ou3_ensemble):
        # E Gamma(x^2, x^2) at t = 1/4 is 4 (m_t^2 + 1/2); the product
        # increment over-shoots by O(h), so halving h should roughly halve
        # the excess
        m_t = 3.0 * math.exp(-0.25)
        expected = 4.0 * (m_t ** 2 + 0.5)
        sq = square_function(1)
        excess = {}
        for lag in (4, 2, 1):
            rep = carre_du_champ_estimate(ou3_ensemble, sq, sq, 25, 25 + lag,
                                          expected, atol=5.0)
            excess[lag] = rep.estimate
        assert 1.4 <= excess[4] / excess[2] <= 2.8
        assert 1.4 <= excess[2] / excess[1] <= 2.8

    def test_brownian_slice_value(self):
        spec = bm_diffusion(Gaussian([0.0], [[1.0]]))
        e = euler_maruyama(spec, SimConfig(200_000, 920, make_grid(1.0, 200)))
        sq = square_function(1)
        # E Gamma(x^2, x^2) = 4 E X_t^2 = 4 (1 + t) = 5 at t = 1/4 (node 50),
        # lag h = 0.02 (4 steps)
        rep = carre_du_champ_estimate(e, sq, sq, 50, 54, 5.0, atol=0.35)
        assert rep.passed
        assert abs(rep.estimate) <= 0.15

    def test_constant_function_is_exact(self, ou3_ensemble):
        c = _TestFunction(lambda X: np.full(X.shape[0], 3.0), np.zeros_like,
                          lambda X: np.zeros((X.shape[0], 1, 1)))
        rep = carre_du_champ_estimate(ou3_ensemble, c, c, 25, 27, 0.0)
        assert rep.estimate == 0.0
        assert rep.passed

    def test_divides_by_the_node_times(self, ou3_ensemble):
        x = coordinate_function(1)
        grid = ou3_ensemble.grid
        X0, X1 = ou3_ensemble.paths[:, 25, :], ou3_ensemble.paths[:, 29, :]
        vals = (X1[:, 0] - X0[:, 0]) ** 2 / (grid.node(29) - grid.node(25))
        rep = carre_du_champ_estimate(ou3_ensemble, x, x, 25, 29, 1.0)
        assert rep.estimate == float((vals - 1.0).mean())
        assert rep.n_samples == ou3_ensemble.n_paths

    def test_node_range_errors(self, ou3_ensemble):
        sq = square_function(1)
        for k0, k1 in ((25, 25), (25, 24), (-1, 3), (99, 101)):
            with pytest.raises(ParameterError, match="k1 <= 100, got k0="):
                carre_du_champ_estimate(ou3_ensemble, sq, sq, k0, k1, 0.0)
        rep = carre_du_champ_estimate(ou3_ensemble, sq, sq, 99, 100, 0.0, atol=1e9)
        assert rep.passed


@pytest.fixture(scope="module")
def shifted_ensemble():
    spec = ou_diffusion(Gaussian([1.0], [[0.5]]))
    return euler_maruyama(spec, SimConfig(100_000, 515, make_grid(1.0, 400)))


class TestNelson:
    # shifted_ensemble has 400 steps on [0, 1]: a lag of 40 steps is h = 0.1
    def test_generator_of_coordinate(self, shifted_ensemble):
        # L x = b(x) = -x, so the windowed quotient near x0 = 1 tends to -1
        est = nelson_forward_derivative(shifted_ensemble, coordinate_function(1),
                                        0, [1.0], window=0.05, lag=40)
        assert abs(est + 1.0) <= 0.1

    def test_generator_of_square(self, shifted_ensemble):
        # L x^2 = 2x b(x) + 1 = -2x^2 + 1 = -1 at x0 = 1
        est = nelson_forward_derivative(shifted_ensemble, square_function(1),
                                        0, [1.0], window=0.1, lag=40)
        assert abs(est + 1.0) <= 0.1

    def test_driftless_process_is_flat(self):
        spec = bm_diffusion(Gaussian([0.0], [[1.0]]))
        e = euler_maruyama(spec, SimConfig(100_000, 616, make_grid(1.0, 100)))
        est = nelson_forward_derivative(e, coordinate_function(1), 0, [0.5],
                                        window=0.1, lag=10)
        assert abs(est) <= 0.1

    def test_richardson_of_lag_and_twice_lag(self, shifted_ensemble):
        # 2 d(h) - d(2h) over the paths in the window, with h = lag steps
        u, e = coordinate_function(1), shifted_ensemble
        X0 = e.paths[:, 80, :]
        sel = np.abs(X0[:, 0] - 0.5) <= 0.1
        d = [float((e.paths[sel, 80 + k, 0] - X0[sel, 0]).mean()
                   / (e.grid.node(80 + k) - e.grid.node(80))) for k in (20, 40)]
        est = nelson_forward_derivative(e, u, 80, [0.5], window=0.1, lag=20)
        assert est == pytest.approx(2.0 * d[0] - d[1], rel=1e-12)

    def test_parameter_errors(self, shifted_ensemble):
        u = coordinate_function(1)
        with pytest.raises(ParameterError, match="window"):
            nelson_forward_derivative(shifted_ensemble, u, 0, [1.0],
                                      window=0.0, lag=40)
        # the node and both lags must lie on the 400-step grid
        for k0, lag in ((0, 0), (-1, 40), (321, 40), (0, 201)):
            with pytest.raises(ParameterError, match=r"2 lag <= 400, got k0="):
                nelson_forward_derivative(shifted_ensemble, u, k0, [1.0],
                                          window=0.1, lag=lag)
        nelson_forward_derivative(shifted_ensemble, u, 320, [0.4], window=0.1, lag=40)

    def test_empty_window(self, shifted_ensemble):
        with pytest.raises(SupportError):
            nelson_forward_derivative(shifted_ensemble, coordinate_function(1),
                                      0, [50.0], window=0.01, lag=40)


class TestContinuity:
    def _ou_setup(self):
        spec = ou_diffusion(Gaussian([1.0], [[0.5]]))
        density = exact_flow_density(ou_marginal_flow([1.0], [[0.5]]))
        bwd = BackwardDriftField(spec.drift, spec.a, VectorField.zero(1), density)
        v_cu = VectorField(lambda t, X: 0.5 * (spec.drift(t, X) - bwd(t, X)), 1)
        return density, v_cu

    def test_ou_current_velocity(self):
        density, v_cu = self._ou_setup()
        rep = continuity_residual(density, v_cu, make_grid(1.0, 400),
                                  ([-1.0], [1.5]))
        assert rep.sup_residual <= 1e-6
        assert rep.n_used == 27
        assert rep.n_skipped == 0

    def test_brownian_current_velocity(self):
        density = exact_flow_density(bm_flow([[1.0]]))
        spec = bm_diffusion(Gaussian([0.0], [[1.0]]))
        bwd = BackwardDriftField(spec.drift, spec.a, VectorField.zero(1), density)
        v_cu = VectorField(lambda t, X: 0.5 * (spec.drift(t, X) - bwd(t, X)), 1)
        rep = continuity_residual(density, v_cu, make_grid(1.0, 400),
                                  ([-2.0], [2.0]))
        assert rep.sup_residual <= 1e-6

    def test_stationary_flow_is_exactly_conserved(self):
        ref, stat_flow = ou_reference(1)
        density = exact_flow_density(stat_flow)
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        v_cu = VectorField(lambda t, X: 0.5 * (ref.drift(t, X) - bwd(t, X)), 1)
        rep = continuity_residual(density, v_cu, make_grid(1.0, 100),
                                  ([-1.0], [1.0]))
        assert rep.sup_residual == 0.0

    def test_parameter_errors(self):
        density, v_cu = self._ou_setup()
        with pytest.raises(ParameterError):
            continuity_residual(density, v_cu, make_grid(1.0, 400), ([1.5], [-1.0]))
        # on a horizon of 2e-4 the probe time T/4 lies closer to 0 than the
        # time step 1e-4 of the central difference
        with pytest.raises(ParameterError, match="too close to the interval ends"):
            continuity_residual(density, v_cu, make_grid(2e-4, 4), ([-1.0], [1.5]))

    def test_all_probes_below_floor(self, floored):
        flow = ou_marginal_flow([1.0], [[0.5]])
        tight = floored(flow, 0.99)
        spec = ou_diffusion(Gaussian([1.0], [[0.5]]))
        bwd = BackwardDriftField(spec.drift, spec.a, VectorField.zero(1), tight)
        v_cu = VectorField(lambda t, X: 0.5 * (spec.drift(t, X) - bwd(t, X)), 1)
        with pytest.raises(ParameterError):
            continuity_residual(tight, v_cu, make_grid(1.0, 400),
                                ([4.0], [5.0]))


def _ou_current(mean, cov, wrap=exact_flow_density):
    """(density, current velocity) of OU from N(mean, cov); wrap turns the
    exact flow into the density."""
    d = len(mean)
    spec = ou_diffusion(Gaussian(mean, cov))
    density = wrap(ou_marginal_flow(mean, cov))
    bwd = BackwardDriftField(spec.drift, spec.a, VectorField.zero(d), density)
    return density, VectorField(lambda t, X: 0.5 * (spec.drift(t, X) - bwd(t, X)), d)


def _continuity_per_probe(flow, v_cu, grid, box):
    """continuity_residual's report fields, with every probe and every
    stencil point queried alone as a one-row batch."""
    d = flow.dim
    lo = np.broadcast_to(np.asarray(box[0], dtype=np.float64), (d,))
    hi = np.broadcast_to(np.asarray(box[1], dtype=np.float64), (d,))
    axes = [np.linspace(lo[i], hi[i], verify._N_PER_DIM) for i in range(d)]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    dt, dx = verify._DT_STENCIL, verify._DX_STENCIL
    residuals, n_skipped = [], 0
    for t in (0.25 * grid.T, 0.5 * grid.T, 0.75 * grid.T):
        law = flow.at(t)
        floor = 0.0 if isinstance(law, Gaussian) else pathrev.density._FLOOR_REL * law.max_pdf
        for x in mesh[:, None, :]:
            if not flow.pdf(t, x)[0] >= floor:
                n_skipped += 1
                continue
            drho_dt = (flow.pdf(t + dt, x)[0] - flow.pdf(t - dt, x)[0]) / (2.0 * dt)
            div = 0.0
            for i in range(d):
                up, down = x.copy(), x.copy()
                up[0, i] = x[0, i] + dx
                down[0, i] = x[0, i] - dx
                flux_up = flow.pdf(t, up)[0] * v_cu(t, up)[0, i]
                flux_down = flow.pdf(t, down)[0] * v_cu(t, down)[0, i]
                div += (flux_up - flux_down) / (2.0 * dx)
            residuals.append(abs(drho_dt + div))
    r = np.array(residuals)
    return float(r.max()), float(r.mean()), r.size, n_skipped


class TestContinuityBatches:
    @pytest.mark.parametrize("floor_rel, box", [(None, ([-1.0], [1.5])),
                                                (1e-3, ([-4.0], [6.0]))],
                             ids=["exact", "skipping"])
    def test_one_dimension_matches_per_probe_loop(self, floored, floor_rel, box):
        wrap = (exact_flow_density if floor_rel is None
                else lambda flow: floored(flow, floor_rel))
        density, v_cu = _ou_current([1.0], [[0.5]], wrap)
        grid = make_grid(1.0, 400)
        rep = continuity_residual(density, v_cu, grid, box)
        ref = _continuity_per_probe(density, v_cu, grid, box)
        assert (rep.sup_residual, rep.l1_residual, rep.n_used, rep.n_skipped) == ref
        assert (rep.n_skipped > 0) == (floor_rel is not None)

    def test_two_dimensions_match_per_probe_loop(self):
        density, v_cu = _ou_current([1.0, -0.5], [[0.5, 0.1], [0.1, 0.3]])
        grid = make_grid(1.0, 400)
        box = ([-1.0], [2.0])
        rep = continuity_residual(density, v_cu, grid, box)
        sup, l1, n_used, n_skipped = _continuity_per_probe(density, v_cu, grid, box)
        assert (rep.n_used, rep.n_skipped) == (n_used, n_skipped) == (243, 0)
        assert abs(rep.sup_residual - sup) <= 1e-13
        assert abs(rep.l1_residual - l1) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pdf_queries_are_batched_per_time(self, monkeypatch, dim):
        # per probe time: pdf at t -+ dt, and at X -+ dx e_i for each i
        calls = []
        pdf = DensityFlow.pdf

        def counted(self, t, X):
            calls.append(len(X))
            return pdf(self, t, X)

        monkeypatch.setattr(DensityFlow, "pdf", counted)
        mean, cov = [1.0, -0.5][:dim], (np.eye(dim) * 0.5).tolist()
        density, v_cu = _ou_current(mean, cov)
        continuity_residual(density, v_cu, make_grid(1.0, 400), ([-1.0], [2.0]))
        assert len(calls) <= 3 * (2 + 2 * dim)


class TestDetailedBalance:
    def test_biased_cycle_fails_balance(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        assert detailed_balance_residual(np.ones(4), spec) == 1.0

    def test_symmetric_cycle_is_reversible(self):
        spec = biased_cycle_walk(4, rate_cw=1.0, rate_ccw=1.0)
        assert detailed_balance_residual(np.ones(4), spec) == 0.0

    def test_weighted_two_state(self):
        A = np.array([[False, True], [True, False]])
        J = np.array([[0.0, 1.0], [2.0, 0.0]])
        spec = graph_walk(A, J, np.array([0.5, 0.5]))
        assert detailed_balance_residual(np.array([2.0, 1.0]), spec) == 0.0
        assert detailed_balance_residual(np.array([1.0, 1.0]), spec) == 1.0

    def test_invalid_measures(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        with pytest.raises(ParameterError):
            detailed_balance_residual(np.ones(3), spec)
        with pytest.raises(ParameterError):
            detailed_balance_residual(np.array([1.0, 0.0, 1.0, 1.0]), spec)


class TestTwoSampleEnergy:
    def test_identical_samples(self):
        A = path_rng(20, 0).standard_normal((100, 1))
        res = two_sample_energy(A, A, n_perm=49, seed=0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_null_case(self):
        A = path_rng(21, 0).standard_normal((800, 1))
        B = path_rng(22, 0).standard_normal((800, 1))
        res = two_sample_energy(A, B, n_perm=199, seed=5)
        assert res.p_value > 0.01
        assert res.statistic >= 0.0

    def test_detects_mean_shift(self):
        A = path_rng(21, 0).standard_normal((800, 1))
        B = path_rng(23, 0).standard_normal((800, 1)) + 0.3
        res = two_sample_energy(A, B, n_perm=199, seed=5)
        assert res.p_value == pytest.approx(0.005, abs=1e-12)  # = 1/200

    def test_seeded_permutations_reproduce(self):
        A = path_rng(21, 0).standard_normal((120, 1))
        B = path_rng(22, 0).standard_normal((120, 1))
        r1 = two_sample_energy(A, B, n_perm=99, seed=3)
        r2 = two_sample_energy(A, B, n_perm=99, seed=3)
        assert r1.p_value == r2.p_value and r1.statistic == r2.statistic

    def test_sorted_path_matches_distance_matrix_path(self):
        # embed the same 1-d data in 2-d with a zero column: the statistic
        # must agree across the two code paths (permutation p-values may
        # not, since the pool is enumerated in a different order)
        A = path_rng(21, 0).standard_normal((800, 1))
        B = path_rng(22, 0).standard_normal((800, 1))
        A2 = np.concatenate([A, np.zeros((800, 1))], axis=1)
        B2 = np.concatenate([B, np.zeros((800, 1))], axis=1)
        r1 = two_sample_energy(A, B, n_perm=49, seed=5)
        r2 = two_sample_energy(A2, B2, n_perm=49, seed=5)
        assert abs(r1.statistic - r2.statistic) <= 1e-12
        assert 0.0 < r1.p_value <= 1.0 and 0.0 < r2.p_value <= 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_distance_matrix_statistic_matches_cdist(self, d):
        # the observed statistic from scipy's pooled distance matrix, across
        # more than one block of rows, agrees in every bit
        from scipy.spatial.distance import cdist
        n, m = 300, 250
        A = path_rng(42, d).standard_normal((n, d))
        B = path_rng(43, d).standard_normal((m, d)) + 0.05
        P = np.concatenate([A, B])
        D = cdist(P, P)
        sa = np.r_[np.ones(n), np.zeros(m)]
        sb = 1.0 - sa
        Dsa = D @ sa
        obs = (2.0 * float(sb @ Dsa) / (n * m) - float(sa @ Dsa) / (n * n)
               - float(sb @ (D @ sb)) / (m * m))
        assert two_sample_energy(A, B, n_perm=9, seed=2).statistic == obs

    @pytest.mark.parametrize("n, m", [(300, 300), (150, 60), (7, 41)])
    def test_one_dimensional_matches_rank_weight_formula(self, n, m):
        # the sorted-pool statistic, written out the long way: per sample,
        # sum_{i<j} (z_j - z_i) from freshly built rank weights and a
        # boolean-index gather; the test must agree in every bit
        A = path_rng(40, n).standard_normal((n, 1))
        B = path_rng(41, m).standard_normal((m, 1)) + 0.1

        def pairsum(z):
            k = z.size
            return float(((2.0 * np.arange(k) - k + 1.0) * z).sum())

        pooled = np.concatenate([A[:, 0], B[:, 0]])
        order = np.argsort(pooled, kind="stable")
        z = pooled[order]

        def stat(sel):
            ua, ub = pairsum(z[sel]), pairsum(z[~sel])
            cross = pairsum(z) - ua - ub
            return 2.0 * cross / (n * m) - 2.0 * ua / (n * n) - 2.0 * ub / (m * m)

        obs = stat(order < n)
        count = 0
        for rng in path_streams(9, range(49)):
            sel = np.zeros(n + m, dtype=bool)
            sel[rng.permutation(n + m)[:n]] = True
            count += stat(sel) >= obs
        res = two_sample_energy(A, B, n_perm=49, seed=9)
        assert res.statistic == obs
        assert res.p_value == (count + 1) / 50

    def test_unbalanced_sizes(self):
        A = path_rng(1, 0).standard_normal((150, 1))
        B = path_rng(2, 0).standard_normal((60, 1))
        res = two_sample_energy(A, B, n_perm=99, seed=1)
        assert res.n_a == 150 and res.n_b == 60
        assert res.p_value > 0.01

    def test_errors(self):
        A = np.zeros((10, 1))
        with pytest.raises(ParameterError):
            two_sample_energy(A, np.zeros((10, 2)))
        with pytest.raises(ParameterError):
            two_sample_energy(A, A, n_perm=0)

    def test_one_dimensional_arrays_refused(self):
        # n values in a 1-d array are not one n-dimensional point; read that
        # way, samples 100 apart would compare one point against one point
        # and could never be rejected
        with pytest.raises(ParameterError):
            two_sample_energy(np.arange(50.0), np.arange(50.0) + 100.0, n_perm=19)
