import math

import numpy as np
import pytest

from pathrev import reversal
from pathrev.core import (ConsistencyError, MatrixField, ParameterError,
                          VectorField, make_grid)
from pathrev.density import exact_flow_density, kde_flow
from pathrev.models import (Gaussian, GaussianFlow, biased_cycle_walk, bm_flow,
                            graph_walk, linear_flow, ou_diffusion,
                            ou_marginal_flow, ou_reference, walk_marginal_fn)
from pathrev.reversal import (BackwardDriftField, momentum_fields,
                              osmotic_residual, reversed_drift,
                              reversed_jump_intensities)
from pathrev.simulate import SimConfig, euler_maruyama

TWO_OVER_E = 0.7357588823428847


def _ou_setup():
    ref, _ = ou_reference()
    flow = ou_marginal_flow([1.0], [[0.5]])
    density = exact_flow_density(flow)
    return ref, flow, density


class TestBackwardDrift:
    def test_shifted_ou_oracle(self):
        # started at N(1, 1/2): marginal N(e^{-t}, 1/2), so at the reversed
        # origin the drift is -(-0) + 0 + score = 2 e^{-1}
        ref, flow, density = _ou_setup()
        rd = reversed_drift(ref.drift, ref.a, ref.div_a, density, T=1.0)
        got = rd(0.0, np.zeros((1, 1)))[0, 0]
        assert got == TWO_OVER_E

    def test_stationary_start_reverses_to_itself(self):
        ref, stat_flow = ou_reference()
        density = exact_flow_density(stat_flow)
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        X = np.linspace(-2, 2, 9)[:, None]
        for t in (0.1, 0.5, 0.9):
            assert np.array_equal(bwd(t, X), ref.drift(t, X))

    def test_brownian_motion_from_unit_gaussian(self):
        # zero drift, a = Id, marginal N(0, 1 + t): b_rev(s, x) = -x/(2 - s)
        density = exact_flow_density(bm_flow([[1.0]]))
        b = VectorField.zero(1)
        rd = reversed_drift(b, MatrixField.identity(1), VectorField.zero(1),
                            density, T=1.0)
        x = np.array([[1.0]])
        assert rd(0.0, x)[0, 0] == -0.5  # original time 1, cov 2
        assert rd(0.5, x)[0, 0] == pytest.approx(-1.0 / 1.5, abs=1e-15)
        assert rd(1.0, x)[0, 0] == -1.0  # original time 0, cov 1

    def test_kde_fused_pass_matches_separate_passes(self):
        # the drift takes score and support from one kernel pass; the flow's
        # separate score and in_support calls must give the same drift
        ref, _ = ou_reference()
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        e = euler_maruyama(spec, SimConfig(400, 9, make_grid(1.0, 20)))
        density = kde_flow(e, rule="score")
        fused = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        split_floor_hits = 0

        def split(t, X):
            nonlocal split_floor_hits
            ok = density.in_support(t, X)
            split_floor_hits += int((~ok).sum())
            sc = np.where(ok[:, None], density.score(t, X), 0.0)
            return -ref.drift(t, X) + ref.div_a(t, X) + ref.a.apply(sc)

        X = np.linspace(-5.0, 7.0, 700)[:, None]  # crosses chunks and the floor
        for t in (0.05, 0.5, 1.0):
            assert np.array_equal(fused(t, X), split(t, X))
            assert np.array_equal(fused(t, X[3:4]), split(t, X[3:4]))
        assert fused.floor_hits == split_floor_hits > 0
        assert fused.cap_hits == 0

    def test_batch_matches_single(self):
        # each row queried alone, as a one-row batch, gives its batch row
        ref, flow, density = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        X = np.array([[0.0], [0.7], [-1.3]])
        batch = bwd(0.4, X)
        for i in range(len(X)):
            assert np.array_equal(bwd(0.4, X[i:i + 1]), batch[i:i + 1])

    def test_floor_zeroes_score(self, floored):
        ref, flow, _ = _ou_setup()
        tight = floored(flow, 0.5)
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, tight)
        out = bwd(0.0, np.array([[3.0]]))
        # score dropped: only -b survives
        assert out[0, 0] == -(-3.0)
        assert bwd.floor_hits == 1

    def test_cap_rescales_norm(self, monkeypatch):
        monkeypatch.setattr(reversal, "_B_MAX", 1.0)
        ref, flow, density = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        out = bwd(0.0, np.array([[-4.0]]))
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-12)
        assert bwd.cap_hits == 1

    def test_dimension_and_parameter_errors(self):
        ref, flow, density = _ou_setup()
        with pytest.raises(ParameterError):
            BackwardDriftField(VectorField.zero(2), MatrixField.identity(2),
                               VectorField.zero(2), density)

    def test_reversed_clock_is_the_field_at_t_minus_s(self):
        # the bundled OU config's probe line: 11 points on 1 +- (2 sd + 0.5)
        ref, flow, density = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        rev = bwd.reversed(1.0)
        half = 2.0 * math.sqrt(0.5) + 0.5
        X = np.linspace(1.0 - half, 1.0 + half, 11)[:, None]
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert np.array_equal(rev(s, X), bwd(1.0 - s, X))

    def test_reversed_time_domain(self):
        ref, flow, density = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        for T in (0.0, -1.0):
            with pytest.raises(ParameterError):
                bwd.reversed(T)
        rev = bwd.reversed(1.0)
        for s in (-0.1, 1.5):
            with pytest.raises(ParameterError):
                rev(s, np.zeros((1, 1)))

    def test_counter_passthrough(self, floored, monkeypatch):
        # queries on the reversed clock count in the field's own counters;
        # at T - s = 0 the law is N(1, 1/2): x = 3 lies below the floor and
        # its drift 3 is capped, x = 0.3 is inside with drift 2 - x = 1.7
        monkeypatch.setattr(reversal, "_B_MAX", 1.0)
        ref, flow, _ = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, floored(flow, 0.5))
        rev = bwd.reversed(1.0)
        rev(1.0, np.array([[3.0]]))
        assert bwd.floor_hits == 1 and bwd.cap_hits == 1
        rev(1.0, np.array([[0.3]]))
        assert bwd.floor_hits == 1 and bwd.cap_hits == 2

    @pytest.mark.parametrize("x", [8.0, 40.0])
    def test_exact_score_trusted_in_far_tail(self, x):
        # OU from N(1, 1/2) has marginal N(e^{-t}, 1/2), so the backward drift
        # x + score is -x + 2 e^{-t} everywhere; at x = 40 the pdf underflows
        ref, flow, density = _ou_setup()
        t = 0.5
        X = np.array([[x]])
        assert density.in_support(t, X)[0]
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        assert bwd(t, X)[0, 0] == pytest.approx(-x + 2.0 * math.exp(-t), rel=1e-14)
        assert bwd.floor_hits == 0


class TestAffineBackwardDrift:
    """On a Gaussian slice law with a linear b and a zero div a, the field is
    A(t) x + c(t), with A = -M - a Sigma^{-1} and c = -c_b + a Sigma^{-1} m."""

    # correlated a, a drift with an offset, a start off stationarity
    M = np.array([[-1.0, 0.5], [-0.5, -1.0]])
    C = np.array([0.2, 0.0])
    A = np.array([[2.0, 1.0], [1.0, 2.0]])

    def _flow(self):
        return linear_flow(self.M, self.C, self.A, Gaussian([1.0, 0.0], 0.5 * np.eye(2)))

    def _field(self, b=None, div_a=None, density=None):
        b = b or VectorField.linear(self.M, self.C)
        return b, BackwardDriftField(b, MatrixField(self.A), div_a or VectorField.zero(2),
                                     density or exact_flow_density(self._flow()))

    def test_table_and_values(self):
        b, bwd = self._field()
        flow = self._flow()
        X = np.linspace(-3.0, 3.0, 14).reshape(7, 2)
        for t in (0.0, 0.3, 1.0):
            law = flow.at(t)
            P = self.A @ np.linalg.inv(law.cov)
            A, c = bwd.affine(t)
            assert np.allclose(A, -self.M - P, rtol=1e-14, atol=1e-14)
            assert np.allclose(c, -self.C + P @ law.mean, rtol=1e-14, atol=1e-14)
            # the score formula on the same law
            want = -b(t, X) + law.score(X) @ self.A.T
            assert np.allclose(bwd(t, X), want, rtol=1e-13, atol=1e-13)
        assert bwd.floor_hits == bwd.cap_hits == 0

    def test_one_table_per_distinct_time(self, monkeypatch):
        # the flow keeps one law per time, so no law is built twice
        laws = []
        law = GaussianFlow._law

        def counted(self, t):
            laws.append(t)
            return law(self, t)

        monkeypatch.setattr(GaussianFlow, "_law", counted)
        _, bwd = self._field()
        X = np.ones((3, 2))
        for t in (0.5, 0.25, 0.5, 0.5):
            bwd(t, X)
        assert laws == [0.5, 0.25]

    def test_score_path_elsewhere(self, floored):
        # a law that is not a Gaussian, a drift that is not linear, or a
        # div a that is not the linear zero: no table, and the field goes
        # through the score
        linear = VectorField.linear(self.M, self.C)
        for b, div_a, density in (
                (None, None, floored(self._flow(), 1e-12)),
                (VectorField(lambda t, X: linear(t, X), 2), None, None),
                (None, VectorField.linear(np.eye(2)), None),
                (None, VectorField.constant([0.0, 0.0]), None)):
            _, bwd = self._field(b, div_a, density)
            assert bwd.affine(0.5) is None
            assert bwd(0.5, np.ones((2, 2))).shape == (2, 2)

    def test_refuses_a_bare_vector(self):
        _, bwd = self._field()
        with pytest.raises(ParameterError):
            bwd(0.5, np.ones(2))


class TestScoreOnlyExactDrift:
    """An exact flow's drift is its affine table: no pdf is evaluated.  Off
    the table, score and trust mask come from one fused density query."""

    def test_exact_drift_skips_the_logpdf(self, monkeypatch):
        ref, flow, density = _ou_setup()
        X = np.linspace(-40.0, 40.0, 801)[:, None]
        expected = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)(0.5, X)

        def refuse(self, X):
            raise AssertionError("logpdf evaluated at floor 0")

        monkeypatch.setattr(Gaussian, "logpdf", refuse)
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, exact_flow_density(flow))
        for t in (0.0, 0.25, 0.75, 1.0):
            bwd(t, X)
        assert np.array_equal(bwd(0.5, X), expected)
        assert bwd.floor_hits == 0

    def test_drift_score_path_is_the_fused_query(self, floored):
        # a floored slice law is not a Gaussian, so the drift takes the score
        # path: one pdf_score_in_support query, the rejected scores zeroed
        ref, flow, _ = _ou_setup()
        X = np.linspace(-6.0, 8.0, 141)[:, None]
        for floor in (0.0, 1e-3, 0.5):
            d = floored(flow, floor)
            bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, d)
            hits = 0
            for t in (0.0, 0.5, 1.0):
                _, sc, ok = d.pdf_score_in_support(t, X)
                sc = np.where(ok[:, None], sc, 0.0)
                want = -ref.drift(t, X) + ref.div_a(t, X) + ref.a.apply(sc)
                assert np.array_equal(bwd(t, X), want)
                assert ok.all() == (floor == 0.0)
                hits += int((~ok).sum())
            assert bwd.floor_hits == hits


class TestMomenta:
    def _fields(self):
        ref, flow, density = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        v_bwd = VectorField(lambda t, X: bwd(t, X), 1)
        return ref, momentum_fields(ref.drift, v_bwd, ref)

    def test_shifted_ou_momenta(self):
        # beta_fwd = 0 (the forward process is the reference itself);
        # beta_bwd = 2 e^{-t}, so beta_cu = -e^{-t} and beta_os = e^{-t}
        ref, mom = self._fields()
        X = np.array([[0.3], [-0.6]])
        for t in (0.25, 0.75):
            bf, bb, bc, bo = mom(t, X)
            assert np.allclose(bf, 0.0, atol=1e-14)
            assert np.allclose(bb, 2 * math.exp(-t), atol=1e-13)
            assert np.allclose(bc, -math.exp(-t), atol=1e-13)
            assert np.allclose(bo, math.exp(-t), atol=1e-13)

    def test_parallelogram_identity(self):
        # |b_f|_a^2/2 + |b_b|_a^2/2 = |b_cu|_a^2 + |b_os|_a^2 pointwise
        ref, mom = self._fields()
        X = np.linspace(-1.5, 1.5, 7)[:, None]
        qf, qb, qc, qo = (ref.a.quad(beta) for beta in mom(0.5, X))
        assert np.abs(0.5 * qf + 0.5 * qb - qc - qo).max() <= 1e-12

    def test_each_velocity_evaluated_once_per_call(self):
        ref, _, density = _ou_setup()
        calls = {"fwd": 0, "bwd": 0}
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)

        def counted(name, field):
            def fn(t, X):
                calls[name] += 1
                return field(t, X)
            return VectorField(fn, 1)

        mom = momentum_fields(counted("fwd", ref.drift), counted("bwd", bwd), ref)
        bf, bb, bc, bo = mom(0.5, np.linspace(-1.0, 1.0, 5)[:, None])
        assert calls == {"fwd": 1, "bwd": 1}
        assert np.array_equal(bc, 0.5 * (bf - bb))
        assert np.array_equal(bo, 0.5 * (bf + bb))

    def test_dimension_mismatch(self):
        ref, _, _ = _ou_setup()
        with pytest.raises(ParameterError):
            momentum_fields(VectorField.zero(2), VectorField.zero(2), ref)


class TestOsmoticIdentity:
    def test_exact_density_gives_zero_residual(self):
        ref, flow, density = _ou_setup()
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, density)
        v_bwd = VectorField(lambda t, X: bwd(t, X), 1)
        mom = momentum_fields(ref.drift, v_bwd, ref)
        X = np.linspace(-1.0, 2.0, 11)[:, None]
        res = osmotic_residual(density, ref, mom, (0.0, 0.5, 1.0), X)
        assert res.max_abs <= 1e-9
        assert res.weighted_l2 <= res.max_abs
        assert res.n_used == 33
        assert res.n_skipped == 0

    def test_all_probes_skipped(self, floored):
        ref, flow, _ = _ou_setup()
        tight = floored(flow, 0.99)
        bwd = BackwardDriftField(ref.drift, ref.a, ref.div_a, tight)
        v_bwd = VectorField(lambda t, X: bwd(t, X), 1)
        mom = momentum_fields(ref.drift, v_bwd, ref)
        with pytest.raises(ParameterError):
            osmotic_residual(tight, ref, mom, (0.5,), np.array([[4.0], [5.0]]))


def _c4():
    return biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)


class TestWalkReversal:
    def test_uniform_cycle_swaps_rates(self):
        spec = _c4()
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        for s in (0.0, 0.3, 1.0):
            J = rw.intensity(s)
            # uniform marginals: reversal transposes the rate matrix exactly
            assert np.array_equal(J, spec.intensity(0.0).T)
            assert not np.isnan(J).any()
        assert np.array_equal(rw.p_init, spec.p0)

    def test_double_reversal_restores_rates(self):
        spec = _c4()
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        back = reversed_jump_intensities(rw.as_walk_spec(rate_bound=13.0),
                                         walk_marginal_fn(spec), T=1.0)
        for t in (0.0, 0.4, 1.0):
            assert np.array_equal(back.backward_intensity(t), spec.intensity(t))

    def test_backward_indexing(self):
        spec = _c4()
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        assert np.array_equal(rw.backward_intensity(0.3), rw.intensity(0.7))

    def test_nonuniform_marginals_balance_flow(self):
        base = _c4()
        spec = graph_walk(base.adjacency, base.intensity_matrix,
                          np.array([0.7, 0.1, 0.1, 0.1]))
        p = walk_marginal_fn(spec)
        rw = reversed_jump_intensities(spec, p, T=1.0)
        for s in (0.25, 0.75):
            t = 1.0 - s
            pt = p(t)
            J = spec.intensity(t)
            Jr = rw.intensity(s)
            # p(x) j(x,y) = p(y) j_rev(y,x) edge by edge
            assert np.allclose(pt[:, None] * J, (pt[:, None] * Jr).T, atol=1e-14)
        assert np.array_equal(rw.p_init, p(1.0))

    def test_dead_state_is_undefined_not_zero(self):
        # path graph 0-1-2 with one-way rates toward 2 and all mass on 2:
        # nothing ever flows, state mass stays put, and the reversed rates
        # out of the dead states are 0/0
        A = np.array([[False, True, False],
                      [True, False, True],
                      [False, True, False]])
        J = np.array([[0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0]])
        spec = graph_walk(A, J, np.array([0.0, 0.0, 1.0]))
        rw = reversed_jump_intensities(spec, lambda t: spec.p0, T=1.0)
        Jr = rw.intensity(0.5)
        assert np.isnan(Jr[0, 1]) and np.isnan(Jr[1, 0]) and np.isnan(Jr[1, 2])
        # only edges out of dead states are undefined: the live state's
        # outgoing rate is defined (and zero), and non-edges stay zero
        assert np.array_equal(np.isnan(Jr), np.array([[False, True, False],
                                                      [True, False, True],
                                                      [False, False, False]]))
        assert Jr[2, 1] == 0.0
        with pytest.raises(ConsistencyError, match="charged edge"):
            rw.as_walk_spec(rate_bound=5.0).intensity(0.5)

    def test_zero_mass_with_inflow_is_inconsistent(self):
        spec = _c4()
        fake = lambda t: np.array([0.0, 0.5, 0.25, 0.25])  # state 0 starved
        rw = reversed_jump_intensities(spec, fake, T=1.0)
        with pytest.raises(ConsistencyError, match="mass is zero"):
            rw.intensity(0.5)

    def test_parameter_errors(self):
        spec = _c4()
        with pytest.raises(ParameterError):
            reversed_jump_intensities(spec, walk_marginal_fn(spec), T=0.0)
        rw = reversed_jump_intensities(spec, walk_marginal_fn(spec), T=1.0)
        with pytest.raises(ParameterError):
            rw.intensity(1.5)
