import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pathrev import entropy, reversal
from pathrev.core import (DomainError, MatrixField, ParameterError,
                          VectorField, make_grid, mean_stderr)
from pathrev.density import DensityFlow, KdeModel, exact_flow_density, kde_flow
from pathrev.entropy import (ActionEstimate, EntropyReport, _boundary_entropy,
                             current_osmosis_decomposition,
                             entropy_vs_counting, fisher_information,
                             gaussian_relative_entropy,
                             girsanov_action, heat_flow_dissipation,
                             jump_entropy_integrand, rw_relative_entropy)
from pathrev.models import (Gaussian, GaussianFlow, biased_cycle_walk, bm_diffusion,
                            load_model, ou_diffusion, ou_marginal_flow,
                            ou_reference, walk_marginal_fn)
from pathrev.reversal import BackwardDriftField
from pathrev.simulate import SimConfig, euler_maruyama

E_NEG_2 = 0.1353352832366127
F_DROP = -0.43233235838169365  # (e^{-2} - 1) / 2


class TestGaussianRelativeEntropy:
    def test_shifted_against_stationary(self):
        p = Gaussian(np.array([1.0]), np.eye(1) * 0.5)
        r = Gaussian(np.zeros(1), np.eye(1) * 0.5)
        assert gaussian_relative_entropy(p, r) == pytest.approx(1.0, abs=1e-15)

    def test_self_entropy_vanishes(self):
        p = Gaussian(np.array([0.3, -0.2]), np.eye(2) * 0.7)
        assert gaussian_relative_entropy(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_variance_mismatch(self):
        p = Gaussian(np.zeros(1), np.eye(1) * 2.0)
        r = Gaussian(np.zeros(1), np.eye(1))
        expected = 0.5 * (2.0 - 1.0 + math.log(1.0 / 2.0))
        assert gaussian_relative_entropy(p, r) == pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            gaussian_relative_entropy(Gaussian(np.zeros(1), np.eye(1)),
                                      Gaussian(np.zeros(2), np.eye(2)))


class TestGirsanovAction:
    def _bm_ensemble(self, n_steps=256, n_paths=10, seed=1):
        spec = bm_diffusion(Gaussian(np.zeros(1), np.eye(1)))
        return euler_maruyama(spec, SimConfig(n_paths, seed, make_grid(1.0, n_steps)))

    def test_constant_momentum_is_exact(self):
        # |beta|^2/2 = 1/2 along every path; on a dyadic grid the trapezoid
        # rule reproduces 0.5 without rounding, so the spread is exactly zero
        e = self._bm_ensemble()
        est = girsanov_action(VectorField.constant([1.0]), MatrixField.identity(1), e)
        assert est.value == 0.5
        assert est.stderr == 0.0
        assert est.n_paths == 10
        assert est.n_excluded == 0

    def test_nonfinite_paths_are_dropped(self):
        e = self._bm_ensemble(n_steps=64, n_paths=40)
        bad = VectorField(lambda t, X: np.where(X > 0.8, np.nan, 1.0), 1)
        est = girsanov_action(bad, MatrixField.identity(1), e)
        assert est.n_paths + est.n_excluded == 40
        assert est.n_excluded > 0
        assert math.isfinite(est.value)

    def test_all_paths_dropped(self):
        e = self._bm_ensemble(n_steps=16, n_paths=5)
        bad = VectorField(lambda t, X: np.full_like(X, np.nan), 1)
        with pytest.raises(ParameterError):
            girsanov_action(bad, MatrixField.identity(1), e)


@pytest.fixture(scope="module")
def report():
    ref, _ = ou_reference()
    flow = ou_marginal_flow([1.0], [[0.5]])
    spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
    e = euler_maruyama(spec, SimConfig(2000, 42, make_grid(1.0, 400)))
    return current_osmosis_decomposition(ref.drift, exact_flow_density(flow),
                                         ref, e)


class TestCurrentOsmosisDecomposition:
    def test_boundary_terms_closed_form(self, report):
        assert report.boundary_initial == pytest.approx(1.0, abs=1e-14)
        assert report.boundary_terminal == pytest.approx(E_NEG_2, abs=1e-14)
        assert report.boundary_initial_stderr == 0.0
        assert report.boundary_terminal_stderr == 0.0

    def test_forward_action_vanishes(self, report):
        # the forward process is the reference itself
        assert report.action_fwd == 0.0
        assert report.action_fwd_stderr == 0.0
        assert report.total == report.boundary_initial

    def test_backward_route_agrees(self, report):
        assert report.action_bwd == pytest.approx(0.8646665181474632, abs=1e-9)
        assert abs(report.backward_total - report.total) <= 5e-6
        assert abs(report.backward_total - report.total) <= \
            3 * report.backward_total_stderr + 1e-4

    def test_current_equals_osmotic_here(self, report):
        # beta_fwd = 0 makes the half-sum and half-difference mirror images
        assert report.action_current == report.action_osmotic
        assert report.action_current == pytest.approx(0.2161666295368658, abs=1e-9)

    def test_free_energy_split(self, report):
        assert report.free_energy_change == pytest.approx(F_DROP, abs=1e-14)
        co_total = report.free_energy_change + report.current_osmotic_action
        assert abs(co_total) <= 2e-6  # trapezoid bias only

    def test_parallelogram_residual(self, report):
        assert report.parallelogram_residual <= 1e-15

    def test_bookkeeping(self, report):
        assert report.n_paths == 2000
        assert report.n_excluded == 0
        d = report.to_dict()
        assert len(d) == 20
        assert d["backward_total"] == report.backward_total

    def test_mc_boundary_route(self, floored):
        # slice laws that are not Gaussians fall back to slice averages
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0], [[0.5]])
        plain = floored(flow, 1e-12)
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        e = euler_maruyama(spec, SimConfig(2000, 43, make_grid(1.0, 100)))
        rep = current_osmosis_decomposition(ref.drift, plain, ref, e)
        assert rep.boundary_initial_stderr > 0.0
        assert abs(rep.boundary_initial - 1.0) <= 3 * rep.boundary_initial_stderr + 0.01

    @staticmethod
    def _count_drift_queries(monkeypatch):
        calls = []
        query = DensityFlow.pdf_score_in_support

        def counted(self, t, X):
            calls.append(t)
            return query(self, t, X)

        monkeypatch.setattr(DensityFlow, "pdf_score_in_support", counted)
        return calls

    def test_backward_drift_once_per_node(self, monkeypatch):
        # on an exact flow the backward drift is affine and makes no score
        # query; each node's (A, c) is one slice-law query, and the two
        # boundary entropies ask the laws at 0 and T once more
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0], [[0.5]])
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        e = euler_maruyama(spec, SimConfig(50, 3, make_grid(1.0, 16)))
        calls = self._count_drift_queries(monkeypatch)
        laws = []
        at = GaussianFlow.at

        def counted(self, t):
            laws.append(t)
            return at(self, t)

        monkeypatch.setattr(GaussianFlow, "at", counted)
        current_osmosis_decomposition(ref.drift, exact_flow_density(flow), ref, e)
        assert calls == []
        assert laws == [*e.grid.nodes, 0.0, e.grid.T]

    def test_kde_backward_drift_one_fused_pass_per_node(self, monkeypatch):
        # a KDE drift query is one fused logpdf_score pass that yields the
        # score and the trust mask together; besides it, each slice makes one
        # one-row pass for its pdf at the sample mean (a bound of the trust
        # mask), and the two boundary entropies one pdf pass each
        ref, _ = ou_reference()
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        e = euler_maruyama(spec, SimConfig(50, 3, make_grid(1.0, 16)))
        calls = self._count_drift_queries(monkeypatch)
        passes = []
        fused = KdeModel.logpdf_score

        def counted(self, X):
            passes.append(X.shape[0])
            return fused(self, X)

        monkeypatch.setattr(KdeModel, "logpdf_score", counted)
        current_osmosis_decomposition(ref.drift, kde_flow(e), ref, e)
        assert calls == list(e.grid.nodes)
        assert passes == [e.n_paths, 1] * len(calls) + [e.n_paths] * 2

    def test_dimension_mismatch(self):
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0, 0.0], np.eye(2))
        spec = ou_diffusion(Gaussian(np.zeros(2), np.eye(2)))
        e = euler_maruyama(spec, SimConfig(10, 0, make_grid(1.0, 8)))
        with pytest.raises(ParameterError):
            current_osmosis_decomposition(spec.drift, exact_flow_density(flow),
                                          ref, e)


def _left_to_right_trapezoid(y, nodes):
    """Per-path trapezoid integral of a path-major (n_paths, n_nodes) array:
    np.trapezoid's terms, summed over the nodes from left to right."""
    terms = np.diff(nodes) * (y[:, 1:] + y[:, :-1]) / 2.0
    return np.cumsum(terms, axis=1)[:, -1]


def _path_major_integrals(integrands, nodes, drop):
    """Per-path trapezoid integrals of path-major (n_paths, n_nodes) arrays,
    dropping the paths on which any array in drop is non-finite.  Each is
    also checked against np.trapezoid, which sums the same terms pairwise."""
    ok = np.ones(integrands[0].shape[0], dtype=bool)
    for arr in drop:
        ok &= np.isfinite(arr).all(axis=1)
    vals = [_left_to_right_trapezoid(arr[ok], nodes) for arr in integrands]
    for arr, v in zip(integrands, vals):
        pairwise = np.trapezoid(arr[ok], nodes, axis=1)
        assert np.all(np.abs(v - pairwise) <= 1e-13 * np.abs(pairwise))
    return vals, ok


def _path_major_report(drift, density, ref, e):
    """current_osmosis_decomposition written path-major: one strided column
    per node and integrand, and np.linalg.solve on the constant a.  Returns
    the report and the per-path integrals of the four integrands."""
    nodes = e.grid.nodes
    A = ref.a.constant_matrix
    v_bwd = BackwardDriftField(drift, ref.a, ref.div_a, density)
    int_f, int_b, int_c, int_o = (np.empty((e.n_paths, nodes.size)) for _ in range(4))
    for k, t in enumerate(nodes):
        X = e.paths[:, k, :]
        vr = ref.drift(t, X)
        bf = np.linalg.solve(A, (drift(t, X) - vr).T).T
        bb = np.linalg.solve(A, (v_bwd(t, X) - vr).T).T
        int_f[:, k] = 0.5 * ref.a.quad(bf)
        int_b[:, k] = 0.5 * ref.a.quad(bb)
        int_c[:, k] = 0.5 * ref.a.quad(0.5 * (bf - bb))
        int_o[:, k] = 0.5 * ref.a.quad(0.5 * (bf + bb))
    vals, ok = _path_major_integrals((int_f, int_b, int_c, int_o), nodes, (int_f, int_b))
    fwd, bwd, cur, osm = (mean_stderr(v) for v in vals)
    b0, se0 = _boundary_entropy(density, ref, 0.0, e.paths[:, 0, :])
    bT, seT = _boundary_entropy(density, ref, e.grid.T, e.paths[:, -1, :])
    report = EntropyReport(
        b0, bT, fwd[0], bwd[0], cur[0], osm[0], b0 + fwd[0],
        se0, seT, fwd[1], bwd[1], cur[1], osm[1], math.hypot(se0, fwd[1]),
        int(ok.sum()), int((~ok).sum()))
    return report, vals


class TestNodeMajorMatchesPathMajor:
    """The node loop against a path-major left-to-right trapezoid, bit for
    bit, with some paths dropped.  Means can hide ulp-level changes in
    single paths, so the per-path integrals handed to mean_stderr are
    compared too."""

    N_PATHS = 2 * 256 + 3

    @pytest.fixture(scope="class")
    def setup(self):
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0], [[0.5]])
        spec = ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))
        e = euler_maruyama(spec, SimConfig(self.N_PATHS, 11, make_grid(1.0, 40)))
        # a forward drift that is NaN beyond x = 2 drops the paths that go there
        drift = VectorField(lambda t, X: np.where(X > 2.0, np.nan, -X), 1)
        return ref, flow, e, drift

    @staticmethod
    def _record_samples(monkeypatch):
        seen = []

        def recording(vals):
            seen.append(vals.copy())
            return mean_stderr(vals)

        monkeypatch.setattr(entropy, "mean_stderr", recording)
        return seen

    @pytest.mark.parametrize("kind", ["exact", "kde"])
    def test_report_is_identical(self, setup, kind, monkeypatch):
        ref, flow, e, drift = setup
        density = exact_flow_density(flow) if kind == "exact" else kde_flow(e)
        want, want_vals = _path_major_report(drift, density, ref, e)
        seen = self._record_samples(monkeypatch)
        got = current_osmosis_decomposition(drift, density, ref, e)
        assert 0 < want.n_excluded < self.N_PATHS
        assert got.to_dict() == want.to_dict()
        for vals, want_v in zip(seen[:4], want_vals):  # fwd, bwd, current, osmotic
            assert np.array_equal(vals, want_v)

    def test_girsanov_is_identical(self, setup, monkeypatch):
        ref, _, e, drift = setup
        nodes = e.grid.nodes
        integrand = np.empty((e.n_paths, nodes.size))
        for k, t in enumerate(nodes):
            X = e.paths[:, k, :]
            integrand[:, k] = 0.5 * ref.a.quad(drift(t, X))
        [want_vals], ok = _path_major_integrals([integrand], nodes, [integrand])
        seen = self._record_samples(monkeypatch)
        est = girsanov_action(drift, ref.a, e)
        assert 0 < est.n_excluded < self.N_PATHS
        assert est == ActionEstimate(*mean_stderr(want_vals), int(ok.sum()),
                                     int((~ok).sum()))
        assert np.array_equal(seen[0], want_vals)


# x' = -x/2 + 0.2 with a = 2; the bundled OU is too weak a case for the
# closed form, as there beta_fwd = 0 and beta_bwd is constant per node
_CUSTOM_1D = {"type": "custom", "dim": 1,
              "drift": {"name": "linear", "matrix": [[-0.5]], "offset": [0.2]},
              "diffusion_matrix": [[2.0]], "init_mean": [0.0], "init_cov": [[1.0]]}
_BM = {"type": "bm", "init_mean": [0.5], "init_cov": [[0.4]]}
# correlated a and a non-reversible drift with an offset
_CUSTOM_2D_CORR = {"type": "custom", "dim": 2,
                   "drift": {"name": "linear", "matrix": [[-1.0, 0.5], [-0.5, -1.0]],
                             "offset": [0.2, 0.0]},
                   "diffusion_matrix": [[2.0, 1.0], [1.0, 2.0]],
                   "init_mean": [1.0, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}
# M = -I + J from its invariant law N(0, I/2): the osmotic action vanishes
_ROTATION = {"type": "custom", "dim": 2,
             "drift": {"name": "linear", "matrix": [[-1.0, 1.0], [-1.0, -1.0]]},
             "diffusion_matrix": [[1.0, 0.0], [0.0, 1.0]],
             "init_mean": [0.0, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}


class TestClosedFormActions:
    """On an exact flow with linear drifts the report sums quadratics in the
    path values (entropy._affine_actions); the node loop _path_actions is
    its reference, to rounding."""

    MODELS = {"custom": _CUSTOM_1D, "bm": _BM, "custom2d-corr": _CUSTOM_2D_CORR,
              "rotation": _ROTATION}

    @staticmethod
    def _setup(model, n_paths=400, n_steps=50):
        bundle = load_model(model)
        e = euler_maruyama(bundle.diffusion, SimConfig(n_paths, 17, make_grid(1.0, n_steps)))
        return bundle, e

    @staticmethod
    def _report(bundle, e, monkeypatch):
        """The report, the per-path integrals handed to mean_stderr and the
        backward drift fields queried point by point, with their times."""
        seen, queried = [], []

        def recording(vals):
            seen.append(vals.copy())
            return mean_stderr(vals)

        call = BackwardDriftField.__call__

        def counted(self, t, X):
            queried.append((self, t))
            return call(self, t, X)

        with monkeypatch.context() as m:
            m.setattr(entropy, "mean_stderr", recording)
            m.setattr(BackwardDriftField, "__call__", counted)
            rep = current_osmosis_decomposition(bundle.diffusion.drift,
                                                exact_flow_density(bundle.flow),
                                                bundle.reference, e)
        return rep, seen[:4], queried

    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_node_loop(self, name, monkeypatch):
        bundle, e = self._setup(self.MODELS[name])
        got, got_vals, queried = self._report(bundle, e, monkeypatch)
        assert queried == []  # no point query: the closed form ran
        monkeypatch.setattr(entropy, "_affine_actions", lambda *args: None)
        want, want_vals, queried = self._report(bundle, e, monkeypatch)
        assert len(queried) == e.grid.nodes.size
        # an action that vanishes in exact arithmetic (the rotation's
        # osmotic one) is compared on the scale of the others
        scale = max(np.abs(v).max() for v in want_vals)
        for g, w in zip(got_vals, want_vals):
            assert g.shape == w.shape == (e.n_paths,)
            assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(np.abs(w), scale))
        for key in ("action_fwd", "action_bwd", "action_current", "action_osmotic"):
            g, w = getattr(got, key), getattr(want, key)
            assert abs(g - w) <= 1e-12 * max(abs(w), scale), key
        assert (got.n_paths, got.n_excluded) == (want.n_paths, want.n_excluded) == (400, 0)
        assert got.boundary_initial == want.boundary_initial
        assert got.boundary_terminal == want.boundary_terminal

    @pytest.mark.parametrize("name", ["custom", "custom2d-corr"])
    def test_row_block_does_not_change_results(self, name, monkeypatch):
        bundle, e = self._setup(self.MODELS[name], n_paths=2 * 7 + 3, n_steps=20)
        want, want_vals, _ = self._report(bundle, e, monkeypatch)
        for block in (1, 7):
            monkeypatch.setattr(entropy, "_ROW_BLOCK", block)
            got, got_vals, _ = self._report(bundle, e, monkeypatch)
            assert got.to_dict() == want.to_dict()
            for g, w in zip(got_vals, want_vals):
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_cap_sends_the_report_to_the_node_loop(self, monkeypatch):
        # a cap below the largest backward drift on the ensemble could fire,
        # so the closed form declines and the node loop applies the cap
        bundle, e = self._setup(_CUSTOM_1D)
        monkeypatch.setattr(reversal, "_B_MAX", 1.0)
        _, _, queried = self._report(bundle, e, monkeypatch)
        assert [t for _, t in queried] == list(e.grid.nodes)
        (field,) = {f for f, _ in queried}
        assert field.cap_hits > 0


class TestFisherInformation:
    def test_closed_form_value(self):
        ref, _ = ou_reference()
        mu = Gaussian(np.array([1.0]), np.eye(1) * 0.8)
        # A = (2 - 1.25)/2, c = 1: (A^2 * 0.8 + 1)/2 = 0.55625
        assert fisher_information(mu, ref.m, np.eye(1)) == pytest.approx(0.55625, abs=1e-15)

    def test_vanishes_at_equilibrium(self):
        ref, _ = ou_reference()
        assert fisher_information(ref.m, ref.m, np.eye(1)) == pytest.approx(0.0, abs=1e-15)

    def test_scales_with_a(self):
        ref, _ = ou_reference()
        mu = Gaussian(np.array([1.0]), np.eye(1) * 0.8)
        base = fisher_information(mu, ref.m, np.eye(1))
        assert fisher_information(mu, ref.m, 2 * np.eye(1)) == \
            pytest.approx(2 * base, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            fisher_information(Gaussian(np.zeros(2), np.eye(2)),
                               Gaussian(np.zeros(1), np.eye(1)), np.eye(2))


class TestHeatFlowDissipation:
    def test_identity_residual(self):
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0], [[0.5]])
        report, residual = heat_flow_dissipation(flow, ref.m, make_grid(1.0, 400), np.eye(1))
        assert residual <= 1e-5
        assert report.free_energy[-1] - report.free_energy[0] == \
            pytest.approx(F_DROP, abs=1e-14)
        assert report.fisher.min() >= 0.0

    def test_report_holds_every_node(self):
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0], [[0.5]])
        report, _ = heat_flow_dissipation(flow, ref.m, make_grid(1.0, 4), np.eye(1))
        assert report.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert report.free_energy.shape == report.fisher.shape == (5,)
        assert report.free_energy[0] == pytest.approx(0.5, abs=1e-14)

    def test_one_law_per_node(self):
        ref, _ = ou_reference()
        flow = ou_marginal_flow([1.0], [[0.5]])
        asked = []

        class Counted:
            def at(self, t):
                asked.append(t)
                return flow.at(t)

        grid = make_grid(1.0, 4)
        got = heat_flow_dissipation(Counted(), ref.m, grid, np.eye(1))
        assert asked == list(grid.nodes)
        want = heat_flow_dissipation(flow, ref.m, grid, np.eye(1))
        assert got[1] == want[1]
        assert np.array_equal(got[0].fisher, want[0].fisher)

    def test_stationary_flow_is_flat(self):
        ref, flow = ou_reference()
        report, residual = heat_flow_dissipation(flow, ref.m, make_grid(1.0, 50), np.eye(1))
        assert residual <= 1e-14
        assert np.allclose(report.fisher, 0.0, atol=1e-15)
        assert report.balance()["passed"]

    # the bundled start N(1, 1/2), and N(0, 100), whose free energy falls by
    # 42.5: its residual is the trapezoid error, 5.7e-3 at 50 steps; 201 is odd
    @pytest.mark.parametrize("mean, cov, n_steps", [(1.0, 0.5, 400), (0.0, 100.0, 50),
                                                    (0.0, 100.0, 200), (0.0, 100.0, 800),
                                                    (0.0, 100.0, 201)])
    def test_balance_within_its_quadrature_error(self, mean, cov, n_steps):
        ref, _ = ou_reference()
        flow = ou_marginal_flow([mean], [[cov]])
        report, residual = heat_flow_dissipation(flow, ref.m, make_grid(1.0, n_steps),
                                                 np.eye(1))
        bal = report.balance()
        assert bal["passed"] and bal["residual"] == residual
        # pure h^2 error: halving the nodes multiplies it by four
        assert bal["residual_2h"] == pytest.approx(4.0 * bal["residual_h"], rel=1e-2)
        assert bal["extrapolated_residual"] < 1e-2 * abs(bal["residual_h"])
        # a Fisher information 1% off leaves a residual that extrapolation keeps
        off = replace(report, fisher=report.fisher * 1.01).balance()
        assert not off["passed"]
        assert off["extrapolated_residual"] > 10.0 * off["bound"]

    def test_residual_on_every_other_node_keeps_the_last(self):
        report = entropy.FisherReport(np.array([0.0, 1.0, 2.0, 3.0]),
                                      np.array([1.0, 0.0, 0.0, 0.5]),
                                      np.array([1.0, 2.0, 3.0, 4.0]))
        # nodes 0, 2, 3: 2 (1 + 3) / 2 + (3 + 4) / 2 = 7.5; F changes by -0.5
        assert report.residual(2) == -0.5 + 2.0 * 7.5
        assert report.residual() == -0.5 + 2.0 * 7.5
        one = entropy.FisherReport(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                                   np.array([0.5, 0.5]))
        # one step gives no error estimate: only an exact balance passes
        assert one.residual(2) == one.residual() == 0.0 and one.balance()["passed"]


class TestJumpEntropyIntegrand:
    def test_special_points(self):
        assert jump_entropy_integrand(0.0) == 1.0
        assert jump_entropy_integrand(1.0) == 0.0
        assert jump_entropy_integrand(2.0) == pytest.approx(2 * math.log(2) - 1,
                                                            abs=1e-15)
        assert jump_entropy_integrand(-0.5) == math.inf

    def test_scalar_returns_float(self):
        out = jump_entropy_integrand(1.0)
        assert isinstance(out, float)

    def test_vectorized(self):
        out = jump_entropy_integrand(np.array([0.0, 1.0, -1.0, 2.0]))
        assert out.shape == (4,)
        assert out[0] == 1.0 and out[1] == 0.0 and out[2] == math.inf

    def test_convexity_minimum_at_one(self):
        xs = np.linspace(0.1, 3.0, 50)
        vals = jump_entropy_integrand(xs)
        assert vals.min() >= 0.0
        assert vals[np.argmin(np.abs(xs - 1.0))] == vals.min()


class TestEntropyVsCounting:
    def test_uniform_four_states(self):
        assert entropy_vs_counting(np.full(4, 0.25)) == \
            pytest.approx(-math.log(4.0), abs=1e-15)

    def test_point_mass_is_zero(self):
        assert entropy_vs_counting(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_invalid_vectors(self):
        with pytest.raises(ParameterError):
            entropy_vs_counting(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ParameterError):
            entropy_vs_counting(np.array([0.5, 0.2]))


class TestRwRelativeEntropy:
    def test_biased_cycle_frozen_value(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        H = rw_relative_entropy(spec, walk_marginal_fn(spec), make_grid(1.0, 200))
        # -log 4 + (h(2) + h(1)) with h(2) = 2 log 2 - 1 = log 4 - 1
        assert H == -1.0

    def test_unit_rates_leave_only_the_boundary(self):
        spec = biased_cycle_walk(4, rate_cw=1.0, rate_ccw=1.0)
        H = rw_relative_entropy(spec, walk_marginal_fn(spec), make_grid(1.0, 100))
        assert H == pytest.approx(-math.log(4.0), abs=1e-14)

    def test_negative_intensity_is_domain_error(self):
        base = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        J = np.array(base.intensity_matrix)
        J[0, 1] = -2.0
        stub = SimpleNamespace(adjacency=base.adjacency, p0=base.p0,
                               intensity=lambda t: J)
        with pytest.raises(DomainError):
            rw_relative_entropy(stub, lambda t: base.p0, make_grid(1.0, 10))
