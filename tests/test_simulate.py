import math

import numpy as np
import pytest

from pathrev.core import (ConfigError, JumpPathEnsemble, MatrixField,
                          ParameterError, SimulationError, VectorField,
                          make_grid, path_rng)
from pathrev.models import (Gaussian, biased_cycle_walk, bm_diffusion,
                            diffusion_spec, graph_walk, ou_diffusion)
from pathrev.simulate import (SimConfig, ctmc_simulate, euler_maruyama,
                              jump_states_at, marginal_slice)


def _shifted_ou():
    return ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))


class TestEulerMaruyama:
    def test_terminal_mean(self):
        cfg = SimConfig(n_paths=5000, seed=2121, grid=make_grid(1.0, 400))
        e = euler_maruyama(_shifted_ou(), cfg)
        xT = e.paths[:, -1, 0]
        se = xT.std(ddof=1) / math.sqrt(len(xT))
        assert abs(xT.mean() - math.exp(-1.0)) <= 3 * se

    def test_deterministic(self):
        cfg = SimConfig(n_paths=50, seed=11, grid=make_grid(1.0, 20))
        a = euler_maruyama(_shifted_ou(), cfg)
        b = euler_maruyama(_shifted_ou(), cfg)
        assert np.array_equal(a.paths, b.paths)

    def test_block_size_does_not_change_output(self):
        cfg = SimConfig(n_paths=50, seed=11, grid=make_grid(1.0, 20))
        a = euler_maruyama(_shifted_ou(), cfg)
        b = euler_maruyama(_shifted_ou(), cfg, block_size=7)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_output(self):
        grid = make_grid(1.0, 20)
        a = euler_maruyama(_shifted_ou(), SimConfig(50, 11, grid))
        b = euler_maruyama(_shifted_ou(), SimConfig(50, 12, grid))
        assert not np.array_equal(a.paths, b.paths)

    def test_blowup_is_reported_with_location(self):
        spec = diffusion_spec(
            VectorField(lambda t, X: np.full_like(X, np.inf), 1),
            MatrixField.identity(1),
            Gaussian(np.zeros(1), np.eye(1)),
        )
        cfg = SimConfig(n_paths=3, seed=0, grid=make_grid(1.0, 4))
        with pytest.raises(SimulationError, match=r"path 0, step 1"):
            euler_maruyama(spec, cfg)

    def test_strong_order_one_for_additive_noise(self):
        # couple the scheme to the exact OU transition driven by the same
        # normals; halving dt should halve the strong error
        spec = ou_diffusion(Gaussian(np.zeros(1), np.eye(1)))
        seed, n_paths = 717, 4000
        errs = {}
        for n_steps in (50, 100):
            grid = make_grid(1.0, n_steps)
            e = euler_maruyama(spec, SimConfig(n_paths, seed, grid))
            dt = grid.dt
            decay = math.exp(-dt)
            noise_sd = math.sqrt((1.0 - math.exp(-2.0 * dt)) / 2.0)
            gap = np.empty(n_paths)
            for pid in range(n_paths):
                Z = path_rng(seed, pid).standard_normal((n_steps + 1, 1))
                x = e.paths[pid, 0, 0]
                for k in range(n_steps):
                    x = decay * x + noise_sd * Z[k + 1, 0]
                gap[pid] = e.paths[pid, -1, 0] - x
            errs[n_steps] = math.sqrt(np.mean(gap ** 2))
        ratio = errs[50] / errs[100]
        assert 1.6 <= ratio <= 2.6


class TestCtmcSimulate:
    def test_exponential_holding_times(self):
        from scipy.stats import kstest

        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        e = ctmc_simulate(spec, T=7.0, n_paths=10000, seed=909)
        firsts = np.array([ev[0][0] for ev in e.events if ev])
        assert len(firsts) == 10000  # rate 3 on [0,7]: every path jumps
        res = kstest(firsts, "expon", args=(0.0, 1.0 / 3.0))
        assert res.pvalue > 0.01

    def test_marginal_matches_semigroup(self):
        from scipy.linalg import expm

        base = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        spec = graph_walk(base.adjacency, base.intensity_matrix,
                          np.array([1.0, 0.0, 0.0, 0.0]))
        e = ctmc_simulate(spec, T=1.0, n_paths=20000, seed=111)
        emp = marginal_slice(e, 1.0)
        exact = spec.p0 @ expm(spec.generator(0.0) * 1.0)
        assert np.abs(emp - exact).sum() <= 0.02

    def test_uniform_start_stays_uniform(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        e = ctmc_simulate(spec, T=1.0, n_paths=20000, seed=112)
        emp = marginal_slice(e, 0.7)
        se = math.sqrt(0.25 * 0.75 / 20000)
        assert np.abs(emp - 0.25).max() <= 3 * se

    def test_determinism(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        a = ctmc_simulate(spec, T=1.0, n_paths=30, seed=5)
        b = ctmc_simulate(spec, T=1.0, n_paths=30, seed=5)
        assert a.events == b.events
        assert np.array_equal(a.initial_states, b.initial_states)

    def test_thinning_requires_honest_bound(self):
        base = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        fn = lambda t: (1.0 + t) * base.intensity_matrix
        spec = graph_walk(base.adjacency, fn, base.p0, rate_bound=3.0)
        with pytest.raises(ConfigError):
            ctmc_simulate(spec, T=1.0, n_paths=10, seed=0)

    def test_thinning_route(self):
        base = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        fn = lambda t: (1.0 + t) * base.intensity_matrix
        spec = graph_walk(base.adjacency, fn, base.p0, rate_bound=7.0)
        e = ctmc_simulate(spec, T=1.0, n_paths=5000, seed=77)
        emp = marginal_slice(e, 1.0)
        assert np.abs(emp - 0.25).max() <= 0.03

    def test_parameter_errors(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        with pytest.raises(ParameterError):
            ctmc_simulate(spec, T=0.0, n_paths=10, seed=0)
        with pytest.raises(ParameterError):
            ctmc_simulate(spec, T=1.0, n_paths=0, seed=0)


def _reference_ctmc(spec, T, n_paths, seed):
    """The walk simulation written out on path_rng and np.searchsorted:
    one fresh stream per path and one numpy search per draw."""
    cum_p0 = np.cumsum(spec.p0)
    last = spec.n_states - 1
    initial, all_events = [], []
    for i in range(n_paths):
        rng = path_rng(seed, i)
        x = min(int(np.searchsorted(cum_p0, rng.random(), side="right")), last)
        initial.append(x)
        t, events = 0.0, []
        while True:
            if spec.is_constant:
                row = spec.intensity_matrix[x]
                lam = row.sum()
                if lam <= 0.0:
                    break
                t += rng.exponential(1.0 / lam)
                if t > T:
                    break
            else:
                t += rng.exponential(1.0 / spec.rate_bound)
                if t > T:
                    break
                row = spec.intensity(t)[x]
                lam = row.sum()
                if not rng.random() * spec.rate_bound < lam:
                    continue
            y = min(int(np.searchsorted(np.cumsum(row), rng.random() * lam,
                                        side="right")), last)
            events.append((t, x, y))
            x = y
        all_events.append(tuple(events))
    return initial, tuple(all_events)


class TestCtmcMatchesReference:
    """ctmc_simulate draws from reused streams and searches Python lists; the
    events must equal, float for float, those of the plain loop."""

    @staticmethod
    def _check(spec, T, seed):
        e = ctmc_simulate(spec, T=T, n_paths=500, seed=seed)
        initial, events = _reference_ctmc(spec, T, 500, seed)
        assert e.initial_states.tolist() == initial
        assert e.events == events
        assert sum(map(len, events)) > 500

    def test_constant_rates(self):
        self._check(biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0), 1.0, 7)

    def test_constant_rates_absorbing_state_and_skewed_start(self):
        base = biased_cycle_walk(5, rate_cw=1.5, rate_ccw=0.5)
        J = base.intensity_matrix.copy()
        J[2] = 0.0
        spec = graph_walk(base.adjacency, J, np.array([0.1, 0.0, 0.2, 0.3, 0.4]))
        self._check(spec, 2.0, 8)

    def test_thinning(self):
        base = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        fn = lambda t: (1.0 + t) * base.intensity_matrix
        self._check(graph_walk(base.adjacency, fn, base.p0, rate_bound=7.0), 1.0, 77)


class TestSliceHelpers:
    def test_jump_states_at_cadlag(self):
        chain = JumpPathEnsemble(4, 1.0, [0],
                                 (((0.25, 0, 1), (0.5, 1, 2)),), 0)
        assert jump_states_at(chain, 0.0)[0] == 0
        assert jump_states_at(chain, 0.25)[0] == 1  # new state at the jump time
        assert jump_states_at(chain, 0.4999)[0] == 1
        assert jump_states_at(chain, 1.0)[0] == 2
        with pytest.raises(ParameterError):
            jump_states_at(chain, 1.5)

    def test_jump_marginal_is_histogram(self):
        chain = JumpPathEnsemble(3, 1.0, [0, 1],
                                 (((0.5, 0, 1),), ()), 0)
        p = marginal_slice(chain, 0.75)
        assert np.array_equal(p, np.array([0.0, 1.0, 0.0]))

    def test_marginal_slice_diffusion_snaps(self):
        spec = bm_diffusion(Gaussian(np.zeros(1), np.eye(1)))
        cfg = SimConfig(n_paths=4, seed=0, grid=make_grid(1.0, 10))
        e = euler_maruyama(spec, cfg)
        sl = marginal_slice(e, 0.301)  # snaps to node 3
        assert sl.shape == (4, 1)
        assert np.array_equal(sl, e.paths[:, 3, :])

    def test_marginal_slice_rejects_junk(self):
        with pytest.raises(ParameterError):
            marginal_slice("not an ensemble", 0.0)


def test_sim_config_validation():
    grid = make_grid(1.0, 4)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=0, seed=0, grid=grid)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=2.5, seed=0, grid=grid)
