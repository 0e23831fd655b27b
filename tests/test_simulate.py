import math

import numpy as np
import pytest

from pathrev import simulate
from pathrev.core import (MatrixField, ParameterError, SimulationError,
                          VectorField, make_grid, path_rng)
from pathrev.models import (Gaussian, biased_cycle_walk, diffusion_spec,
                            graph_walk, ou_diffusion, walk_marginal_fn)
from pathrev.reversal import reversed_jump_intensities
from pathrev.simulate import SimConfig, ctmc_simulate, euler_maruyama


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

    def test_block_size_does_not_change_output(self, monkeypatch):
        cfg = SimConfig(n_paths=50, seed=11, grid=make_grid(1.0, 20))
        a = euler_maruyama(_shifted_ou(), cfg)
        monkeypatch.setattr(simulate, "_BLOCK", 7)
        b = euler_maruyama(_shifted_ou(), cfg)
        assert np.array_equal(a.paths, b.paths)

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_row_block_keeps_its_bits(self, monkeypatch, d):
        # a last block of one path took the initial draw through gemv, which
        # sums in another order than the full block's gemm: at d >= 2 path 4
        # differed from node 0 on in 4 of these 40 seeds
        C = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.4]])[:d, :d]
        spec = ou_diffusion(Gaussian(np.array([1.0, -0.5, 0.25])[:d], C))
        for seed in range(40):
            cfg = SimConfig(n_paths=5, seed=seed, grid=make_grid(1.0, 3))
            a = euler_maruyama(spec, cfg)
            monkeypatch.setattr(simulate, "_BLOCK", 4)
            b = euler_maruyama(spec, cfg)
            monkeypatch.undo()
            assert np.array_equal(a.paths.view(np.uint64), b.paths.view(np.uint64)), seed

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


def _occupation(e, t):
    """Share of the paths in each state at time t; a path is in the state
    its last jump at or before t entered (cadlag)."""
    states = [next((y for s, _, y in reversed(evs) if s <= t), x0)
              for x0, evs in zip(e.initial_states.tolist(), e.events)]
    return np.bincount(states, minlength=e.n_states) / e.n_paths


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
        emp = _occupation(e, 1.0)
        exact = spec.p0 @ expm(spec.generator() * 1.0)
        assert np.abs(emp - exact).sum() <= 0.02

    def test_uniform_start_stays_uniform(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        e = ctmc_simulate(spec, T=1.0, n_paths=20000, seed=112)
        emp = _occupation(e, 0.7)
        se = math.sqrt(0.25 * 0.75 / 20000)
        assert np.abs(emp - 0.25).max() <= 3 * se

    def test_determinism(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        a = ctmc_simulate(spec, T=1.0, n_paths=30, seed=5)
        b = ctmc_simulate(spec, T=1.0, n_paths=30, seed=5)
        assert a.events == b.events
        assert np.array_equal(a.initial_states, b.initial_states)

    def test_refuses_callable_intensities(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        rev = reversed_jump_intensities(spec, walk_marginal_fn(spec), 1.0)
        with pytest.raises(ParameterError, match="walk simulation needs constant intensities"):
            ctmc_simulate(rev.as_walk_spec(rate_bound=13.0), T=1.0, n_paths=10, seed=0)

    def test_parameter_errors(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        with pytest.raises(ParameterError):
            ctmc_simulate(spec, T=0.0, n_paths=10, seed=0)
        with pytest.raises(ParameterError):
            ctmc_simulate(spec, T=1.0, n_paths=0, seed=0)


def _reference_ctmc(spec, T, n_paths, seed):
    """The walk simulation written out on path_rng and np.searchsorted: one
    fresh stream per path, read one uniform at a time in the documented
    layout, and one numpy search per draw."""
    cum_p0 = np.cumsum(spec.p0)
    last = spec.n_states - 1
    initial, all_events = [], []
    for i in range(n_paths):
        rng = path_rng(seed, i)
        x = min(int(np.searchsorted(cum_p0, rng.random(), side="right")), last)
        initial.append(x)
        t, events = 0.0, []
        while True:
            row = spec.intensity_matrix[x]
            lam = row.sum()
            if lam <= 0.0:
                break
            t += -np.log1p(-rng.random()) / lam
            if t > T:
                break
            y = min(int(np.searchsorted(np.cumsum(row), rng.random() * lam,
                                        side="right")), last)
            events.append((float(t), x, y))
            x = y
        all_events.append(tuple(events))
    return initial, tuple(all_events)


def _skewed_walk_with_absorbing_state():
    base = biased_cycle_walk(5, rate_cw=1.5, rate_ccw=0.5)
    J = base.intensity_matrix.copy()
    J[2] = 0.0
    return graph_walk(base.adjacency, J, np.array([0.1, 0.0, 0.2, 0.3, 0.4]))


class TestCtmcMatchesReference:
    """ctmc_simulate moves whole blocks of paths in lockstep; the events must
    equal, float for float, those of the plain per-path loop."""

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
        self._check(_skewed_walk_with_absorbing_state(), 2.0, 8)

    def test_one_way_cycle(self):
        # zero-rate edges: the target search must never land on one
        self._check(biased_cycle_walk(4, rate_cw=2.0, rate_ccw=0.0), 1.0, 9)
        e = ctmc_simulate(biased_cycle_walk(4, rate_cw=2.0, rate_ccw=0.0), T=1.0,
                          n_paths=500, seed=9)
        assert ((e.dst - e.src) % 4 == 1).all()


class TestCtmcLockstep:
    @staticmethod
    def _columns(e):
        return (e.initial_states, e.offsets, e.times, e.src, e.dst)

    @pytest.mark.parametrize("spec", [biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0),
                                      _skewed_walk_with_absorbing_state()],
                             ids=["cycle", "absorbing"])
    def test_block_size_and_redraws_do_not_change_output(self, monkeypatch, spec):
        a = ctmc_simulate(spec, T=2.0, n_paths=300, seed=3)
        monkeypatch.setattr(simulate, "_WALK_BLOCK", 7)
        b = ctmc_simulate(spec, T=2.0, n_paths=300, seed=3)
        # rows of two uniforms: every path that jumps is drawn again, with
        # 4, 8, 16, ... uniforms, until its row reaches past T
        monkeypatch.setattr(simulate, "_jump_cap", lambda mu: 0)
        c = ctmc_simulate(spec, T=2.0, n_paths=300, seed=3)
        assert np.diff(a.offsets).max() > 3
        for x, y, z in zip(self._columns(a), self._columns(b), self._columns(c)):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
            assert np.array_equal(x.view(np.uint64), z.view(np.uint64))

    @pytest.mark.parametrize("mu", [0.0, 0.3, 3.0, 40.0, 2500.0])
    def test_jump_cap_is_the_poisson_tail(self, mu):
        from scipy.stats import poisson

        k = simulate._jump_cap(mu)
        assert poisson.sf(k, mu) < simulate._WALK_TAIL
        assert k == 0 or poisson.sf(k - 1, mu) >= simulate._WALK_TAIL * (1 - 1e-6)


def test_sim_config_validation():
    grid = make_grid(1.0, 4)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=0, seed=0, grid=grid)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=2.5, seed=0, grid=grid)
