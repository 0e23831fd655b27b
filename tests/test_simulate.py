import math
import warnings

import numpy as np
import pytest

from pathrev import simulate
from pathrev.core import (MatrixField, ParameterError, SimulationError,
                          VectorField, _matvec_rows, make_grid, path_rng)
from pathrev.models import (Gaussian, biased_cycle_walk, diffusion_spec,
                            graph_walk, ou_diffusion, walk_marginal_fn)
from pathrev.reversal import reversed_jump_intensities
from pathrev.simulate import SimConfig, ctmc_simulate, euler_maruyama


def _shifted_ou():
    return ou_diffusion(Gaussian(np.array([1.0]), np.eye(1) * 0.5))


def _correlated_2d():
    """Correlated noise through its Cholesky factor, and a drift with an offset."""
    return diffusion_spec(VectorField.linear([[-1.0, 0.5], [-0.5, -1.0]], [0.2, 0.0]),
                          MatrixField([[2.0, 1.0], [1.0, 2.0]]),
                          Gaussian(np.array([1.0, 0.0]), np.array([[0.5, 0.1], [0.1, 0.3]])))


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

    @pytest.mark.parametrize("spec", [_shifted_ou(), _correlated_2d()],
                             ids=["d1", "d2-correlated"])
    def test_path_does_not_depend_on_the_ensemble_size(self, spec):
        grid = make_grid(1.0, 10)
        a = euler_maruyama(spec, SimConfig(50, 11, grid)).paths.view(np.uint64)
        one = euler_maruyama(spec, SimConfig(1, 11, grid)).paths.view(np.uint64)
        many = euler_maruyama(spec, SimConfig(4097, 11, grid)).paths.view(np.uint64)
        assert np.array_equal(a[:1], one)
        assert np.array_equal(a, many[:50])

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_row_block_keeps_its_bits(self, d):
        # a batch of one row once took the initial draw through gemv, which
        # sums in another order than a larger batch's gemm: at d >= 2 such a
        # path differed from node 0 on in 4 of these 40 seeds
        C = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.4]])[:d, :d]
        spec = ou_diffusion(Gaussian(np.array([1.0, -0.5, 0.25])[:d], C))
        grid = make_grid(1.0, 3)
        for seed in range(40):
            a = euler_maruyama(spec, SimConfig(5, seed, grid))
            b = euler_maruyama(spec, SimConfig(1, seed, grid))
            assert np.array_equal(a.paths[:1].view(np.uint64), b.paths.view(np.uint64)), seed

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
        e = ctmc_simulate(spec, SimConfig(10000, 909, make_grid(7.0, 1)))
        firsts = np.array([ev[0][0] for ev in e.events if ev])
        assert len(firsts) == 10000  # rate 3 on [0,7]: every path jumps
        res = kstest(firsts, "expon", args=(0.0, 1.0 / 3.0))
        assert res.pvalue > 0.01

    def test_marginal_matches_semigroup(self):
        from scipy.linalg import expm

        base = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        spec = graph_walk(base.adjacency, base.intensity_matrix,
                          np.array([1.0, 0.0, 0.0, 0.0]))
        e = ctmc_simulate(spec, SimConfig(20000, 111, make_grid(1.0, 1)))
        emp = _occupation(e, 1.0)
        exact = spec.p0 @ expm(spec.generator() * 1.0)
        assert np.abs(emp - exact).sum() <= 0.02

    def test_uniform_start_stays_uniform(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        e = ctmc_simulate(spec, SimConfig(20000, 112, make_grid(1.0, 1)))
        emp = _occupation(e, 0.7)
        se = math.sqrt(0.25 * 0.75 / 20000)
        assert np.abs(emp - 0.25).max() <= 3 * se

    def test_determinism(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        a = ctmc_simulate(spec, SimConfig(30, 5, make_grid(1.0, 1)))
        b = ctmc_simulate(spec, SimConfig(30, 5, make_grid(1.0, 1)))
        assert a.events == b.events
        assert np.array_equal(a.initial_states, b.initial_states)

    def test_refuses_callable_intensities(self):
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        rev = reversed_jump_intensities(spec, walk_marginal_fn(spec), 1.0)
        with pytest.raises(ParameterError, match="walk needs constant intensities"):
            ctmc_simulate(rev.as_walk_spec(rate_bound=13.0),
                          SimConfig(10, 0, make_grid(1.0, 1)))

    def test_refuses_more_lockstep_steps_than_its_bound(self, monkeypatch):
        # max_x lam_x T, here 3 T, is about the number of lockstep steps
        spec = biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0)
        monkeypatch.setattr(simulate, "_MAX_RATE_T", 6.0)
        assert ctmc_simulate(spec, SimConfig(5, 3, make_grid(2.0, 1))).offsets[-1] > 0
        with pytest.raises(ParameterError, match="lockstep steps"):
            ctmc_simulate(spec, SimConfig(5, 3, make_grid(2.5, 1)))


def _reference_euler(spec, cfg):
    """The Euler scheme written out per path on path_rng: one fresh stream
    per path, its (n_steps + 1, dim) normals drawn at once in the documented
    layout, and one row at a time through the row products."""
    grid = cfg.grid
    n, d = grid.n_steps, spec.dim
    sq = math.sqrt(grid.dt)
    out = np.empty((cfg.n_paths, n + 1, d))
    for i in range(cfg.n_paths):
        Z = path_rng(cfg.seed, i).standard_normal((n + 1, d))
        x = spec.init.mean + _matvec_rows(spec.init.factor, Z[:1])
        out[i, 0] = x
        for k in range(n):
            noise = _matvec_rows(spec.sigma, Z[k + 1:k + 2])
            x = x + spec.drift(grid.nodes[k], x) * grid.dt + noise * sq
            out[i, k + 1] = x
    return out


class TestEulerMatchesReference:
    """euler_maruyama draws each path's normals straight into its output row
    and steps all paths at once; the paths must equal, float for float,
    those of the plain per-path loop."""

    @pytest.mark.parametrize("spec", [_shifted_ou(), _correlated_2d()],
                             ids=["d1", "d2-correlated"])
    def test_float_for_float(self, spec):
        cfg = SimConfig(n_paths=130, seed=5, grid=make_grid(1.0, 25))
        got = euler_maruyama(spec, cfg).paths
        assert np.array_equal(got.view(np.uint64), _reference_euler(spec, cfg).view(np.uint64))


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
        e = ctmc_simulate(spec, SimConfig(500, seed, make_grid(T, 1)))
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
        e = ctmc_simulate(biased_cycle_walk(4, rate_cw=2.0, rate_ccw=0.0),
                          SimConfig(500, 9, make_grid(1.0, 1)))
        assert ((e.dst - e.src) % 4 == 1).all()


class TestCtmcLockstep:
    @pytest.mark.parametrize("spec", [biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0),
                                      _skewed_walk_with_absorbing_state()],
                             ids=["cycle", "absorbing"])
    def test_a_path_does_not_depend_on_the_others(self, spec):
        # the live paths of a lockstep step share one Philox evaluation; a
        # path's jumps are the same with 40 paths as with 300
        a = ctmc_simulate(spec, SimConfig(300, 3, make_grid(2.0, 1)))
        b = ctmc_simulate(spec, SimConfig(40, 3, make_grid(2.0, 1)))
        n = b.offsets[-1]
        assert np.diff(a.offsets).max() > 3
        assert np.array_equal(a.initial_states[:40], b.initial_states)
        assert np.array_equal(a.offsets[:41], b.offsets)
        assert np.array_equal(a.times[:n].view(np.uint64), b.times.view(np.uint64))
        assert np.array_equal(a.src[:n], b.src)
        assert np.array_equal(a.dst[:n], b.dst)

    def test_absorbing_state_warns_nothing(self):
        # at rate 0 the holding time is inf or nan, which the horizon test
        # drops; the division warns nothing outside the CLI's errstate too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = ctmc_simulate(_skewed_walk_with_absorbing_state(),
                              SimConfig(500, 8, make_grid(2.0, 1)))
        assert e.offsets[-1] > 0

    def test_no_jumps_at_all(self):
        # no path jumps before T: the columns are empty, with their dtypes
        e = ctmc_simulate(biased_cycle_walk(4, rate_cw=2.0, rate_ccw=1.0),
                          SimConfig(5, 3, make_grid(1e-9, 1)))
        assert e.offsets.tolist() == [0] * 6
        assert e.times.dtype == np.float64 and e.times.size == 0
        assert e.src.dtype == e.dst.dtype == np.int64 and e.src.size == e.dst.size == 0

    def test_many_blocks_per_path(self):
        # about 80 jumps per path, two uniforms each: a path reads some 40
        # Philox blocks, every one computed for the live paths at once
        spec = biased_cycle_walk(4, rate_cw=30.0, rate_ccw=10.0)
        e = ctmc_simulate(spec, SimConfig(60, 21, make_grid(2.0, 1)))
        initial, events = _reference_ctmc(spec, 2.0, 60, 21)
        assert np.diff(e.offsets).max() > 90
        assert e.initial_states.tolist() == initial
        assert e.events == events


def test_sim_config_validation():
    grid = make_grid(1.0, 4)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=0, seed=0, grid=grid)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=2.5, seed=0, grid=grid)
