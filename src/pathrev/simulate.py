"""Forward simulation: Euler-Maruyama for diffusions, event-driven jump walks.

Path i draws from the counter-based stream core.path_rng(seed, i), taken in
the loops from core.path_streams (one reused generator, the same draws), so
an ensemble is a pure function of (seed, model, grid, n_paths) no matter how
the paths are batched.  The per-path draw layout is part of the contract:
for diffusions, draw 0 feeds the initial condition and draw k+1 feeds Euler
step k; for walks, each path consumes one stream event by event.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, JumpPathEnsemble, ParameterError, PathEnsemble,
                   SimulationError, TimeGrid, path_streams)
# unused here; perfbench/tracer.py patches path_rng by name in this module
from .core import path_rng  # noqa: F401
from .models import DiffusionSpec, GraphWalkSpec


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    seed: int
    grid: TimeGrid

    def __post_init__(self):
        if int(self.n_paths) != self.n_paths or self.n_paths < 1:
            raise ParameterError(f"n_paths must be a positive integer, got {self.n_paths}")
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "seed", int(self.seed))


def euler_maruyama(spec: DiffusionSpec, cfg: SimConfig, block_size: int = 4096) -> PathEnsemble:
    """Explicit Euler scheme X_{k+1} = X_k + b dt + sigma sqrt(dt) xi_k.

    The drift is always evaluated at the left node, so nothing is ever
    queried at t = T.  Paths are processed in blocks purely for memory
    locality; block_size has no effect on the result.
    """
    grid = cfg.grid
    n, d = grid.n_steps, spec.dim
    nodes = grid.nodes
    dt = grid.dt
    sq = math.sqrt(dt)
    spec.validate_sigma(spec.init.mean[None, :])

    const_sigma = spec.sigma.constant_matrix
    init_factor = spec.init.factor
    out = np.empty((cfg.n_paths, n + 1, d))

    for start in range(0, cfg.n_paths, block_size):
        stop = min(start + block_size, cfg.n_paths)
        B = stop - start
        Z = np.empty((B, n + 1, d))
        for j, rng in enumerate(path_streams(cfg.seed, range(start, stop))):
            Z[j] = rng.standard_normal((n + 1, d))
        X = spec.init.mean + Z[:, 0, :] @ init_factor.T
        out[start:stop, 0] = X
        for k in range(n):
            b = spec.drift(nodes[k], X)
            if const_sigma is not None:
                noise = Z[:, k + 1, :] @ const_sigma.T
            else:
                noise = spec.sigma.apply(nodes[k], X, Z[:, k + 1, :])
            X = X + b * dt + noise * sq
            if not np.isfinite(X).all():
                bad = int(np.nonzero(~np.isfinite(X).all(axis=1))[0][0])
                raise SimulationError(
                    f"non-finite state at path {start + bad}, step {k + 1}")
            out[start:stop, k + 1] = X

    return PathEnsemble(grid, out, cfg.seed, spec.tag)


def _cum_list(weights: np.ndarray) -> list[float]:
    """Cumulative sums of weights as a list whose last entry is inf."""
    cum = np.cumsum(weights).tolist()
    cum[-1] = math.inf
    return cum


def ctmc_simulate(spec: GraphWalkSpec, T: float, n_paths: int, seed: int) -> JumpPathEnsemble:
    """Simulate the walk on [0, T].

    Constant intensities use direct exponential waiting times; time-dependent
    intensities use thinning against spec.rate_bound, with a configuration
    error if the realized total rate ever exceeds the bound.
    """
    if not (np.isfinite(T) and T > 0):
        raise ParameterError(f"horizon must be positive, got {T}")
    if int(n_paths) != n_paths or n_paths < 1:
        raise ParameterError(f"n_paths must be a positive integer, got {n_paths}")
    n_paths = int(n_paths)

    # Cumulative sums as Python lists searched with bisect_right: on finite
    # floats the same answers as np.searchsorted(side="right"), without a
    # numpy dispatch per draw.  Each list ends in inf, so a draw at or past
    # the total (roundoff) lands on the last state rather than past it.
    cum_p0 = _cum_list(spec.p0)
    initial = np.empty(n_paths, dtype=np.int64)
    all_events = []

    if spec.is_constant:
        J = spec.intensity_matrix
        rates = J.sum(axis=1).tolist()
        cum_rows = [_cum_list(row) for row in J]
        for i, rng in enumerate(path_streams(seed, range(n_paths))):
            random, exponential = rng.random, rng.exponential
            x = bisect_right(cum_p0, random())
            initial[i] = x
            t = 0.0
            events = []
            while True:
                lam = rates[x]
                if lam <= 0.0:
                    break
                t += exponential(1.0 / lam)
                if t > T:
                    break
                y = bisect_right(cum_rows[x], random() * lam)
                events.append((t, x, y))
                x = y
            all_events.append(tuple(events))
    else:
        bound = spec.rate_bound
        if bound is None or not (bound > 0):
            raise ConfigError("time-dependent walk needs a positive rate_bound")
        for i, rng in enumerate(path_streams(seed, range(n_paths))):
            x = bisect_right(cum_p0, rng.random())
            initial[i] = x
            t = 0.0
            events = []
            while True:
                t += rng.exponential(1.0 / bound)
                if t > T:
                    break
                row = spec.intensity(t)[x]
                lam = row.sum()
                if lam > bound * (1.0 + 1e-12):
                    raise ConfigError(
                        f"total rate {lam} at t={t} exceeds rate_bound {bound}")
                if rng.random() * bound < lam:
                    y = bisect_right(_cum_list(row), rng.random() * lam)
                    events.append((t, x, y))
                    x = y
            all_events.append(tuple(events))

    return JumpPathEnsemble(spec.n_states, T, initial, tuple(all_events), seed, spec.tag)


def jump_states_at(e: JumpPathEnsemble, t: float) -> np.ndarray:
    """Cadlag state of every path at time t, via bisection on event times."""
    if not (0 <= t <= e.T):
        raise ParameterError(f"time {t} outside [0, {e.T}]")
    out = np.array(e.initial_states)
    for i, evs in enumerate(e.events):
        if not evs:
            continue
        times = [ev[0] for ev in evs]
        k = bisect_right(times, t)
        if k > 0:
            out[i] = evs[k - 1][2]
    return out


def marginal_slice(e, t: float):
    """Marginal of an ensemble at time t.

    Diffusion ensembles: t is snapped to the nearest grid node and the
    (n_paths, dim) sample matrix at that node is returned; t = 0 is an exact
    draw of the initial law.  Jump ensembles: returns the normalized state
    histogram at t (cadlag lookup).
    """
    if isinstance(e, PathEnsemble):
        idx = e.grid.index_of(t)
        return np.array(e.paths[:, idx, :])
    if isinstance(e, JumpPathEnsemble):
        states = jump_states_at(e, t)
        return np.bincount(states, minlength=e.n_states) / e.n_paths
    raise ParameterError(f"unsupported ensemble type {type(e).__name__}")
