"""Forward simulation: Euler-Maruyama for diffusions, lockstep jump walks.

Path i draws from the counter-based stream core.path_rng(seed, i), and both
simulators step all paths together with row-wise arithmetic, so path i is a
pure function of (seed, model, grid, i), whatever the number of paths.  The
per-path draw layout is part of the contract: for diffusions, draw 0 feeds
the initial condition and draw k+1 feeds Euler step k; Euler reads the
streams from core.path_streams (one reused generator, the same draws).  For
walks every draw is a uniform u: u_0 picks the initial state, and each jump
takes two, one for its holding time -log1p(-u) / lam_x (by np.log1p) and one
for its target.  The walk reads them by counter: uniform p of path i is word
p mod 4 of Philox block p // 4 + 1 of the stream, which core.philox_uniforms
computes for many paths at once in integer arithmetic.  np.log1p, like the
KDE's np.exp, can round differently in another numpy SIMD build, so walk
paths are byte-identical per build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (JumpPathEnsemble, ParameterError, PathEnsemble, SimulationError,
                   TimeGrid, _check_size, _matvec_rows, path_streams, philox_uniforms)
# unused here; perfbench/tracer.py patches path_rng by name in this module
from .core import path_rng  # noqa: F401
from .models import DiffusionSpec, GraphWalkSpec

# ctmc_simulate refuses a walk whose max_x lam_x T, the expected number of
# jumps of a path held in the fastest state and so about the number of
# lockstep steps, exceeds this.  A step costs about 0.17 ms at a few paths
# (the 4-cycle at lam T = 5000 and 5 paths: 5070 steps in 0.87 s on 2 vCPUs),
# so the bound keeps a walk to seconds; the bundled cycle needs lam T = 3,
# and the fastest digest case 80.
_MAX_RATE_T = 1e4


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


def euler_maruyama(spec: DiffusionSpec, cfg: SimConfig) -> PathEnsemble:
    """Explicit Euler scheme X_{k+1} = X_k + b dt + sigma sqrt(dt) xi_k.

    The drift is always evaluated at the left node, so nothing is ever
    queried at t = T.  Each path's draws fill its row of the output, and
    node k's draws are read before X overwrites them.  All paths step
    together, and a path's bits do not depend on how many others there are:
    every row product, the initial draw's included, goes through
    _matvec_rows, whose row bits do not depend on the batch (a batch of one
    row among them).  A non-finite state is reported at the earliest step
    that has one, at the first path there.
    """
    grid = cfg.grid
    n, d = grid.n_steps, spec.dim
    _check_size((cfg.n_paths, n + 1, d))
    nodes = grid.nodes
    dt = grid.dt
    sq = math.sqrt(dt)

    out = np.empty((cfg.n_paths, n + 1, d))
    for row, rng in zip(out, path_streams(cfg.seed, range(cfg.n_paths))):
        rng.standard_normal(out=row)
    X = spec.init.mean + _matvec_rows(spec.init.factor, out[:, 0])
    out[:, 0] = X
    for k in range(n):
        # X + b dt + noise sqrt(dt) with two fewer temporaries, so that one
        # step over all paths keeps its working set in cache
        noise = _matvec_rows(spec.sigma, out[:, k + 1])
        X = X + spec.drift(nodes[k], X) * dt
        X += np.multiply(noise, sq, out=noise)
        if not np.isfinite(X).all():
            bad = int(np.nonzero(~np.isfinite(X).all(axis=1))[0][0])
            raise SimulationError(f"non-finite state at path {bad}, step {k + 1}")
        out[:, k + 1] = X

    return PathEnsemble(grid, out, cfg.seed, spec.tag)


def _lockstep(seed: int, n_paths: int, cum_p0: np.ndarray, cum: np.ndarray,
              rates: np.ndarray, T: float):
    """Every path moved by one jump per numpy step, from uniforms computed
    for the live paths only, one Philox block at a time.

    Returns the initial states and the (path ids, times, targets) of each
    step's jumps.
    """
    _check_size((n_paths,))
    rows = np.arange(n_paths)
    U = philox_uniforms(seed, rows, 1)
    x = initial = np.searchsorted(cum_p0, U[:, 0], side="right")
    t = np.zeros(n_paths)
    steps = []
    p = -1
    while True:
        p += 2  # jump (p - 1) / 2 takes u_p and u_{p+1}
        lam = rates[x]
        # p is odd, so u_p lies in the block that u_{p-1} began or continued.
        # A state without exit rate absorbs: its holding time is -log1p(-u) / 0,
        # +inf (or nan at u = 0), so the horizon test drops the path
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t + -np.log1p(-U[:, p % 4]) / lam
        go = t <= T
        rows, x, t, lam, U = rows[go], x[go], t[go], lam[go], U[go]
        if not rows.size:
            break
        if (p + 1) % 4 == 0:
            U = philox_uniforms(seed, rows, (p + 1) // 4 + 1)
        # bisect_right on the inf-terminated cumulative row
        y = (cum[x] <= (U[:, (p + 1) % 4] * lam)[:, None]).sum(axis=1)
        steps.append((rows, t, y))
        x = y
    return initial, steps


def ctmc_simulate(spec: GraphWalkSpec, cfg: SimConfig) -> JumpPathEnsemble:
    """Simulate cfg.n_paths paths of the walk, which must have constant
    intensities, on [0, cfg.grid.T] by the direct method, all paths in
    lockstep.  The grid's nodes play no part: jump times are continuous.

    Path i takes u_0 of its stream for the initial state, and jump j takes
    u_{2j+1} for its holding time -log1p(-u) / lam_x and u_{2j+2} for its
    target.  Each step computes, for the paths still live, only the Philox
    block that its uniform enters (core.philox_uniforms), so a path reads as
    many blocks as its jumps reach, and no path depends on the others.  A
    walk with max_x lam_x T above _MAX_RATE_T is refused before it starts.
    """
    T, n_paths, seed = cfg.grid.T, cfg.n_paths, cfg.seed
    rates = spec.exit_rates()
    lam_T = rates.max() * T
    if lam_T > _MAX_RATE_T:
        raise ParameterError(f"max exit rate x horizon is {lam_T:g}, above {_MAX_RATE_T:g}: "
                             "the walk would take about that many lockstep steps")

    initial, steps = _lockstep(seed, n_paths, _search_rows(spec.p0),
                               _search_rows(spec.intensity_matrix), rates, T)
    counts = np.zeros(n_paths, dtype=np.int64)
    for pids, *_ in steps:
        counts[pids] += 1  # a path jumps at most once per step
    offsets = np.concatenate([[0], np.cumsum(counts)])
    times = np.empty(offsets[-1])
    dst = np.empty(offsets[-1], dtype=np.int64)
    for j in range(len(steps)):
        pids, t, y = steps[j]
        steps[j] = None  # freed once placed
        # jump j of path i goes to offsets[i] + j
        pos = offsets[pids] + j
        times[pos], dst[pos] = t, y
    return JumpPathEnsemble(spec.n_states, T, initial, offsets, times, dst, seed)


def _search_rows(w: np.ndarray) -> np.ndarray:
    """Cumulative sums of the weights w along their last axis, inf from each
    row's last positive weight on.  A target draw is scaled by the np.sum
    total, which can exceed the cumsum total by an ulp; a draw at or past
    the cumsum total lands on the row's last state of positive weight, never
    on a zero-weight state after it.  A row without a positive weight ends
    in inf."""
    cum = np.cumsum(w, axis=-1)
    n = w.shape[-1]
    last = n - 1 - np.argmax(w[..., ::-1] > 0, axis=-1)
    cum[np.arange(n) >= np.expand_dims(last, -1)] = math.inf
    return cum
