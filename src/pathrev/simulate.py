"""Forward simulation: Euler-Maruyama for diffusions, lockstep jump walks.

Path i draws from the counter-based stream core.path_rng(seed, i), taken in
the loops from core.path_streams (one reused generator, the same draws), so
an ensemble is a pure function of (seed, model, grid, n_paths) no matter how
the paths are batched.  The per-path draw layout is part of the contract:
for diffusions, draw 0 feeds the initial condition and draw k+1 feeds Euler
step k.  For walks every draw is a uniform u: u_0 picks the initial state,
and each jump takes two, one for its holding time -log1p(-u) / lam_x (by
np.log1p) and one for its target.  np.log1p, like the KDE's np.exp, can
round differently in another numpy SIMD build, so walk paths are
byte-identical per build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (JumpPathEnsemble, ParameterError, PathEnsemble, SimulationError,
                   TimeGrid, _matvec_rows, path_streams)
# unused here; perfbench/tracer.py patches path_rng by name in this module
from .core import path_rng  # noqa: F401
from .models import DiffusionSpec, GraphWalkSpec

_BLOCK = 4096  # paths per Euler block, for memory locality; no effect on results
_WALK_BLOCK = 8192  # paths per walk block, bounding the uniforms held; no effect on results
_WALK_TAIL = 1e-6  # share of walk paths expected to need a second, longer draw


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
    node k's draws are read before X overwrites them.  Paths are processed
    in blocks of _BLOCK purely for memory locality; the block size has no
    effect on the result, because every row product, the initial draw's
    included, goes through _matvec_rows, whose row bits do not depend on the
    batch (a last block of one row among them).
    """
    grid = cfg.grid
    n, d = grid.n_steps, spec.dim
    nodes = grid.nodes
    dt = grid.dt
    sq = math.sqrt(dt)

    init_factor = spec.init.factor
    out = np.empty((cfg.n_paths, n + 1, d))

    for start in range(0, cfg.n_paths, _BLOCK):
        stop = min(start + _BLOCK, cfg.n_paths)
        for row, rng in zip(out[start:stop], path_streams(cfg.seed, range(start, stop))):
            rng.standard_normal(out=row)
        X = spec.init.mean + _matvec_rows(init_factor, out[start:stop, 0])
        out[start:stop, 0] = X
        for k in range(n):
            b = spec.drift(nodes[k], X)
            noise = _matvec_rows(spec.sigma, out[start:stop, k + 1])
            X = X + b * dt + noise * sq
            if not np.isfinite(X).all():
                bad = int(np.nonzero(~np.isfinite(X).all(axis=1))[0][0])
                raise SimulationError(
                    f"non-finite state at path {start + bad}, step {k + 1}")
            out[start:stop, k + 1] = X

    return PathEnsemble(grid, out, cfg.seed, spec.tag)


def _jump_cap(mu: float) -> int:
    """Smallest k with P(N > k) < _WALK_TAIL for N ~ Poisson(mu).

    By uniformization a walk whose exit rates are at most lam makes at most
    Poisson(lam T) jumps on [0, T] in law, so rows of 2k + 2 uniforms cover
    all but a _WALK_TAIL share of its paths.  The pmf is accumulated in
    logs, so a large mu does not underflow its first terms to a zero sum."""
    k, log_p = 0, -mu
    cdf = math.exp(log_p)
    while 1.0 - cdf >= _WALK_TAIL:
        k += 1
        log_p += math.log(mu / k)
        cdf += math.exp(log_p)
    return k


def _lockstep(U: np.ndarray, cum_p0: np.ndarray, cum: np.ndarray, rates: np.ndarray,
              T: float):
    """One walk path per row of uniforms U, every live path moved by one
    jump per numpy step.

    Returns the initial states, a mask of the rows whose uniforms ran out
    before T, and the (rows, times, src, dst) of each step's jumps; a short
    row's jumps are among them and belong to no path.
    """
    n_u = U.shape[1]
    x = initial = np.searchsorted(cum_p0, U[:, 0], side="right")
    rows, t = np.arange(U.shape[0]), np.zeros(U.shape[0])
    short = np.zeros(U.shape[0], dtype=bool)
    steps = []
    for col in range(1, n_u, 2):
        lam = rates[x]
        go = lam > 0.0  # a state without exit rate absorbs
        rows, x, t, lam = rows[go], x[go], t[go], lam[go]
        t = t + -np.log1p(-U[rows, col]) / lam
        go = t <= T
        rows, x, t, lam = rows[go], x[go], t[go], lam[go]
        if not rows.size:
            break
        if col + 1 == n_u:
            short[rows] = True
            break
        # bisect_right on the inf-terminated cumulative row
        y = (cum[x] <= (U[rows, col + 1] * lam)[:, None]).sum(axis=1)
        steps.append((rows, t, x, y))
        x = y
    return initial, short, steps


def ctmc_simulate(spec: GraphWalkSpec, T: float, n_paths: int, seed: int) -> JumpPathEnsemble:
    """Simulate the walk, which must have constant intensities, on [0, T]
    by the direct method, all paths of a block in lockstep.

    Path i fills one row of uniforms from its stream: u_0 picks the initial
    state, and jump j takes u_{2j+1} for its holding time -log1p(-u) / lam_x
    and u_{2j+2} for its target.  The row length comes from a Poisson tail
    of max lam * T (_jump_cap); a path that runs out is drawn again with
    twice as many uniforms, and a longer row repeats the shorter one's
    prefix, so neither the block size nor the row length changes a path.
    """
    if not spec.is_constant:
        raise ParameterError("walk simulation needs constant intensities")
    if not (np.isfinite(T) and T > 0):
        raise ParameterError(f"horizon must be positive, got {T}")
    if int(n_paths) != n_paths or n_paths < 1:
        raise ParameterError(f"n_paths must be a positive integer, got {n_paths}")
    n_paths = int(n_paths)

    # cumulative sums ending in inf, so a draw at or past the total
    # (roundoff) lands on the last state rather than past it
    cum_p0 = np.cumsum(spec.p0)
    cum_p0[-1] = math.inf
    J = spec.intensity_matrix
    rates = J.sum(axis=1)
    cum = np.cumsum(J, axis=1)
    cum[:, -1] = math.inf
    cap = _jump_cap(float(rates.max()) * T)

    initial = np.empty(n_paths, dtype=np.int64)
    jumps = []  # (path ids, jump number, times, src, dst) of one step
    for start in range(0, n_paths, _WALK_BLOCK):
        todo, k = np.arange(start, min(start + _WALK_BLOCK, n_paths)), cap
        while todo.size:
            U = np.empty((todo.size, 2 * k + 2))
            for row, rng in zip(U, path_streams(seed, todo.tolist())):
                rng.random(out=row)
            x0, short, steps = _lockstep(U, cum_p0, cum, rates, T)
            initial[todo] = x0
            redraw = short.any()
            for j, (rows, t, x, y) in enumerate(steps):
                if redraw:
                    keep = ~short[rows]
                    rows, t, x, y = rows[keep], t[keep], x[keep], y[keep]
                jumps.append((todo[rows], j, t, x, y))
            todo, k = todo[short], 2 * k + 1

    counts = np.zeros(n_paths, dtype=np.int64)
    for pids, *_ in jumps:
        counts[pids] += 1  # a path jumps at most once per step
    offsets = np.concatenate([[0], np.cumsum(counts)])
    times = np.empty(offsets[-1])
    src = np.empty(offsets[-1], dtype=np.int64)
    dst = np.empty(offsets[-1], dtype=np.int64)
    for pids, j, t, x, y in jumps:
        # jump j of path i goes to offsets[i] + j
        pos = offsets[pids] + j
        times[pos], src[pos], dst[pos] = t, x, y
    return JumpPathEnsemble(spec.n_states, T, initial, offsets, times, src, dst, seed)
