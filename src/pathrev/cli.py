"""Command-line surface: reproducible experiments from JSON configs.

Every subcommand reads one config document, validates it strictly (unknown
or repeated keys are rejected at every level), and writes its artifacts into
the output directory.  No timestamps, no environment lookups, no hidden
state: the manifest echoes the effective config plus the Python and numpy
versions, and a rerun of the same config produces byte-identical files.

Each model kind has one run object (`_DiffusionRun`, `_WalkRun`) with one
writer per artifact group, and every check is one entry of `CHECKS`; a
subcommand builds the run, then creates the output directory and selects
the groups it writes.

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 any pathrev error (bad config, bad parameters, a degenerate model) or an
ensemble too large to allocate, reported as one line on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import textwrap
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import (ConfigError, ParameterError, PathrevError, SupportError, TimeGrid,
                   VectorField, _csv_text, _json_text, load_ensemble, make_grid, save_ensemble)
from .density import exact_flow_density, kde_flow
from .entropy import (current_osmosis_decomposition, heat_flow_dissipation,
                      rw_relative_entropy, entropy_vs_counting)
from .models import (Gaussian, ModelBundle, _number, _require_keys, diffusion_spec,
                     load_model, walk_marginal_fn)
from .reversal import BackwardDriftField, reversed_jump_intensities
from .simulate import SimConfig, ctmc_simulate, euler_maruyama
from .verify import (EXACT_ATOL, coordinate_function, continuity_residual,
                     detailed_balance_residual, graph_ibp_residual,
                     ibp_residual, nelson_forward_derivative,
                     carre_du_champ_estimate, two_sample_energy)

_DIFFUSIONS = ("ou", "bm", "custom")
_MODEL_TYPES = _DIFFUSIONS + ("cycle",)
_TOP_KEYS = {"model", "grid", "n_paths", "seed", "density", "checks", "out_dir"}
_GRID_KEYS = {"T", "n_steps"}
_INTENSITY_HEADER = ("from_state", "to_state", "t", "j_fwd", "j_bwd")
# the reversal check's permutation tests reject law equality below this p-value
_REVERSAL_LEVEL = 0.01


def _check_seed(seed: int) -> None:
    """A seed is below 2**63, so the seeds derived from it (seed + 1 for the
    reversed ensemble, seed + 100 + k for the permutation streams) stay
    distinct 64-bit stream keys and a stored ensemble reads its seed back."""
    if not 0 <= seed < 1 << 63:
        raise ConfigError(f"seed must be a nonnegative integer below 2**63, got {seed!r}")


def validate_config(obj: dict) -> dict:
    """Strict schema check; returns the config with defaults filled in."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(obj, _TOP_KEYS, {"model", "grid", "seed"}, "config")

    model = obj["model"]
    if not isinstance(model, dict) or "type" not in model:
        raise ConfigError("model must be an object with a 'type' field")
    mtype = model["type"]
    if mtype not in _MODEL_TYPES:
        raise ConfigError(f"unknown model type {mtype!r}")

    grid = obj["grid"]
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    _require_keys(grid, _GRID_KEYS, _GRID_KEYS, "grid")
    T = _number(grid["T"], "T", float, "grid")
    if T <= 0:
        raise ConfigError(f"grid: T must be positive, got {grid['T']!r}")
    n_steps = _number(grid["n_steps"], "n_steps", int, "grid")
    if n_steps < 1:
        raise ConfigError(f"grid: n_steps must be at least 1, got {n_steps!r}")

    seed = _number(obj["seed"], "seed", int, "config")
    _check_seed(seed)

    n_paths = obj.get("n_paths", 1000 if mtype == "cycle" else None)
    if n_paths is None:
        raise ConfigError("n_paths is required for diffusion models")
    n_paths = _number(n_paths, "n_paths", int, "config")
    if n_paths < 1:
        raise ConfigError(f"config: n_paths must be at least 1, got {n_paths!r}")

    density = obj.get("density", "exact")
    if density not in ("exact", "kde") and not (
            isinstance(density, str) and density.startswith("kde:")):
        raise ConfigError("density must be 'exact', 'kde', or 'kde:<ensemble file>', "
                          f"got {density!r}")
    if mtype == "cycle" and density != "exact":
        raise ConfigError(f"density {density!r} does not apply to a random walk, "
                          "whose marginals are exact")

    checks = obj.get("checks", [name for name, c in CHECKS.items() if mtype in c.defaults])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("checks must be a list of names")
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check name {c!r}; known: {', '.join(CHECKS)}")
        if mtype not in CHECKS[c].kinds:
            raise ConfigError(f"check {c!r} does not apply to model type {mtype!r}")
        if checks.count(c) > 1:
            raise ConfigError(f"check {c!r} is listed more than once")

    out_dir = obj.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir must be a nonempty string")

    return {"model": model, "grid": {"T": T, "n_steps": n_steps},
            "n_paths": n_paths, "seed": seed, "density": density,
            "checks": checks, "out_dir": out_dir}


def load_config(path: str) -> dict:
    def reject_constant(name: str):
        raise ConfigError(f"config {path} is not valid JSON: {name} is not a number")

    def reject_duplicates(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config {path}: key {key!r} appears twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path) as f:
            obj = json.load(f, parse_constant=reject_constant,
                            object_pairs_hook=reject_duplicates)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return validate_config(obj)


class _Artifacts:
    """An output directory, created with its manifest.json."""

    def __init__(self, out_dir: str, cfg: dict):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}")
        self.dir = out_dir
        self.write_json("manifest.json", {
            "config": cfg,
            "package": "pathrev",
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seed": cfg["seed"],
        })

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w") as f:
            f.write(_json_text(obj) + "\n")

    def write_csv(self, name: str, header, columns) -> None:
        """Int or float columns of one shape as CSV (core._csv_text)."""
        with open(self.path(name), "wb") as f:
            f.writelines(_csv_text(header, columns))


def _snap_times(grid: TimeGrid) -> list[tuple[int, float]]:
    """Five representative grid nodes: ends, quarters, middle."""
    n = grid.n_steps
    ks = sorted({0, n // 4, n // 2, (3 * n) // 4, n})
    return [(k, grid.node(k)) for k in ks]


class _Run:
    """What both model kinds share: config, model, grid, the SimConfig both
    simulators take, and the entropy and check writers.  Subclasses add
    `entropy` (the report as a dict) and the forward, paths and reversal writers."""

    def __init__(self, cfg: dict, bundle: ModelBundle):
        self.cfg = cfg
        self.bundle = bundle
        self.grid = make_grid(cfg["grid"]["T"], cfg["grid"]["n_steps"])
        self.sim = SimConfig(cfg["n_paths"], cfg["seed"], self.grid)

    def write_entropy(self, out: _Artifacts) -> None:
        out.write_json("entropy_report.json", self.entropy)

    def write_fisher(self, out: _Artifacts) -> None:
        """Free energy and Fisher information per grid node; walks have none."""

    def write_checks(self, out: _Artifacts) -> dict:
        """Run cfg['checks'], print one PASS/FAIL line each, write the report."""
        reports = {}
        for name in self.cfg["checks"]:
            rep = CHECKS[name].fn(self)
            reports[name] = rep
            print(f"check {name}: {'PASS' if rep['passed'] else 'FAIL'}")
        report = {"checks": reports,
                  "passed": all(bool(rep["passed"]) for rep in reports.values())}
        out.write_json("verify_report.json", report)
        if "dissipation" in reports:
            self.write_fisher(out)
        return report


class _DiffusionRun(_Run):
    """Diffusion state: ensemble, density, reversed drift and probe grid."""

    paths_label = "paths"

    def __init__(self, cfg: dict, bundle: ModelBundle):
        super().__init__(cfg, bundle)
        self.spec = bundle.diffusion
        self.ensemble = euler_maruyama(self.spec, self.sim)
        src = cfg["density"]
        if src == "exact":
            self.density = exact_flow_density(bundle.flow)
        else:
            # "kde" estimates from the run's ensemble, "kde:<file>" from a stored one
            samples = self.ensemble
            if src != "kde":
                path = src[len("kde:"):]
                try:
                    samples = load_ensemble(path)
                except OSError as exc:
                    raise ConfigError(f"cannot read ensemble {path}: {exc}")
                if (samples.dim != self.spec.dim or samples.grid.n_steps != self.grid.n_steps
                        or abs(samples.grid.T - self.grid.T) > EXACT_ATOL):
                    raise ConfigError(f"stored ensemble {path} does not match the config grid")
            self.density = kde_flow(samples, rule="score")
        dim = self.spec.dim
        self.backward = BackwardDriftField(self.spec.drift, self.spec.a,
                                           VectorField.zero(dim), self.density)
        self.reversed_drift = self.backward.reversed(self.grid.T)
        # probe box along the first coordinate: 2 sd + 0.5 around the initial mean
        init = self.spec.init
        self.box = (float(init.mean[0] - 2.0 * np.sqrt(init.cov[0, 0]) - 0.5),
                    float(init.mean[0] + 2.0 * np.sqrt(init.cov[0, 0]) + 0.5))
        self.xs = np.linspace(*self.box, 11)

    @property
    def has_reference(self) -> bool:
        return self.bundle.reference is not None

    def write_paths(self, out: _Artifacts, csv: bool = False) -> None:
        save_ensemble(self.ensemble, out.path("ensemble.bin"))
        if csv:
            # one row per (path, node); meant for small ensembles, the
            # binary container holds large ones
            e = self.ensemble
            shape = e.paths.shape[:2]
            out.write_csv("ensemble.csv", ["path_id", "t", *(f"x{d + 1}" for d in range(e.dim))],
                          [np.broadcast_to(np.arange(e.n_paths)[:, None], shape),
                           np.broadcast_to(self.grid.nodes, shape),
                           *(e.paths[:, :, d] for d in range(e.dim))])

    # the stored ensemble is all `run` keeps of the forward process
    write_forward = write_paths

    def write_reversal(self, out: _Artifacts) -> None:
        """Probe tables (one-dimensional models) and the reversed-model descriptor."""
        times = [t for _, t in _snap_times(self.grid)]
        b_star = None
        if self.spec.dim == 1:
            b_star = [self.reversed_drift(s, self.xs[:, None])[:, 0] for s in times]
            probe = [np.repeat(times, self.xs.size), np.tile(self.xs, len(times))]
            out.write_csv("reversed_probe.csv", ["t", "x", "b_star"],
                          [*probe, np.concatenate(b_star)])
            out.write_csv("density_probe.csv", ["t", "x", "pdf", "score"],
                          [*probe, *self._density_probe(times)])
        out.write_json("reversed_model.json", self._reversed_model(times, b_star))

    def _density_probe(self, times: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """pdf and score on the probe line at each time, on the forward clock.

        Points outside the density's trust region report pdf with a nan score.
        """
        pdf, score = [], []
        for t in times:
            p, sc, ok = self.density.pdf_score_in_support(t, self.xs[:, None])
            pdf.append(p)
            score.append(np.where(ok, sc[:, 0], np.nan))
        return np.concatenate(pdf), np.concatenate(score)

    def _reversed_model(self, times: list[float], b_star) -> dict:
        """Serializable description of the reversed process.

        Gaussian laws at T - s of the model's linear flow make the reversed
        drift affine in x: tabulate the backward drift's A(s) and c(s)
        (BackwardDriftField.affine) at the snapshot times.  KDE densities get
        the pointwise probe table b_star instead (one-dimensional models only).
        """
        base = {"T": self.grid.T, "model": self.cfg["model"], "density": self.cfg["density"],
                "a": self.spec.a.constant_matrix.tolist(), "times": times}
        tables = [self.backward.affine(self.grid.T - s) for s in times]
        if all(table is not None for table in tables):
            base.update({"kind": "reversed_drift_affine",
                         "A": [A.tolist() for A, _ in tables],
                         "c": [c.tolist() for _, c in tables]})
            return base
        base.update({"kind": "reversed_drift_probe", "x": self.xs.tolist(),
                     "b_star": [vals.tolist() for vals in b_star]})
        return base

    @functools.cached_property
    def entropy(self) -> dict:
        """The report against the reference; read only when has_reference,
        which _make_run(entropy=True) makes sure of."""
        return current_osmosis_decomposition(self.spec.drift, self.density,
                                             self.bundle.reference, self.ensemble).to_dict()

    @functools.cached_property
    def heat_flow(self):
        """The FisherReport along the exact flow.  The table holds for any
        model with a reference; its balance is that of the reference
        restarted from P_0, which is the model's flow only for ou, so only
        the ou-only dissipation check judges it."""
        return heat_flow_dissipation(self.bundle.flow, self.bundle.reference.m, self.grid,
                                     self.spec.a.constant_matrix)[0]

    def write_fisher(self, out: _Artifacts) -> None:
        report = self.heat_flow
        out.write_csv("fisher.csv", ["t", "free_energy", "fisher"],
                      [report.times, report.free_energy, report.fisher])


class _WalkRun(_Run):
    """Random-walk state: exact marginals and reversed intensities."""

    paths_label = "jump paths"
    # walk entropy is taken against the counting measure
    has_reference = True

    def __init__(self, cfg: dict, bundle: ModelBundle):
        super().__init__(cfg, bundle)
        self.spec = bundle.walk
        self.marginals = walk_marginal_fn(self.spec)
        self.reversed_walk = reversed_jump_intensities(self.spec, self.marginals,
                                                       self.grid.T)

    @functools.cached_property
    def ensemble(self):
        """The jump paths, simulated on first use: only `simulate` needs them."""
        return ctmc_simulate(self.spec, self.sim)

    def write_paths(self, out: _Artifacts, csv: bool = False) -> None:
        """events.csv, one row per jump; walks have no other path format."""
        e = self.ensemble
        out.write_csv("events.csv", ["path_id", "t", "from_state", "to_state"],
                      [np.arange(e.n_paths).repeat(np.diff(e.offsets)), e.times, e.src, e.dst])

    def write_forward(self, out: _Artifacts) -> None:
        """State occupation probabilities at the snapshot times."""
        times = [t for _, t in _snap_times(self.grid)]
        p = np.array([self.marginals(t) for t in times])
        out.write_csv("marginals.csv", ["t"] + [f"p{i}" for i in range(self.spec.n_states)],
                      [np.array(times), *p.T])

    @functools.cached_property
    def intensity_rows(self) -> list[tuple]:
        """(from, to, t, j_fwd, j_bwd): both intensities on the forward clock."""
        A = self.spec.adjacency
        edges = [(x, y) for x in range(self.spec.n_states)
                 for y in range(self.spec.n_states) if A[x, y]]
        rows = []
        for _, t in _snap_times(self.grid):
            Jf = self.spec.intensity(t)
            Jb = self.reversed_walk.backward_intensity(t)
            rows.extend((x, y, float(t), float(Jf[x, y]), float(Jb[x, y])) for x, y in edges)
        return rows

    def write_reversal(self, out: _Artifacts) -> None:
        out.write_csv("reversed_intensities.csv", _INTENSITY_HEADER, zip(*self.intensity_rows))

    @functools.cached_property
    def entropy(self) -> dict:
        total = rw_relative_entropy(self.spec, self.marginals, self.grid)
        boundary = entropy_vs_counting(self.spec.p0)
        return {"relative_entropy": total, "initial_term": boundary,
                "flux_term": total - boundary}


def _make_run(cfg: dict, walk_only: bool = False, reversal: bool = False,
              entropy: bool = False) -> _Run:
    """The run state for cfg's model kind, built before anything is written.

    reversal is set by commands that write the reversal artifacts; a KDE
    density tabulates those on a probe line, so it needs a one-dimensional
    model.  entropy is set by the command that must write the entropy
    report, which a diffusion without a reference cannot have.  Both are
    refused here, before the ensemble is simulated.
    """
    bundle = load_model(cfg["model"])
    if bundle.walk is not None:
        return _WalkRun(cfg, bundle)
    if walk_only:
        raise ConfigError("rw subcommand needs a random-walk model")
    if reversal and cfg["density"] != "exact" and bundle.dim != 1:
        raise ConfigError("kde probe table requires a one-dimensional model")
    if entropy and bundle.reference is None:
        raise ConfigError("entropy report needs the reversible reference N(0, a/2), "
                          "which a singular diffusion matrix does not have")
    return _DiffusionRun(cfg, bundle)


# ---------------------------------------------------------------- checks
# Each check takes a run and returns a report dict with a "passed" flag.
# reversal and ibp have one body per model kind, chosen by the run's type.

@functools.singledispatch
def _check_ibp(run: _DiffusionRun) -> dict:
    t = run.grid.node(run.grid.n_steps // 2)
    X = run.ensemble.paths[:, run.grid.n_steps // 2, :]
    u = coordinate_function(run.spec.dim)
    rep = ibp_residual(run.spec.drift, run.backward, run.spec.a, X, t, u, u)
    out = rep.to_dict()
    out["t"] = t
    return out


@_check_ibp.register
def _check_ibp_walk(run: _WalkRun) -> dict:
    """graph_ibp_residual on every pair of unit vectors at two times; the
    verdict and tolerance are its own."""
    n = run.spec.n_states
    eye = np.eye(n)
    reps = []
    for t in (0.0, 0.5 * run.grid.T):
        p = run.marginals(t)
        reps += [graph_ibp_residual(run.spec, run.reversed_walk, p, t, u, v)
                 for u in eye for v in eye]
    return {"max_abs_residual": max(abs(rep.estimate) for rep in reps), "pairs": n * n,
            "tolerance": reps[0].atol, "passed": all(rep.passed for rep in reps)}


def _check_continuity(run: _DiffusionRun) -> dict:
    # the time derivative of a per-slice KDE is not meaningful; always probe
    # the exact flow here, and name it in the report, so that a KDE run's
    # verdict does not read as a test of its KDE
    flow = exact_flow_density(run.bundle.flow)
    drift = run.spec.drift
    bwd = BackwardDriftField(drift, run.spec.a, VectorField.zero(run.spec.dim), flow)

    def v_cu(t, X):
        return 0.5 * (drift(t, X) - bwd(t, X))

    lo, hi = run.box
    try:
        rep = continuity_residual(flow, VectorField(v_cu, run.spec.dim), run.grid,
                                  ([lo], [hi]))
    except ParameterError as exc:
        # nothing to probe, as on a horizon under four time stencils: a FAIL,
        # not a bad config
        return {"flow": flow.tag, "passed": False, "reason": str(exc)}
    out = rep.to_dict()
    out["flow"] = flow.tag
    out["passed"] = rep.sup_residual <= 1e-6
    return out


@functools.singledispatch
def _check_reversal(run: _DiffusionRun) -> dict:
    n_cmp = min(5000, run.ensemble.n_paths)
    splits = math.comb(2 * n_cmp, n_cmp)
    if splits < 1 / _REVERSAL_LEVEL:
        # the exact permutation p-value is at least 1 / splits, so with fewer
        # than 1 / level distinct splits of the pooled sample the test
        # could never reject
        return {"n_compare": n_cmp, "passed": False,
                "reason": f"{n_cmp} paths per side give {splits} distinct splits, fewer "
                          f"than 1/{_REVERSAL_LEVEL:g}; the permutation test cannot reject "
                          f"at level {_REVERSAL_LEVEL:g}"}
    init_T = run.density.at(run.grid.T)
    if not isinstance(init_T, Gaussian):
        # the Gaussian with the terminal slice's moments; exact only when the
        # model's terminal law is Gaussian
        XT = run.ensemble.paths[:, -1, :]
        init_T = Gaussian(XT.mean(axis=0), np.atleast_2d(np.cov(XT.T)))
    rev_spec = diffusion_spec(run.reversed_drift, run.spec.a, init_T,
                              tag=run.spec.tag + "~rev")
    rev = euler_maruyama(rev_spec, SimConfig(n_cmp, run.cfg["seed"] + 1, run.grid))
    n = run.grid.n_steps
    slices = {}
    worst = 1.0
    for k, s in _snap_times(run.grid):
        A = rev.paths[:, k, :]
        B = run.ensemble.paths[:n_cmp, n - k, :]
        res = two_sample_energy(A, B, n_perm=199, seed=run.cfg["seed"] + 100 + k)
        slices[f"s={s}"] = {"statistic": res.statistic, "p_value": res.p_value}
        worst = min(worst, res.p_value)
    return {"slices": slices, "min_p_value": worst, "n_compare": n_cmp,
            "passed": worst >= _REVERSAL_LEVEL}


@_check_reversal.register
def _check_reversal_walk(run: _WalkRun) -> dict:
    """Reversing the reversed walk must return the forward intensities.  The
    reversed walk is reversed as it stands; nothing simulates it, so it needs
    no rate bound."""
    T = run.grid.T

    def rev_marginals(s: float) -> np.ndarray:
        return run.marginals(T - s)

    double = reversed_jump_intensities(run.reversed_walk, rev_marginals, T)
    worst = 0.0
    for _, t in _snap_times(run.grid):
        J0 = run.spec.intensity(t)
        # double reversal lands back on the forward clock
        J2 = double.intensity(t)
        mask = run.spec.adjacency & np.isfinite(J2)
        worst = max(worst, float(np.abs(np.where(mask, J0 - J2, 0.0)).max()))
    return {"involution_residual": worst, "tolerance": EXACT_ATOL,
            "passed": worst <= EXACT_ATOL}


def _check_detailed_balance(run: _WalkRun) -> dict:
    m = np.ones(run.spec.n_states)
    res = detailed_balance_residual(m, run.spec)
    return {"residual": res, "reference": "counting", "tolerance": EXACT_ATOL,
            "passed": res <= EXACT_ATOL}


def _check_carre(run: _DiffusionRun) -> dict:
    """Gamma(x1, x1) = a[0, 0] and, from two coordinates on, Gamma(x1, x2) =
    a[0, 1] under "cross"; the check passes when both estimates do."""
    a = run.spec.a.constant_matrix
    expected = float(a[0, 0])
    u = coordinate_function(run.spec.dim)
    n, dt = run.grid.n_steps, run.grid.dt
    k0 = n // 4
    # a lag of about 0.05, at least one step, ending on the grid
    lag = min(max(1, round(0.05 / dt)), n - k0)
    rep = carre_du_champ_estimate(run.ensemble, u, u, k0, k0 + lag, expected, atol=0.1)
    out = rep.to_dict()
    out.update({"t": run.grid.node(k0), "h": lag * dt, "expected": expected,
                "note": (out["note"] + "; " if out["note"] else "")
                + "atol covers the O(h) increment bias"})
    if run.spec.dim > 1:
        cross = carre_du_champ_estimate(run.ensemble, u, coordinate_function(run.spec.dim, 1),
                                        k0, k0 + lag, float(a[0, 1]), atol=0.1)
        out["cross"] = {**cross.to_dict(), "expected": float(a[0, 1])}
        out["passed"] = rep.passed and cross.passed
    return out


def _check_nelson(run: _DiffusionRun) -> dict:
    x0 = run.spec.init.mean
    expected = float(run.spec.drift(0.0, x0[None, :])[0, 0])
    n, dt = run.grid.n_steps, run.grid.dt
    if n < 2:
        return {"expected": expected, "passed": False,
                "reason": "one grid step cannot hold the two lags h < 2h <= T"}
    # lags h and 2h with h about 0.1, at least one step, and 2h <= T
    lag = min(max(1, round(0.1 / dt)), n // 2)
    try:
        est = nelson_forward_derivative(run.ensemble, coordinate_function(run.spec.dim),
                                        0, x0, window=0.2, lag=lag)
    except SupportError as exc:
        # no path starts in the window: a FAIL, not a bad config
        return {"expected": expected, "passed": False, "reason": str(exc)}
    err = abs(est - expected)
    return {"estimate": est, "expected": expected, "abs_error": err,
            "tolerance": 0.1, "passed": err <= 0.1}


def _check_dissipation(run: _DiffusionRun) -> dict:
    """The free-energy balance against its own quadrature error
    (FisherReport.balance), not a fixed tolerance."""
    report = run.heat_flow
    f_diff = float(report.free_energy[-1] - report.free_energy[0])
    return {**report.balance(), "free_energy_change": f_diff}


class _Check(NamedTuple):
    help: str
    kinds: tuple[str, ...]       # model types the check applies to
    defaults: tuple[str, ...]    # model types that run it when a config lists no checks
    fn: Callable[[_Run], dict]


# The default check list of a model type follows this order, and
# manifest.json echoes that list, so reordering changes artifacts.
CHECKS = {
    "reversal": _Check(
        "diffusions: simulate the reversed SDE from the terminal law and compare "
        "against the flipped forward ensemble (energy-distance permutation test "
        "per slice); walks: reverse the reversed intensities and require the "
        "forward rates back exactly",
        _MODEL_TYPES, ("ou", "bm", "cycle"), _check_reversal),
    "ibp": _Check(
        "mean of the generator bracket (L+u + L-u) v + Gamma(u,v) over a marginal "
        "slice; zero for a true forward/backward drift pair",
        _MODEL_TYPES, _MODEL_TYPES, _check_ibp),
    "continuity": _Check(
        "finite-difference residual of d_t rho + div(rho v_cu) = 0 for the current "
        "velocity on a probe box",
        # opt-in for custom, so a custom config without checks keeps its
        # default list, which manifest.json echoes
        _DIFFUSIONS, ("ou", "bm"), _check_continuity),
    # the bundled cycle is biased, hence not reversible; detailed-balance
    # stays opt-in for walks
    "detailed-balance": _Check(
        "max over edges of |m(x) j(x,y) - m(y) j(y,x)| against the counting measure",
        ("cycle",), (), _check_detailed_balance),
    "carre": _Check(
        "product-increment estimate of E Gamma(u,v) at short lag versus its model value",
        _DIFFUSIONS, _DIFFUSIONS, _check_carre),
    "nelson": _Check(
        "windowed forward difference quotient of E[u(X)] near a point versus the "
        "model drift",
        _DIFFUSIONS, _DIFFUSIONS, _check_nelson),
    "dissipation": _Check(
        "free-energy balance along the marginal flow: F change plus twice the "
        "time-integrated Fisher information, Richardson-extrapolated from the "
        "grid and every other node, within its quadrature error estimate",
        ("ou",), ("ou",), _check_dissipation),
}


# ------------------------------------------------------------ subcommands

def cmd_run(cfg: dict, out_dir: str) -> int:
    run = _make_run(cfg, reversal=True)
    # the entropy report first, as under `entropy`: a report refused here
    # (every action non-finite, say) leaves no output directory
    entropy = run.entropy if run.has_reference else None
    out = _Artifacts(out_dir, cfg)
    run.write_forward(out)
    run.write_reversal(out)
    if entropy is not None:
        run.write_entropy(out)
    report = run.write_checks(out)
    print(f"artifacts written to {out_dir}")
    return 0 if report["passed"] else 1


def cmd_simulate(cfg: dict, out_dir: str, fmt: str | None) -> int:
    run = _make_run(cfg)
    # a walk simulates on first use; here, before the output directory
    # exists, so a refused walk leaves none, as a refused diffusion does
    n_paths = run.ensemble.n_paths
    run.write_paths(_Artifacts(out_dir, cfg), csv=fmt == "csv")
    print(f"{n_paths} {run.paths_label} written to {out_dir}")
    return 0


def cmd_reverse(cfg: dict, out_dir: str) -> int:
    run = _make_run(cfg, reversal=True)
    run.write_reversal(_Artifacts(out_dir, cfg))
    print(f"reversal artifacts written to {out_dir}")
    return 0


def cmd_entropy(cfg: dict, out_dir: str) -> int:
    run = _make_run(cfg, entropy=True)
    obj = run.entropy
    out = _Artifacts(out_dir, cfg)
    run.write_entropy(out)
    run.write_fisher(out)
    print(_json_text(obj))
    return 0


def cmd_verify(cfg: dict, out_dir: str, check_names: list[str]) -> int:
    if check_names:
        cfg = validate_config({**cfg, "checks": check_names})
    run = _make_run(cfg)
    report = run.write_checks(_Artifacts(out_dir, cfg))
    print(_json_text(report))
    return 0 if report["passed"] else 1


def cmd_rw(cfg: dict, out_dir: str, action: str, fmt: str) -> int:
    """Print the action's result; with out_dir, also write its artifacts."""
    run = _make_run(cfg, walk_only=True)
    if action == "ibp":
        rep = _check_ibp(run)
        print(_json_text(rep))
        return 0 if rep["passed"] else 1
    if action == "reverse":
        if fmt == "json":
            print(_json_text([dict(zip(_INTENSITY_HEADER, row)) for row in run.intensity_rows]))
        else:
            sys.stdout.write(b"".join(_csv_text(_INTENSITY_HEADER, zip(*run.intensity_rows)))
                             .decode("ascii"))
        write = run.write_reversal
    else:  # "entropy", the last of the parser's choices
        print(_json_text(run.entropy))
        write = run.write_entropy
    if out_dir:
        write(_Artifacts(out_dir, cfg))
    return 0


def _checks_epilog() -> str:
    """One paragraph per check, with the model types it applies to."""
    return "checks:\n" + "".join(
        textwrap.fill(f"{c.help} [{', '.join(c.kinds)}]", 78,
                      initial_indent=f"  {name:<18}", subsequent_indent=" " * 20) + "\n"
        for name, c in CHECKS.items())


def build_parser() -> argparse.ArgumentParser:
    epilog = _checks_epilog()
    parser = argparse.ArgumentParser(
        prog="pathrev",
        description="Simulate Markov diffusions and random walks, reverse them "
                    "in time, and certify the reversal identities numerically.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        # handler(cfg, out_dir, args) looks its cmd_* up in this module when
        # it runs, so a wrapper patched on after import (perfbench/tracer.py)
        # is the one called
        p.set_defaults(handler=handler)

    p = sub.add_parser("run", help="full pipeline: simulate, reverse, entropy, verify")
    common(p, lambda cfg, out_dir, args: cmd_run(cfg, out_dir))
    p = sub.add_parser("simulate", help="generate and store an ensemble")
    common(p, lambda cfg, out_dir, args: cmd_simulate(cfg, out_dir, args.format))
    p.add_argument("--format", choices=("csv",), default=None,
                   help="also write a CSV ensemble with --format csv")
    p = sub.add_parser("reverse", help="reversed drift probe and model descriptor")
    common(p, lambda cfg, out_dir, args: cmd_reverse(cfg, out_dir))
    p = sub.add_parser("entropy", help="entropy report and Fisher table")
    common(p, lambda cfg, out_dir, args: cmd_entropy(cfg, out_dir))
    p = sub.add_parser("verify", help="run named checks", epilog=epilog,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    common(p, lambda cfg, out_dir, args: cmd_verify(cfg, out_dir, list(args.checks)))
    p.add_argument("checks", nargs="*", metavar="check",
                   help="check names (default: the config's list)")
    p = sub.add_parser("rw", help="random-walk actions")
    # rw writes only under --out, never to the config's out_dir
    common(p, lambda cfg, out_dir, args: cmd_rw(cfg, args.out or "", args.action, args.format))
    p.add_argument("action", choices=("reverse", "entropy", "ibp"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # finite but degenerate input (a mean of 1e308, say) overflows on the
        # way to a finiteness check; its error line is the one report, so
        # numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            cfg = load_config(args.config)
            if args.seed is not None:
                _check_seed(args.seed)
                cfg["seed"] = args.seed
            out_dir = args.out if args.out is not None else cfg["out_dir"]
            return args.handler(cfg, out_dir, args)
    except (PathrevError, MemoryError) as exc:
        # "ParameterError" -> "parameter error: ..."; one line, whatever the message.
        # An ensemble too large to allocate is a bad config too, so it exits 2
        # as "memory error: ..." (numpy raises a MemoryError subclass).
        kind = ("memory" if isinstance(exc, MemoryError)
                else type(exc).__name__.removesuffix("Error").lower())
        print(f"{kind} error: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
