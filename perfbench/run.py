#!/usr/bin/env python3
"""Benchmark of the pathrev command line, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

A workload copies a bundled config, sets its size and the seed given here,
and runs one `pathrev` command on it in fresh child processes, one at a
time.  --trace 0 repeats the command until --seconds have passed (at least
twice, so that determinism is checked) and reports end-to-end metrics as
medians over the runs.  --trace 1 runs the command once as is and twice
under perfbench/tracer.py, and reports per-layer self times and counters.
Every run's artifacts pass a correctness gate (perfbench/gates.py) and must
be byte-identical to the first run's.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Without --workload every workload runs and metric names get its prefix.

The package is run from the source tree (PYTHONPATH=src); generated configs
and output directories live in a scratch directory under the repository
root that is removed on exit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
import gates  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work"
DEFAULT_SEED = 20260822   # the seed of the bundled OU config
HELD_OUT_SEED = 1         # not used while the benchmark was written
SETUP_RUNS = 9            # imports timed per run for setup_s, after one warm-up
DEADLINE_S = 165.0        # a workload never runs longer than this
CHILD_TIMEOUT_S = 120.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str                      # bundled config, relative to the repo root
    overrides: dict
    gate: Callable[[Path, dict, int, dict], list]


# Why these three: ou-exact is what users run (Euler with per-path Philox
# streams, exact Gaussian density, entropy report, all six checks, a 64 MB
# binary ensemble); ou-kde spends over 90% of its time in KDE kernel passes
# and almost none in simulation or artifact writing; walk-sim exercises the
# pure-Python jump loop, 10^5 RNG constructions and CSV writing, with no
# density, reversal, entropy or checks.  Each later optimisation has one
# workload that uses its mechanism and one that bypasses it.
WORKLOADS = {
    "ou-exact": Workload("run", "configs/ou_reversal.json", {}, gates.ou_gate),
    "ou-kde": Workload("run", "configs/ou_reversal.json",
                       {"density": "kde", "n_paths": 500}, gates.ou_gate),
    "walk-sim": Workload("simulate", "configs/cycle_reversal.json",
                         {"n_paths": 100000}, gates.walk_gate),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "paths_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# span name -> metric holding the summed self time of those spans
SPAN_METRICS = {
    "cli.command": "cli.self_s",
    "simulate.euler": "simulate.euler_s",
    "simulate.ctmc": "simulate.ctmc_s",
    "core.path_rng": "core.path_rng_s",
    "core.save_ensemble": "core.save_ensemble_s",
    "models.gaussian_at": "models.gaussian_at_s",
    "density.kde_score": "density.kde_score_s",
    "density.kde_logpdf": "density.kde_logpdf_s",
    "density.exact": "density.exact_s",
    "reversal.backward_drift": "reversal.backward_drift_s",
    "entropy.report": "entropy.report_s",
    "entropy.dissipation": "entropy.dissipation_s",
    "verify.energy_test": "verify.energy_test_s",
    "verify.other_checks": "verify.other_checks_s",
}
# counters the tracer records; deterministic for a given seed
COUNT_METRICS = (
    "simulate.euler_path_steps", "simulate.ctmc_jumps", "core.path_rng_calls",
    "models.gaussian_at_calls", "density.kde_kernel_evals", "density.kde_fits",
    "density.in_support_calls", "reversal.backward_drift_points",
    "reversal.floor_hits", "reversal.cap_hits", "verify.energy_permutations",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing or not importable)."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> Child:
    """Run argv to completion through perfbench/launch.py: wall time around
    spawn and reap, CPU time and peak RSS from the command's own rusage."""
    result = log.with_suffix(".rusage.json")
    result.unlink(missing_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(max(timeout, 1.0)), str(result)]
    with open(log, "wb") as out:
        proc = subprocess.Popen(launcher + argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout + 30.0)
        except BaseException:
            proc.terminate()  # the launcher kills the command before it exits
            proc.wait()
            raise
    try:
        return Child(**json.loads(result.read_text()))
    except (OSError, ValueError) as exc:
        raise BenchError(f"launcher failed ({exc!r}): {tail(log)}") from None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = env.get(var, "")
        env[var] = str(min(nproc, int(cur))) if cur.isdigit() and int(cur) > 0 else str(nproc)
    return env


def stamp(seed: int, env: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def digest_dir(path: Path) -> dict[str, tuple[int, str]]:
    out = {}
    if path.is_dir():
        for p in sorted(path.iterdir()):
            h = hashlib.sha256()
            with open(p, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 22), b""):
                    h.update(chunk)
            out[p.name] = (p.stat().st_size, h.hexdigest())
    return out


def tail(path: Path, n: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-n:])
    except OSError:
        return ""


class Session:
    """One workload in one scratch directory, with a hard deadline."""

    def __init__(self, name: str, seed: int, env: dict, work: Path):
        self.name, self.seed, self.env, self.work = name, seed, env, work
        self.wl = WORKLOADS[name]
        self.deadline = time.perf_counter() + DEADLINE_S
        work.mkdir(parents=True)
        with open(ROOT / self.wl.config) as f:
            cfg = json.load(f)
        cfg.update(self.wl.overrides)
        cfg["seed"] = seed
        self.cfg = cfg
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.out = work / "out"
        self.reference: dict | None = None   # digests of the gated first run
        self.reference_problems: list = []
        self.reference_rc: int | None = None
        self.artifact_bytes = 0
        self.runs = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_times(self) -> list[float]:
        argv = [sys.executable, "-c", "import pathrev.cli"]
        log = self.work / "setup.log"
        times = []
        for i in range(SETUP_RUNS + 1):
            c = run_child(argv, self.env, log, min(CHILD_TIMEOUT_S, self.remaining()))
            if c.rc != 0:
                raise BenchError(f"cannot import pathrev.cli: {tail(log)}")
            if i:  # the first import compiles bytecode, which users pay once
                times.append(c.wall_s)
        return times

    def run(self, prefix: list[str]) -> tuple[Child, list[str]]:
        """Run the workload's command once; returns the child and the
        problems that make this run count as failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.runs += 1
        log = self.work / f"run{self.runs}.log"
        argv = prefix + [self.wl.command, "--config", str(self.cfg_path), "--out", str(self.out)]
        child = run_child(argv, self.env, log, min(CHILD_TIMEOUT_S, self.remaining()))
        if child.timed_out:
            return child, ["timed out"]
        digests = digest_dir(self.out)
        if self.reference is None:
            info: dict = {}
            try:
                problems = self.wl.gate(self.out, self.cfg, child.rc, info)
            except Exception as exc:  # any malformed artifact fails the gate
                problems = [f"gate could not read the artifacts: {exc!r}"]
            if problems:
                problems.append(f"exit {child.rc}; output: {tail(log)}")
            self.report_verdicts(info)
            self.reference, self.reference_problems = digests, problems
            self.reference_rc = child.rc
            self.artifact_bytes = sum(size for size, _ in digests.values())
            return child, problems
        if digests != self.reference or child.rc != self.reference_rc:
            differ = sorted(k for k in set(digests) | set(self.reference)
                            if digests.get(k) != self.reference.get(k))
            return child, [f"not byte-identical to the first run (exit {child.rc}, "
                           f"files {differ})"]
        return child, list(self.reference_problems)

    def report_verdicts(self, info: dict) -> None:
        verdicts = info.get("verdicts")
        if verdicts is None:
            return
        print("  verdicts: " + " ".join(f"{k}={'PASS' if v else 'FAIL'}"
                                        for k, v in verdicts.items()))
        expected = gates.expected_fails(self.name, self.seed, DEFAULT_SEED)
        fails = {k for k, v in verdicts.items() if not v}
        if expected is not None and fails != expected:
            print(f"  verdict change: FAIL {sorted(fails)}, recorded {sorted(expected)}")


def summarize(name: str, values: list[float], unit: str) -> None:
    v = sorted(values)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    print(f"  {name:<14} {statistics.median(v):>12.6g} {unit:<5} "
          f"(n={len(v)}, q1={q[0]:.6g}, q3={q[2]:.6g}, min={v[0]:.6g}, max={v[-1]:.6g})")


def note_failure(res: Result, problems: list[str]) -> None:
    res.attempted += 1
    if problems:
        res.failed += 1
        for p in problems:
            print(f"  FAILED: {p}")


def measure(s: Session, seconds: float) -> Result:
    """End-to-end metrics: repeat the command for `seconds`, then medians."""
    res = Result()
    setup = s.setup_times()
    cli = [sys.executable, "-m", "pathrev.cli"]
    children = []
    t0 = time.perf_counter()
    while len(children) < 2 or time.perf_counter() - t0 < seconds:
        if children and s.remaining() < 2.0 * max(c.wall_s for c in children):
            break
        child, problems = s.run(cli)
        children.append(child)
        note_failure(res, problems)
        if child.timed_out:
            break
    values = {"wall_s": [c.wall_s for c in children],
              "cpu_s": [c.cpu_s for c in children],
              "paths_per_s": [s.cfg["n_paths"] / c.wall_s for c in children],
              "peak_rss_mb": [c.rss_mb for c in children],
              "setup_s": setup}
    for key, vals in values.items():
        summarize(key, vals, END_TO_END_UNITS[key])
        res.metrics[key] = (statistics.median(vals), END_TO_END_UNITS[key])
    # throughput at the median wall time: n_paths / wall_s
    res.metrics["paths_per_s"] = (s.cfg["n_paths"] / res.metrics["wall_s"][0], "1/s")
    print(f"  {'error_rate':<14} {res.failed / res.attempted:>12.6g} 1     "
          f"({res.failed} failed of {res.attempted} runs)")
    return res


def self_times(spans: list) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    covered = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out: dict[str, float] = {}
    for (name, t0, t1, _), c in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (t1 - t0 - c)
    return out


def trace(s: Session) -> Result:
    """Per-layer metrics from two traced runs, checked against one untraced."""
    res = Result()
    plain, problems = s.run([sys.executable, "-m", "pathrev.cli"])
    note_failure(res, problems)
    walls, times, counts = [], [], []
    for i in range(2):
        path = s.work / f"trace{i}.json"
        child, problems = s.run([sys.executable, str(HERE / "tracer.py"), str(path)])
        walls.append(child.wall_s)
        if not problems:
            try:
                data = json.loads(path.read_text())
                times.append(self_times(data["spans"]))
                counts.append(data["counts"])
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable trace: {exc!r}"]
        if len(counts) == 2 and counts[0] != counts[1]:
            problems = [f"counters differ between traced runs: "
                        f"{sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))}"]
        note_failure(res, problems)
    if not times:
        times, counts = [{}], [{}]
    for span, metric in SPAN_METRICS.items():
        res.metrics[metric] = (statistics.median(t.get(span, 0.0) for t in times), "s")
    for key in COUNT_METRICS:
        res.metrics[key] = (counts[0].get(key, 0), "count")
    points = res.metrics["reversal.backward_drift_points"][0]
    res.metrics["reversal.floor_hit_ratio"] = (
        res.metrics["reversal.floor_hits"][0] / points if points else 0.0, "ratio")
    res.metrics["cli.artifact_bytes"] = (s.artifact_bytes, "bytes")
    res.metrics["trace.overhead_s"] = (statistics.median(walls) - plain.wall_s, "s")
    print(f"  untraced wall {plain.wall_s:.4f} s, traced wall {walls} s")
    for key, (value, unit) in res.metrics.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"config seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long one workload repeats its command")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    needed = ["src/pathrev/cli.py"] + sorted({WORKLOADS[n].config for n in names})
    missing = [f for f in needed if not (ROOT / f).is_file()]
    if missing:
        print(f"benchmark error: program files missing: {missing}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills its child and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    env = child_env()
    print("env " + json.dumps(stamp(args.seed, env), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    results = {}
    try:
        for name in names:
            print(f"workload {name} seed {args.seed} trace {args.trace}")
            s = Session(name, args.seed, env, work / name)
            results[name] = trace(s) if args.trace else measure(s, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {}
    for name, res in results.items():
        for key, (value, unit) in res.metrics.items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
