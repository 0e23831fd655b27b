"""Fingerprint the pathrev command line on a fixed set of cases.

    python3 tools/digests.py [--src DIR]

DIR is a pathrev checkout (default: the one holding this script); its
`src/` goes on PYTHONPATH and its bundled `configs/` feed the cases.  Each
case runs `python3 -m pathrev.cli <command> --config cfg.json --out out
<extra arguments>` in a fresh temporary directory and prints its exit code,
then the sha256 of stdout, of stderr and of every file under `out/` ("out:
absent" when the command created no directory).  A case may first run
setup steps in the same directory, such as a `simulate` whose ensemble the
case reads; their output is not digested.  Two checkouts whose artifacts
should be byte-identical print the same lines.  Only the standard library
is used and pathrev is not imported here, so the script judges any
checkout alike.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

OU_2D = {"type": "ou", "init_mean": [1.0, -0.5], "init_cov": [[0.5, 0.1], [0.1, 0.3]]}
OU_3D = {"type": "ou", "init_mean": [1.0, -0.5, 0.25],
         "init_cov": [[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.4]]}
# BM takes bm's default checks, which leave out the ou-only dissipation;
# CUSTOM has the noise factor sigma = sqrt(2), not the identity
BM = {"type": "bm", "init_mean": [0.5], "init_cov": [[0.4]]}
CUSTOM = {"type": "custom", "dim": 1,
          "drift": {"name": "linear", "matrix": [[-0.5]], "offset": [0.2]},
          "diffusion_matrix": [[2.0]], "init_mean": [0.0], "init_cov": [[1.0]]}
# correlated noise, a = [[2, 1], [1, 2]], and a non-reversible drift
CUSTOM_2D_CORR = {"type": "custom", "dim": 2,
                  "drift": {"name": "linear", "matrix": [[-1.0, 0.5], [-0.5, -1.0]],
                            "offset": [0.2, 0.0]},
                  "diffusion_matrix": [[2.0, 1.0], [1.0, 2.0]],
                  "init_mean": [1.0, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}
# the zero drift: Brownian motion with a = 1/2 from N(0.5, 1)
CUSTOM_ZERO = {"type": "custom", "dim": 1, "drift": {"name": "zero"},
               "diffusion_matrix": [[0.5]], "init_mean": [0.5], "init_cov": [[1.0]]}
# noise on the first coordinate only; the drift carries it to the second
CUSTOM_2D_SINGULAR = {"type": "custom", "dim": 2,
                      "drift": {"name": "linear", "matrix": [[-1.0, 0.0], [1.0, -1.0]]},
                      "diffusion_matrix": [[1.0, 0.0], [0.0, 0.0]],
                      "init_mean": [0.5, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}
# M = -I + J from its invariant law N(0, I/2): stationary, not reversible
ROTATION = {"type": "custom", "dim": 2,
            "drift": {"name": "linear", "matrix": [[-1.0, 1.0], [-1.0, -1.0]]},
            "diffusion_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "init_mean": [0.0, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}


class Case(NamedTuple):
    name: str
    command: str
    cfg: dict
    extra: list[str]
    # (command, config, extra arguments) of each step run before the case
    setup: tuple = ()

    def argvs(self, work: Path) -> list[list[str]]:
        """The pathrev.cli arguments of the setup steps, then of the case,
        with their configs written into the directory work."""
        argvs = []
        for k, (command, cfg, extra) in enumerate(self.setup):
            (work / f"setup{k}.json").write_text(json.dumps(cfg))
            argvs.append([command, "--config", f"setup{k}.json", *extra])
        (work / "cfg.json").write_text(json.dumps(self.cfg))
        return argvs + [[self.command, "--config", "cfg.json", "--out", "out", *self.extra]]


def cases(configs: Path) -> list[Case]:
    """Every case, in the order they run."""
    ou = json.loads((configs / "ou_reversal.json").read_text())
    cycle = json.loads((configs / "cycle_reversal.json").read_text())
    ou_kde = {**ou, "density": "kde"}
    ou2d_kde = {**ou_kde, "model": OU_2D, "n_paths": 200}
    # without "checks" a run takes the default checks of its model type
    default_checks = {k: v for k, v in ou.items() if k != "checks"}
    return [Case(*case) for case in [
        ("ou-run", "run", ou, []),
        ("cycle-run", "run", cycle, []),
        ("cycle-simulate", "simulate", cycle, []),
        # zero-rate edges in the walk's target search
        ("cycle-oneway-simulate", "simulate",
         {**cycle, "model": {**cycle["model"], "rate_ccw": 0.0}}, []),
        # up to about 120 jumps a path: its uniforms span some 60 Philox blocks
        ("fast-cycle-simulate", "simulate",
         {**cycle, "model": {**cycle["model"], "rate_cw": 30.0, "rate_ccw": 10.0},
          "grid": {**cycle["grid"], "T": 2.0}, "n_paths": 3000}, []),
        # a slow walk on a long horizon: jump times with two integer digits
        ("slow-cycle-simulate", "simulate",
         {**cycle, "model": {**cycle["model"], "rate_cw": 0.2, "rate_ccw": 0.1},
          "grid": {**cycle["grid"], "T": 50.0}, "n_paths": 2000}, []),
        ("ou-kde-run-500", "run", {**ou_kde, "n_paths": 500}, []),
        # at another seed the KDE's trust flags come from both bounds on the
        # support floor and from the exact floor
        ("ou-kde-run-500-seed1", "run", {**ou_kde, "n_paths": 500}, ["--seed", "1"]),
        ("ou-kde-reverse-300", "reverse", {**ou_kde, "n_paths": 300}, []),
        ("ou2d-kde-entropy", "entropy", ou2d_kde, []),
        ("ou2d-kde-verify", "verify", ou2d_kde, []),
        ("ou2d-kde-run", "run", ou2d_kde, []),
        # the KDE's per-coordinate accumulation beyond two coordinates
        ("ou3d-kde-entropy", "entropy", {**ou_kde, "model": OU_3D, "n_paths": 200}, []),
        ("bm-run", "run", {**default_checks, "model": BM, "n_paths": 2000}, []),
        ("custom-kde-run", "run", {**default_checks, "model": CUSTOM, "density": "kde",
                                   "n_paths": 300}, []),
        # the same ensemble with the exact flow
        ("custom-exact-run", "run", {**default_checks, "model": CUSTOM, "n_paths": 300}, []),
        # ensemble.csv; rw ibp writes no directory, so its stdout is the digest
        ("ou-simulate-csv", "simulate", {**ou, "n_paths": 200}, ["--format", "csv"]),
        # 4097 = 4096 + 1 paths: Euler once stepped blocks of 4096 paths, and
        # at this seed a last block of one path changed that path's bits;
        # it now steps all paths at once, and the case holds them fixed
        ("ou2d-simulate-4097", "simulate", {**ou, "model": OU_2D, "n_paths": 4097,
                                            "grid": {**ou["grid"], "n_steps": 4},
                                            "seed": 4}, []),
        ("cycle-rw-ibp", "rw", cycle, ["ibp"]),
        # the other rw actions, which also write their artifacts under --out
        ("cycle-rw-reverse", "rw", cycle, ["reverse"]),
        ("cycle-rw-reverse-json", "rw", cycle, ["reverse", "--format", "json"]),
        ("cycle-rw-entropy", "rw", cycle, ["entropy"]),
        # the seed override: a seed other than the config's, echoed in manifest.json
        ("ou-simulate-seed", "simulate", {**ou, "n_paths": 200}, ["--seed", "7"]),
        # the bundled cycle is biased, so detailed balance FAILs: exit 1 by design
        ("cycle-verify-detailed-balance", "verify", cycle, ["detailed-balance"]),
        # a horizon shorter than the default nelson and carre lags
        ("ou-short-run", "run", {**default_checks, "grid": {"T": 0.1, "n_steps": 40}}, []),
        # a config error: exit 2 with one stderr line and no output directory
        ("bad-grid", "run", {**ou, "grid": {**ou["grid"], "n_steps": 0}}, []),
        # an output directory that cannot be created: the appended --out wins
        ("bad-out", "run", cycle, ["--out", ""]),
        ("custom2d-corr-simulate", "simulate",
         {**default_checks, "model": CUSTOM_2D_CORR, "grid": {**ou["grid"], "n_steps": 200},
          "n_paths": 2000, "seed": 11}, []),
        # a diffusion matrix that is not symmetric: exit 2, one stderr line
        ("bad-diffusion-matrix", "simulate",
         {**default_checks,
          "model": {**CUSTOM_2D_CORR, "diffusion_matrix": [[2.0, 1.0], [0.0, 2.0]]}}, []),
        # every diffusion with a positive definite a has the reference N(0, a/2)
        ("bm-entropy", "entropy", {**default_checks, "model": BM, "n_paths": 2000}, []),
        ("rotation-entropy", "entropy",
         {**default_checks, "model": ROTATION, "grid": {**ou["grid"], "n_steps": 100},
          "n_paths": 2000}, []),
        # carre with the off-diagonal entry of a
        ("custom2d-corr-verify-carre", "verify",
         {**default_checks, "model": CUSTOM_2D_CORR, "grid": {**ou["grid"], "n_steps": 200},
          "n_paths": 2000, "seed": 11}, ["carre"]),
        # a KDE fitted to a stored ensemble: another seed on the same grid
        ("ou-kde-file-run", "run",
         {**ou, "density": "kde:heldout/ensemble.bin", "n_paths": 300}, [],
         [("simulate", {**ou, "n_paths": 300, "seed": 5}, ["--out", "heldout"])]),
        ("custom-zero-drift-run", "run",
         {**default_checks, "model": CUSTOM_ZERO, "n_paths": 2000}, []),
        # a 1-d KDE far from 0: from N(1000, 1e-4) the first slices put x c
        # near 1.6e5, where x c - s c cancels and the kernel pass works about
        # the centres of its sample blocks
        ("custom-zero-drift-kde-far-run", "run",
         {**default_checks, "model": {**CUSTOM_ZERO, "init_mean": [1000.0],
                                      "init_cov": [[1e-4]]},
          "density": "kde", "n_paths": 300}, []),
        # a singular a: its noise factor comes from eigenvalues, and without
        # the reference N(0, a/2) run writes no entropy report and entropy exits 2
        ("custom2d-singular-run", "run",
         {**default_checks, "model": CUSTOM_2D_SINGULAR, "n_paths": 2000}, []),
        ("custom2d-singular-entropy", "entropy",
         {**default_checks, "model": CUSTOM_2D_SINGULAR, "n_paths": 2000}, []),
        # an odd n_steps: the coarse trapezoid keeps the last node, a step of h
        ("ou-odd-verify-dissipation", "verify",
         {**ou, "grid": {"T": 1.0, "n_steps": 41}, "n_paths": 200}, ["dissipation"]),
        # a horizon so short that no path jumps: events.csv is its header alone
        ("cycle-nojump-simulate", "simulate",
         {**cycle, "grid": {"T": 1e-6, "n_steps": 1}, "n_paths": 10}, []),
    ]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(src: Path, case: Case) -> list[str]:
    """Lines describing one case: exit code, stream digests, file digests."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    with tempfile.TemporaryDirectory(prefix="pathrev-digests-") as tmp:
        work = Path(tmp)
        for argv in case.argvs(work):
            proc = subprocess.run([sys.executable, "-m", "pathrev.cli", *argv], cwd=work,
                                  env=env, capture_output=True, check=False)
        lines = [f"rc {proc.returncode}", f"stdout {sha256(proc.stdout)}",
                 f"stderr {sha256(proc.stderr)}"]
        out = work / "out"
        if not out.exists():
            return lines + ["out: absent"]
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            lines.append(f"{path.relative_to(out)} {sha256(path.read_bytes())}")
        return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="pathrev checkout to run (its src/ and configs/)")
    args = p.parse_args(argv)
    src = args.src.resolve()
    for case in cases(src / "configs"):
        print(f"== {case.name} ({' '.join([case.command, *case.extra])})", flush=True)
        for line in run_case(src, case):
            print("  " + line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
