"""Fingerprint the pathrev command line on a fixed set of cases.

    python3 tools/digests.py [--src DIR]

DIR is a pathrev checkout (default: the one holding this script); its
`src/` goes on PYTHONPATH and its bundled `configs/` feed the cases.  Each
case runs `python3 -m pathrev.cli <command> --config cfg.json --out out` in
a fresh temporary directory and prints its exit code, then the sha256 of
stdout, of stderr and of every file under `out/` ("out: absent" when the
command created no directory).  Two checkouts whose artifacts should be
byte-identical print the same lines.  Only the standard library is used and
pathrev is not imported here, so the script judges any checkout alike.
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

OU_2D = {"type": "ou", "init_mean": [1.0, -0.5], "init_cov": [[0.5, 0.1], [0.1, 0.3]]}


def cases(configs: Path) -> list[tuple[str, str, dict]]:
    """(name, command, config) for every case, in the order they run."""
    ou = json.loads((configs / "ou_reversal.json").read_text())
    cycle = json.loads((configs / "cycle_reversal.json").read_text())
    ou_kde = {**ou, "density": "kde"}
    ou2d_kde = {**ou_kde, "model": OU_2D, "n_paths": 200}
    return [
        ("ou-run", "run", ou),
        ("cycle-run", "run", cycle),
        ("cycle-simulate", "simulate", cycle),
        ("ou-kde-run-500", "run", {**ou_kde, "n_paths": 500}),
        ("ou-kde-reverse-300", "reverse", {**ou_kde, "n_paths": 300}),
        ("ou2d-kde-entropy", "entropy", ou2d_kde),
        ("ou2d-kde-verify", "verify", ou2d_kde),
        ("ou2d-kde-run", "run", ou2d_kde),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(src: Path, command: str, cfg: dict) -> list[str]:
    """Lines describing one case: exit code, stream digests, file digests."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    with tempfile.TemporaryDirectory(prefix="pathrev-digests-") as tmp:
        work = Path(tmp)
        (work / "cfg.json").write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "pathrev.cli", command, "--config", "cfg.json",
             "--out", "out"], cwd=work, env=env, capture_output=True, check=False)
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
    for name, command, cfg in cases(src / "configs"):
        print(f"== {name} ({command})", flush=True)
        for line in run_case(src, command, cfg):
            print("  " + line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
