"""The benchmark tracer still finds every name it patches in the package.

perfbench/tracer.py wraps functions and methods by name; a renamed or
deleted patch point makes Tracer().install() raise, and a command that
bypassed its cmd_* would record no span.  Running the install in
a subprocess keeps its wrappers out of this test session.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr


# each command on a tiny config: its cli.command span count after main
_COMMANDS_SCRIPT = r"""
import json, sys
from tracer import Tracer
import pathrev.cli as cli

ou, cycle, out = sys.argv[1:4]
tracer = Tracer()
tracer.install()
counts = {}
for i, argv in enumerate([
        ["run", "--config", ou], ["simulate", "--config", ou],
        ["reverse", "--config", ou], ["entropy", "--config", ou],
        ["verify", "--config", ou, "ibp"], ["rw", "--config", cycle, "reverse"],
        ["rw", "--config", cycle, "entropy"], ["rw", "--config", cycle, "ibp"]]):
    del tracer.spans[:]
    rc = cli.main(argv + ["--out", f"{out}/{i}"])
    names = [span[0] for span in tracer.spans]
    counts[" ".join(argv[:1] + argv[3:])] = [rc, names.count("cli.command")]
print(json.dumps(counts))
"""


def test_each_command_records_one_command_span(tmp_path):
    # the parser's handlers reach each cmd_* through the module, so the
    # tracer's wrapper, patched on after import, times every command once
    ou = {"model": {"type": "ou", "init_mean": [1.0], "init_cov": [[0.5]]},
          "grid": {"T": 1.0, "n_steps": 10}, "n_paths": 20, "seed": 5, "checks": ["ibp"]}
    cycle = {"model": {"type": "cycle", "n": 4, "rate_cw": 2.0, "rate_ccw": 1.0},
             "grid": {"T": 1.0, "n_steps": 10}, "n_paths": 20, "seed": 5}
    for name, cfg in (("ou.json", ou), ("cycle.json", cycle)):
        (tmp_path / name).write_text(json.dumps(cfg))
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_SCRIPT, str(tmp_path / "ou.json"),
         str(tmp_path / "cycle.json"), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts == {"run": [0, 1], "simulate": [0, 1], "reverse": [0, 1],
                      "entropy": [0, 1], "verify ibp": [0, 1], "rw reverse": [0, 1],
                      "rw entropy": [0, 1], "rw ibp": [0, 1]}
