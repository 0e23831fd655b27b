"""The benchmark tracer still finds every name it patches in the package.

perfbench/tracer.py wraps functions and methods by name; a renamed or
deleted patch point makes Tracer().install() raise.  Running the install in
a subprocess keeps its wrappers out of this test session.
"""
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
