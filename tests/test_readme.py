"""The README's library example runs as printed.

Its python block is executed in a fresh interpreter with the checkout's
src/ on the path, and must print the value the README's comment quotes.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_two_over_e():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[0.73575888]]\n"
