"""Check the CSV float text of pathrev against repr on seeded values.

    python3 tools/float_oracle.py [--count N] [--seed S] [--src DIR]

Draws N doubles (default 2e7) from seed S, in batches of 2^20 and of both
signs: uniform on [0, 1), log-uniform on [1e-4, 1e15), rounded to 1 to 16
decimals (one count a batch, in turn), cumulative sums of exponential
draws, and raw 64-bit patterns, which reach every exponent, subnormals,
infinities and nans.  Each batch goes through `pathrev.core._csv_text` from
DIR's `src/` (default: the checkout holding this script), and every line is
compared with repr(float(v)).  The first mismatch is printed and the exit
code is 1; otherwise one summary line is printed.  Only numpy and the
standard library are used besides pathrev itself.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

BATCH = 1 << 20


def batch(rng: np.random.Generator, k: int) -> np.ndarray:
    """The k-th batch: one family, chosen in turn, with random signs."""
    family = k % 5
    if family == 0:
        x = rng.random(BATCH)
    elif family == 1:
        x = 10.0 ** rng.uniform(-4, 15, BATCH)
    elif family == 2:
        x = np.round(10.0 ** rng.uniform(-4, 15, BATCH), 1 + k // 5 % 16)
    elif family == 3:
        x = np.cumsum(rng.exponential(10.0 ** rng.uniform(-6, 2), BATCH))
    else:
        x = rng.integers(0, 1 << 63, BATCH, dtype=np.int64).view(np.float64)
    return np.where(rng.random(BATCH) < 0.5, -x, x)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--count", type=int, default=20_000_000)
    p.add_argument("--seed", type=int, default=20261020)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from pathrev.core import _csv_text

    rng = np.random.default_rng(args.seed)
    done = 0
    for k in range(-(-args.count // BATCH)):
        x = batch(rng, k)[:args.count - done]
        lines = b"".join(_csv_text(["x"], [x])).decode("ascii").split("\n")[1:-1]
        for v, line in zip(x.tolist(), lines):
            if line != repr(v):
                print(f"mismatch: {v!r} (bits {np.float64(v).view(np.uint64):#018x}) "
                      f"written as {line!r}")
                return 1
        done += x.size
    print(f"{done} values: every line is repr(float(v))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
