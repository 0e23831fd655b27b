"""Run one command and record its exit status, wall time and rusage.

    python perfbench/launch.py <timeout_s> <result.json> <command...>

The benchmark starts every timed command through this small process.  Linux
keeps a process's peak RSS across exec, so a command spawned directly by the
benchmark would report the benchmark's own peak whenever that is larger;
spawned from here, the peak RSS it reports is its own.  The command is
killed after timeout_s, and also when this process receives SIGTERM.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout, result, cmd = float(argv[0]), argv[1], argv[2:]
    killed = threading.Event()
    proc = None

    def kill(*_):
        killed.set()
        if proc is not None:
            proc.kill()

    signal.signal(signal.SIGTERM, kill)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    if killed.is_set():
        proc.kill()
    timer = threading.Timer(timeout, kill)
    timer.start()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as f:
        json.dump({"rc": proc.returncode, "wall_s": wall,
                   "cpu_s": ru.ru_utime + ru.ru_stime,
                   "rss_mb": ru.ru_maxrss / 1024.0,
                   "timed_out": killed.is_set()}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
