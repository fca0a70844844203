#!/usr/bin/env python3
"""Spawn benchmark children from a small process and report wall time and rusage.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin, ``{"argv": [...], "cwd": ...,
"log": ..., "env": {...}, "timeout": seconds}``, runs the child to completion
with its output in the log file, and answers with one JSON line
``{"wall_s", "exit_code", "peak_rss_mb", "cpu_s"}``. Exits when stdin closes.

Linux folds the memory high-water mark of the process that spawned a child
into the child's ``ru_maxrss``. Spawning from this process, which imports
nothing heavy and holds no benchmark data, keeps that floor at the size of a
bare interpreter instead of the benchmark's own footprint.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run_child(argv, cwd, log_path, env, timeout) -> dict:
    """Run one child; wall time is from spawn to exit, killed after ``timeout``."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(
            request["argv"], request["cwd"], request["log"], request["env"], request["timeout"]
        )
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
