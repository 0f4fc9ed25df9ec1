"""Starts each measured child and reports its own wall time and rusage.

run.py talks to one long-lived spawner over stdin/stdout, one JSON line per
request and per reply:

    request  {"argv": [...], "env": {...}, "log": path, "timeout_s": s}
    reply    {"rc": int, "wall_s": s, "peak_rss_mb": MB, "cpu_s": s}

Why a separate process: on Linux a child's `ru_maxrss`, as `os.wait4`
returns it, is at least the peak RSS of the process that spawned it, because
the spawner's memory map is what `exec` replaces. run.py grows to hundreds of
MB while it generates and checks bundles, so children spawned from it would
all report its peak. This process stays at a bare interpreter's size, below
any pipeline child, so the reported peak is the child's own.

It imports only the standard modules below, and it exits when its stdin
closes. Children run with the spawner's working directory and with stdin
from /dev/null; their stdout and stderr go to the request's log file.
"""

import json
import os
import signal
import sys
import threading
import time


def run(request: dict) -> dict:
    argv = request["argv"]
    log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log, 1),
            (os.POSIX_SPAWN_DUP2, log, 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    finally:
        os.close(log)
    timer = threading.Timer(request["timeout_s"], os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
