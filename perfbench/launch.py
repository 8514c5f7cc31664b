"""Run the benchmark's child processes from a process that stays small.

A child's ru_maxrss starts from the memory of the process that forked it, so
run.py, which holds traces and numpy arrays, does not fork them itself: it
starts this script once and sends it one JSON request a line on stdin,

    {"argv": [...], "cwd": "...", "env": {...}, "log": "path"}

This script runs each request to completion, with stdout and stderr going to
the log, and answers with one JSON line on stdout:

    {"seconds": wall time, "rss_mb": peak RSS, "code": exit code}

It exits when stdin closes. On SIGTERM it kills the running child, waits for
it and exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(req: dict) -> dict:
    with open(req["log"], "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
