"""Start the benchmark's child processes from a small process.

At exec, Linux folds the high-water RSS of the process a child was forked
from into the child's own max-RSS.  Started from the benchmark itself, which
holds numpy, mpmath and the outputs it checks, every child would report at
least the benchmark's peak.  So the benchmark runs this script once and sends
it one JSON job per line:

    {"argv": [...], "cwd": ..., "env": {...}, "stdout": PATH, "stderr": PATH,
     "timeout": SECONDS}

For each job it starts the process, waits for it, and answers with one line:

    {"code": EXIT, "wall_s": SECONDS, "maxrss_kib": KIB}

It exits when its stdin closes.  It imports nothing beyond the standard
library, so its own RSS stays far below any child's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(job["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
