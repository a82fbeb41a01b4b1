"""Start the benchmark's child processes from a process that holds little memory.

Linux carries a process's peak resident set size across exec, and a child
started by vfork inherits its parent's peak. A child started straight from
the benchmark, which holds the parsed outputs, would report that peak as
its own. Children started from this small process report their own peak,
floored at this process's ~30 MB.

This process and every child run on one CPU, so the reference program
(reference.py) gauges the CPU the invocations run on.

Protocol: one JSON request per line on stdin,
{"argv": [...], "env": {...}, "stderr": path, "timeout_s": s}; one JSON
reply per line on stdout, {"status", "wall_s", "cpu_s", "peak_rss_kib"}.
The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request):
    with open(request["stderr"], "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"],
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_kib": usage.ru_maxrss}


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
