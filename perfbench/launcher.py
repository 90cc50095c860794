"""Start benchmark jobs from a small process and report their resource use.

Reads one JSON request per line on standard input, ``{"argv": [...],
"out": PATH, "err": PATH}``, runs that command to completion with its
standard output and error sent to the two files, and answers with one
JSON line: ``{"wall_s": ..., "maxrss_kib": ..., "returncode": ...}``.
Exits when standard input closes.

Jobs are started from here, not from ``run.py``, because Linux counts
the resident memory a child shares with the process that forked it in
the child's ``ru_maxrss``: forked from ``run.py``, which holds the
generated network, a job would report ``run.py``'s size as its own.
"""

import json
import os
import subprocess
import sys
import threading
import time

JOB_TIMEOUT_S = 170.0


def run(argv: list[str], out_path: str, err_path: str) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["out"], request["err"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
