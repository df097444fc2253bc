"""Open-loop file-arrival generator: one process, one thread.

Lands pre-generated chunk files into a job's input directory on a fixed
schedule by one atomic rename each, and never waits for the job. Times
are ``time.monotonic()``, which is shared by every process on the host,
so run.py can time each file from when it was due.

  python3 gen.py PLAN.json LOG.json T0

PLAN.json is a list of ``[staging_path, input_path, due_offset_s,
turns]``; file i is due at T0 + due_offset_s. LOG.json receives one
``{"file", "due", "landed", "turns"}`` record per file.
"""

import json
import os
import sys
import time


def main() -> None:
    plan_path, log_path, t0 = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(plan_path) as fh:
        plan = json.load(fh)
    log = []
    for src, dst, due_offset, turns in plan:
        due = t0 + due_offset
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        os.rename(src, dst)
        log.append({"file": os.path.basename(dst), "due": due, "landed": time.monotonic(), "turns": turns})
    with open(log_path + ".tmp", "w") as fh:
        json.dump(log, fh)
    os.replace(log_path + ".tmp", log_path)


if __name__ == "__main__":
    main()
