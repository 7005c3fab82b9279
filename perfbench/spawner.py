"""Runs stage processes on request and reports their wall time and rusage.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process that
spawned it, because exec records the old address space's high-water mark.
The benchmark process grows while it generates inputs and checks outputs,
so it starts this small helper first and spawns every measured process from
here. Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "log": "path"}``, answered by one JSON line
``{"wall_s", "exit", "utime_s", "stime_s", "maxrss_kb"}``. The helper exits
when stdin closes.
"""

import json
import os
import sys
import time


def spawn(argv, env, log):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log + ".out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, log + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return {
        "wall_s": time.perf_counter() - start,
        "exit": os.waitstatus_to_exitcode(status),
        "utime_s": usage.ru_utime,
        "stime_s": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["env"], request["log"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
