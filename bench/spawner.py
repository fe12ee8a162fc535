"""Starts the benchmark's child processes from a small interpreter.

On Linux the peak RSS that `wait4` reports for a child includes the
high-water mark of the process it was spawned from, which exec carries
over.  Spawned from the benchmark itself, every child would report at least
the benchmark's own memory, so the benchmark starts this small process once
and has it spawn, time and reap each child instead.

Protocol: one JSON request per line on stdin,
  {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds},
one JSON reply per line on stdout,
  {"code": exit code, "wall_s": ..., "cpu_s": user + system, "rss_kib": ...}.
It exits at end of input.
"""

import json
import os
import signal
import sys
import time


def main():
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], write, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                             file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        sys.stdout.write(json.dumps({
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
