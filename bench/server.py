"""Fork server: runs each colorpart CLI request in a fresh forked child.

    PYTHONPATH=src python3 bench/server.py

The server imports ``colorpart.cli`` once and then never calls into it.
Each request is one JSON line on stdin; the server forks a child that
runs ``colorpart.cli.main(argv)`` with stdout and stderr on memory files,
reaps it with ``os.wait4`` and answers with one JSON line: exit code,
stdout, stderr, wall time from fork to reap, and the child's rusage
(which covers the pool workers the child started and waited for).
A child therefore starts from the same state as a fresh
``python -m colorpart.cli`` after import, and leaves nothing behind.

Request fields: ``argv`` (list of str), ``trace`` (bool: install the
span tracer in the child), or ``call`` (a ``count_avoiders`` call to time
at jobs = 1, used for the pool speed-up).  Replies go to the original
stdout; fd 1 itself points at /dev/null so that nothing a request writes
outside ``sys.stdout`` can reach the protocol.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import colorpart.cli
import tracing

REQUEST_TIMEOUT_S = 60


def _child(req: dict, out_fd: int, err_fd: int, meta_fd: int) -> int:
    os.setpgid(0, 0)  # pool workers join this group, so a timeout kills them too
    signal.alarm(REQUEST_TIMEOUT_S)
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.dup2(out_fd, 1)
    os.dup2(err_fd, 2)
    meta: dict = {}
    code = 0
    if "call" in req:
        meta["call_s"] = _timed_call(req["call"])
    else:
        tracer = tracing.install() if req.get("trace") else None
        t0 = time.perf_counter()
        try:
            code = colorpart.cli.main(req["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception ends a real CLI run with 1
            traceback.print_exc()
            meta["exception"] = "%s: %s" % (type(exc).__name__, exc)
            code = 1
        meta["main_s"] = time.perf_counter() - t0
        if tracer is not None:
            meta["trace"] = tracer.export()
    sys.stdout.flush()
    sys.stderr.flush()
    os.write(meta_fd, json.dumps(meta).encode())
    return code


def _timed_call(call: dict) -> float:
    from colorpart.avoidance import Sense
    from colorpart.core import ColoredPattern
    from colorpart.enumeration import count_avoiders

    patterns = tuple(ColoredPattern(tuple(w), tuple(c), call["k"]) for w, c in call["patterns"])
    t0 = time.perf_counter()
    count_avoiders(call["n"], call["k"], patterns, Sense(call["sense"]),
                   naive=call["naive"], jobs=1)
    return time.perf_counter() - t0


def _read(fd: int) -> str:
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks).decode("utf-8", "replace")


def serve(reply) -> None:
    for line in sys.stdin:
        req = json.loads(line)
        fds = [os.memfd_create(name) for name in ("stdout", "stderr", "meta")]
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                code = _child(req, *fds)
            finally:
                os._exit(code)
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        try:
            os.killpg(pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
        stdout, stderr, meta = (_read(fd) for fd in fds)
        reply.write(json.dumps({
            "exit": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_kb": ru.ru_maxrss,
            "stdout": stdout,
            "stderr": stderr[-2000:],
            "meta": json.loads(meta) if meta else {},
        }) + "\n")
        reply.flush()


def main() -> int:
    reply = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    reply.write("ready\n")
    reply.flush()
    serve(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
