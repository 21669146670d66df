"""Forked helper processes: start one off the tick's CPU, stop and reap it.

A helper is a forked child that serves this process over two pipes,
requests in and replies out, and leaves through ``os._exit``. The
telemetry row writer (``sim``) and the window averager's block fold
(``consensus``) each run in one.
"""

from __future__ import annotations

import gc
import os

__all__ = ["Child", "tick_cpu", "place_apart"]


class Child:
    """A forked helper running ``serve(requests, replies, *args)``.

    ``serve`` returns the helper's exit status, and the child leaves
    through ``os._exit``: the parent's cleanup, atexit hooks and stdio
    buffers are not the child's to run. In the child, before ``serve``
    runs, the collector is off (there are no cycles to find, and a full
    collection would copy the parent's heap pages) and every inherited
    fd but 0-2, the child's two pipe ends and ``keep`` is closed, so no
    helper holds another's pipe open and keeps it from seeing EOF. The
    parent places the child apart from the tick (``place_apart``) and
    keeps ``requests``, the write end of the request pipe, and
    ``replies``, the read end of the reply pipe. A failed fork raises
    OSError with every pipe end closed.
    """

    def __init__(self, serve, *args, keep=()) -> None:
        requests_r, requests = os.pipe()
        replies, replies_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (requests_r, requests, replies, replies_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                gc.disable()
                _close_inherited({0, 1, 2, requests_r, replies_w, *keep})
                status = serve(requests_r, replies_w, *args)
            finally:
                os._exit(status)
        os.close(requests_r)
        os.close(replies_w)
        self.pid, self.requests, self.replies, self.status = pid, requests, replies, None
        place_apart(pid)

    def stop(self) -> bytes:
        """Close the request pipe, read the replies to EOF and reap the child; once.

        Returns the bytes read, b"" on a later call; ``status`` is then
        the child's exit code, or -signal if a signal killed it.
        """
        pid, self.pid = self.pid, None
        if pid is None:
            return b""
        os.close(self.requests)
        chunks = []
        try:
            while chunk := os.read(self.replies, 4096):
                chunks.append(chunk)
        finally:
            os.close(self.replies)
            self.status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return b"".join(chunks)


def _close_inherited(keep) -> None:
    """Close every fd of this process but those in ``keep``."""
    low = 0
    for fd in sorted(keep) + [os.sysconf("SC_OPEN_MAX")]:
        if low < fd:  # os.closerange(0, 0) would close every fd
            os.closerange(low, fd)
        low = fd + 1


def tick_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat", "rb") as fh:
        stat = fh.read()
    # field 2, the command name, may hold spaces and parentheses
    return int(stat.rsplit(b")", 1)[1].split()[36])


def place_apart(pid: int) -> None:
    """Keep the helper off the CPU the tick runs on.

    A pipe write wakes the reader as a sync wakeup, and when the writer
    runs alone on its CPU, Linux puts the woken reader there unless it
    finds another CPU idle; the helper then shares the tick's CPU. So
    the helper may run on every allowed CPU but that one, and this
    process keeps its own affinity. With one allowed CPU, no affinity
    call or no /proc, the helper stays where it is.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            os.sched_setaffinity(pid, allowed - {tick_cpu()})
    except (OSError, ValueError, IndexError):
        pass
