"""One forked worker process that does half of a job on the other CPUs.

A gap sweep (:func:`specfilt.curves.gap_curve`) and the two-part matrix
read (:mod:`specfilt._twopart`) each hand half of their work to a worker
started by :func:`forked`.  The worker is this process forked: it runs a
function of this process's code on this process's memory, writes what it
computes down a pipe, and ends with ``os._exit``, so it never returns into
its caller and never flushes the stdio buffers it inherited.  Interrupts
are blocked in it: it is ended by its parent, which kills and reaps it
when the ``with`` block ends, however that ends, and on Linux by the
kernel when the parent itself dies.

A forked child starts on its parent's CPU, and the kernel may leave it
there: on a 2-vCPU x86-64 host both processes were seen on CPU 0 (field
39 of ``/proc/self/stat``), and a split gap sweep took 58-64 ms against
49 ms in one process.  So the parent narrows its affinity to its first
allowed CPU before the fork, the worker narrows its own to the others,
and both then restore the full mask; the two then ran on CPUs 0 and 1,
and the sweep took 39-44 ms.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager

__all__: list[str] = []


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def available() -> bool:
    """Whether a worker may be forked: the platform has ``os.fork`` and
    ``os.sched_setaffinity`` (Linux), and no other thread is alive, since
    a thread holding a lock at the fork leaves it held in the child.
    OpenBLAS's own threads do not count: its at-fork handler joins them
    before the fork, and the next BLAS call starts them again."""
    return (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
            and threading.active_count() == 1)


@contextmanager
def forked(work, *args):
    """Run ``work(*args, out)`` in a forked worker, ``out`` the write end
    of a pipe, and yield the pipe's read end (a file descriptor, closed
    here on exit), or None where no worker could start: ``os.pipe``,
    ``os.fork`` or an affinity change raised ``OSError`` (EMFILE, EAGAIN,
    ENOMEM), and the caller does the work alone.  The worker ends with
    status 0 once ``work`` returns, and 1 if it raises; on leaving the
    block it is killed if still running, and reaped.  Call only where
    :func:`available`.
    """
    # imported here: a run that starts no worker does not load it (0.6 ms)
    import signal

    cpus = sorted(os.sched_getaffinity(0))
    parent, pid, narrowed = os.getpid(), None, False
    try:
        read_end, write_end = os.pipe()
    except OSError:  # no file descriptors left (EMFILE)
        yield None
        return
    # the signal mask as it was, read before any change, so that an
    # interrupt raised as the change returns cannot lose it
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        try:
            # SIGINT stays blocked in the worker for its whole life; here it
            # is blocked from before the fork until pid is stored, so an
            # interrupt cannot leave a worker that no finally will kill
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            os.sched_setaffinity(0, cpus[:1])
            narrowed = True
            pid = os.fork()
            if pid == 0:
                _run(parent, cpus, read_end, write_end, work, args)
        except OSError:
            pid = None
        finally:
            os.close(write_end)
            if narrowed:
                os.sched_setaffinity(0, cpus)
            # last: an interrupt that waited is raised as this returns
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield read_end if pid else None
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)  # a worker already ended is a zombie: no error
            os.waitpid(pid, 0)
        os.close(read_end)


def _run(parent: int, cpus: list, read_end: int, write_end: int, work, args) -> None:
    """The worker's whole life after the fork; it never returns."""
    status = 1
    try:
        os.close(read_end)
        _end_with(parent)
        # onto the CPUs the parent left free; with the full mask back, the
        # kernel has no cause to move it onto the parent's
        os.sched_setaffinity(0, cpus[1:] or cpus)
        os.sched_setaffinity(0, cpus)
        work(*args, write_end)
        status = 0
    finally:
        os._exit(status)


def _end_with(parent: int) -> None:
    """Have this process killed when ``parent`` ends, or end it now if
    ``parent`` is already gone."""
    if sys.platform.startswith("linux"):
        import ctypes
        import signal

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        # PR_SET_PDEATHSIG; should it fail, a worker whose parent is killed
        # still ends at its first write to the closed pipe
        prctl(1, signal.SIGKILL)
    # a parent that died before the prctl call has left this process to
    # another: that parent is not waiting for the results
    if os.getppid() != parent:
        sys.exit(1)


def send(out: int, data) -> None:
    """Write every byte of ``data`` (any buffer) to the pipe ``out``."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(out, view):]


def receive(pipe: int, into: bytearray, wait: bool) -> None:
    """Append to ``into`` what the worker has written to ``pipe``: all it
    will write, up to its end, with ``wait``; what is there now without."""
    os.set_blocking(pipe, wait)
    try:
        while chunk := os.read(pipe, 1 << 16):
            into += chunk
    except BlockingIOError:
        pass
