"""Parse a large matrix CSV in two parts at once, the second in a worker.

:func:`specfilt.output.read_matrix_csv` imports this module when it reads
a matrix, so a run that reads none neither compiles nor holds it.  Each
part goes through ``output._parse``.  The worker is the same interpreter
running :func:`parse_tail`; it writes the shape of its rows (two int64)
and their float64 values down a pipe, which this process reads straight
into the matrix.  Any failure is raised; the caller then reads the file in
one part, whose error is the one shown.  The worker does not outlive its
reader: the reader kills it when the read fails or is interrupted, and on
Linux the kernel kills it when the reader itself is killed.
"""

from __future__ import annotations

import io
import os
import signal
import stat
import sys
from pathlib import Path

import numpy as np

from .curves import _cpu_count
from .output import _parse

__all__: list[str] = []

# A --matrix file of at least this many bytes is parsed in two parts at
# once.  With a worker that starts in t seconds and a parse rate of r, a
# file of S bytes takes about t + S / 2r in two parts against S / r in
# one, so two parts gain once S > 2 t r.  On a 2-CPU x86-64 host with
# numpy 2.4, a posix_spawn of the interpreter plus
# ``import specfilt._twopart`` took 0.12-0.19 s and a one-part read ran
# at 65-80 MB/s, which puts the break-even at 16-30 MB; a 25.6 MB file
# took 0.36 s in two parts against 0.40 s in one.
SPLIT_MIN_BYTES = 20_000_000

# the worker's command: it imports specfilt from where this process did,
# ahead of the working directory, which -c puts first on the path
_WORKER = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "from specfilt._twopart import parse_tail; "
           "parse_tail(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))")


class _Head(io.RawIOBase):
    """The bytes of a binary file from its current position up to ``end``."""

    def __init__(self, fh, end: int):
        self._fh = fh
        self._left = end - fh.tell()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._fh.readinto(memoryview(buffer)[:self._left])
        self._left -= count
        return count


def split_point(fh) -> int | None:
    """Where a large regular file is split: just past the first newline
    past its middle.  None for a pipe, a small file or a single CPU."""
    info = os.fstat(fh.fileno())
    if (not stat.S_ISREG(info.st_mode) or info.st_size < SPLIT_MIN_BYTES
            or _cpu_count() < 2 or not hasattr(os, "posix_spawn")):
        return None
    fh.seek(info.st_size // 2)
    while (piece := fh.readline(1 << 16)) and not piece.endswith(b"\n"):
        pass
    split = fh.tell()
    fh.seek(0)
    return split if split < info.st_size else None


def read_in_two(fh, split: int, path) -> np.ndarray:
    """Parse the rows before ``split`` here while a worker parses the rest.

    Raises ValueError where either part fails or the two do not make an
    n x n matrix, and OSError or ValueError where the worker cannot
    start; the caller then reads the whole file in one part, which raises
    the error the file holds.
    """
    read_end, write_end = os.pipe()
    # buffered: each readinto below loops until its array is full or the
    # pipe ends
    with open(read_end, "rb") as stream:
        try:
            # posix_spawn, not the subprocess module: importing that would
            # add 0.3 MB to every matrix-file run's peak
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, "-c", _WORKER, str(Path(__file__).resolve().parents[1]),
                 os.fspath(path), str(split), str(os.getpid())],
                os.environ,
                file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                              (os.POSIX_SPAWN_DUP2, write_end, 1),
                              (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
        finally:
            os.close(write_end)
        status = None
        try:
            n, head = _parse(io.BufferedReader(_Head(fh, split)))
            k = len(head)
            shape = np.empty(2, dtype=np.int64)
            if stream.readinto(shape) != shape.nbytes or tuple(shape) != (n - k, n):
                raise ValueError("the parts do not make an n x n matrix")
            dense = np.empty((n, n))
            dense[:k] = head
            del head
            if stream.readinto(dense[k:]) != dense[k:].nbytes:
                raise ValueError("the worker's rows end early")
            status = os.waitpid(pid, 0)[1]
            if status != 0:
                raise ValueError(f"the worker ended with status {status}")
            return dense
        finally:
            if status is None:  # not reaped yet, so pid is still the worker's
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _end_with(parent: int) -> None:
    """Have this process killed when ``parent`` ends, or end it now if
    ``parent`` is already gone."""
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        # PR_SET_PDEATHSIG; should it fail, a worker whose parent is killed
        # still ends at its first write to the closed pipe
        prctl(1, signal.SIGKILL)
    # a parent that died before the prctl call has left this process to
    # another: that parent is not waiting for the rows
    if os.getppid() != parent:
        sys.exit(1)


def parse_tail(path, offset: int, parent: int) -> None:
    """Worker entry: parse a matrix file's rows from ``offset`` on, and write
    their shape (two int64) and their float64 values to standard output.
    The worker ends with ``parent``, the process that reads the rows."""
    _end_with(parent)
    with open(path, "rb") as fh:
        fh.seek(offset)
        part = _parse(fh, "utf-8")[1]
    out = sys.stdout.buffer
    out.write(np.array(part.shape, dtype=np.int64).tobytes())
    out.write(memoryview(part).cast("B"))
    out.flush()
