"""Parse a large matrix CSV in two parts at once, the second in a worker.

:func:`specfilt.output.read_matrix_csv` imports this module when it reads
a matrix, so a run that reads none neither compiles nor holds it.  Each
part goes through ``output._parse``.  The worker is this process forked
(:func:`specfilt._worker.forked`) running :func:`parse_tail`; it writes
the shape of its rows (two int64) and their float64 values down a pipe,
which this process reads straight into the matrix.  Any failure is
raised; the caller then reads the file in one part, whose error is the
one shown.  The worker does not outlive its reader: the reader kills it
when the read fails or is interrupted, and on Linux the kernel kills it
when the reader itself is killed.
"""

from __future__ import annotations

import io
import os
import stat

import numpy as np

from . import _worker
from .output import _parse

__all__: list[str] = []

# A --matrix file of at least this many bytes is parsed in two parts at
# once.  With a worker that starts in t seconds and a parse rate of r, a
# file of S bytes takes about t + S / 2r in two parts against S / r in
# one, so two parts gain once S > 2 t r.  On a 2-CPU x86-64 host with
# numpy 2.4 the forked worker starts parsing 2.2 ms after the fork call
# (fork, exit and wait: 3.3 ms; the spawned interpreter it replaced took
# 0.12-0.19 s), and a one-part read runs at 65-90 MB/s, but the two parts
# also contend for the host.  In-process reads, alternated pairs: a 2.0 MB
# file took 24.3 ms in two parts against 23.7 ms in one (5 of 10 won),
# 3.0 MB won 6 and 9 of 10, 4.0 MB 9 and 10 of 10 (49.5 and 64.2 against
# 39.6 and 47.0 ms), and 4.9 MB 10, 10 and 9 of 10
SPLIT_MIN_BYTES = 4_000_000


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
    past its middle.  None for a pipe, a small file, a single CPU or where
    no worker may be forked (:func:`specfilt._worker.available`)."""
    info = os.fstat(fh.fileno())
    if (not stat.S_ISREG(info.st_mode) or info.st_size < SPLIT_MIN_BYTES
            or _worker.cpu_count() < 2 or not _worker.available()):
        return None
    fh.seek(info.st_size // 2)
    while (piece := fh.readline(1 << 16)) and not piece.endswith(b"\n"):
        pass
    split = fh.tell()
    fh.seek(0)
    return split if split < info.st_size else None


def read_in_two(fh, split: int, path) -> np.ndarray:
    """Parse the rows before ``split`` here while a worker parses the rest.

    Raises ValueError where either part fails, the two do not make an
    n x n matrix or the worker cannot start; the caller then reads the
    whole file in one part, which raises the error the file holds.
    """
    with _worker.forked(parse_tail, path, split) as pipe:
        if pipe is None:
            raise ValueError("no worker could be started")
        # buffered: each readinto below loops until its array is full or
        # the pipe ends
        with open(pipe, "rb", closefd=False) as stream:
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
            return dense


def parse_tail(path, offset: int, out: int) -> None:
    """Worker entry: parse a matrix file's rows from ``offset`` on, and
    write their shape (two int64) and their float64 values to ``out``.
    The file is opened anew: an open file shares its position with the
    process it was inherited from."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        part = _parse(fh, "utf-8")[1]
    _worker.send(out, np.array(part.shape, dtype=np.int64))
    _worker.send(out, part)
