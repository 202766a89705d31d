"""The forked worker (specfilt._worker): where it runs and what reaches it."""

import ast
import os
import signal

import numpy as np
import pytest

from specfilt import _worker

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
    reason="the worker is forked, and moved to another CPU")


def run_in_worker(work) -> bytes:
    """All that ``work(out)``, run in a forked worker, sends down ``out``."""
    received = bytearray()
    with _worker.forked(work) as pipe:
        _worker.receive(pipe, received, wait=True)
    return bytes(received)


def test_the_worker_takes_the_cpus_this_process_leaves(monkeypatch):
    # this process narrows itself to its first CPU before the fork and the
    # worker itself to the others; then both take every CPU back
    cpus = sorted(os.sched_getaffinity(0))
    calls, set_affinity = [], os.sched_setaffinity

    def recorded(pid, mask):
        calls.append(sorted(mask))
        set_affinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)

    def report(out):
        _worker.send(out, repr(calls[-2:]).encode())

    sent = ast.literal_eval(run_in_worker(report).decode())
    assert calls == [cpus[:1], cpus]
    assert sent == [cpus[1:] or cpus, cpus]
    assert sorted(os.sched_getaffinity(0)) == cpus


def test_interrupts_are_blocked_in_the_worker_only():
    # Ctrl-C reaches the worker's whole process group, but only this
    # process acts on it: its finally kills the worker
    def report(out):
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        _worker.send(out, np.array([signal.SIGINT in blocked]))

    assert np.frombuffer(run_in_worker(report), dtype=bool).tolist() == [True]
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())


def test_a_worker_that_raises_ends_and_is_reaped(forks):
    def failing(out):
        _worker.send(out, b"partial")
        raise RuntimeError("in the worker")

    assert run_in_worker(failing) == b"partial"
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
