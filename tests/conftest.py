"""Fixtures shared by the tests of the forked worker (specfilt._worker)."""

import os
import threading
from pathlib import Path

import pytest


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pid of every worker forked during the test, in order."""
    started, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started


@pytest.fixture
def second_thread():
    """A second thread, alive for the whole test."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(30,))
    thread.start()
    yield thread
    done.set()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _running(pid) -> bool:
    """Whether a process exists and has not ended (a zombie has ended)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.fixture
def running():
    """Whether a process, by pid, exists and has not ended."""
    return _running
