"""Helpers for tests of code that may fork a worker process (``lbmlab._team``)."""

import os

import pytest

# the CPUs this process may run on; only a worker pins itself, so this
# process's mask never changes
CPUS = os.sched_getaffinity(0)


def two_cpus():
    if len(CPUS) < 2:
        pytest.skip("this process may run on one CPU only, so it forks no worker")


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(CPUS)})


def aarch64(monkeypatch):
    """Make os.uname report an aarch64 machine."""
    uname = os.uname()
    monkeypatch.setattr(os, "uname", lambda: os.uname_result((*uname[:4], "aarch64")))


def counting_forks(monkeypatch):
    """A list that gains one entry per os.fork call in this process."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == CPUS
