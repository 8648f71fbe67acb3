import os
import signal

import pytest

from milnor_mu import verify

fork_only = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="a pooled sweep forks its children only where os.fork exists"
)
#: The worker counts of a sweep test: sequential, and two forked workers.
WORKERS = [None, pytest.param(2, marks=fork_only)]

#: Seconds a test under ``time_limit`` may run; each takes well under one.
TIME_LIMIT_S = 20


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    A pooled sweep forks its children for one call and must kill and reap
    every one of them before the call ends, however it ends.
    """
    yield
    if not hasattr(os, "waitpid"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = f"child {pid} was left unreaped" if pid else "a child is still running"
    pytest.fail(f"the test left a child process behind: {left}")


@pytest.fixture
def two_usable_cpus(monkeypatch):
    # so that a pooled sweep forks where this process may run on one CPU only
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pid that made each ``os.fork`` call of the test, in call order."""
    pids = []
    real_fork = os.fork

    def counted_fork():
        pids.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.fixture
def time_limit():
    """Fail the test with TimeoutError once it has run ``TIME_LIMIT_S``.

    For tests whose fault would be a hang, such as a sweep engine that waits
    on a child it never killed.  Not autouse: the benchmark's self-test sets
    its own SIGALRM timer, so the old handler is put back afterwards.
    """
    def expire(signum, frame):
        raise TimeoutError(f"the test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
