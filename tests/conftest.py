import os

import pytest


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
