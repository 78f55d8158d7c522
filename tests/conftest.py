"""Checks that every test in this directory gets."""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_child_left_behind():
    """Fail a test that leaves a child process behind, running or exited
    but not reaped: afterwards this process must have no child at all."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} behind, now reaped" if pid else
                "a child process is still running after the test (this one's or an earlier one's)")
