import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test process behind."""
    yield
    if not hasattr(os, "WNOHANG"):  # not POSIX: no fork either, and the program writes alone
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")
