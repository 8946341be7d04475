import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    # the chain kernel forks a helper process per run of more than one
    # block; every test must leave all of its children reaped
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")
