import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    # every thread a test starts, directly or through a pool, has ended
    # by the time the test returns
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"
