import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that fails the test once its body runs that long.

    A test that guards against a hang fails in seconds this way, and names
    itself, instead of holding the whole run.  It arms a SIGALRM interval
    timer, so it needs POSIX; elsewhere the body runs without a limit.
    """

    @contextmanager
    def limit(seconds: float):
        if not hasattr(signal, "setitimer"):
            yield
            return

        def expire(signum, frame):
            pytest.fail(f"still running after the {seconds} s deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
