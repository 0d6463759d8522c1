"""Wall-clock limit for test calls that might never return."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once `seconds` have passed, so a
    loop that never ends fails its test instead of hanging the suite.  Uses
    SIGALRM, so it works in the main thread on POSIX systems."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
