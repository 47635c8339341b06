"""A per-test time limit, so that a test that hangs fails instead of
stalling the run.  It uses the stdlib SIGALRM timer, so it holds on POSIX
only; where there is no SIGALRM no limit is set.
"""

import signal

import pytest

#: seconds; the slowest tier-1 test takes about 7 s
TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        # pytest.fail raises an outcome derived from BaseException, so no
        # `except Exception` in the code under test can swallow it
        pytest.fail(f"{item.nodeid} ran past the {TEST_TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
