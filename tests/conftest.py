"""Per-test time limit, so a fault that loops fails its test instead of
hanging the run."""

import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised by the alarm.  It is not an Exception, so hypothesis does not
    catch it and shrink the failing example again without end."""


def _on_alarm(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
