"""Suite-wide settings: hypothesis runs derandomized, with a bounded number
of examples and no example database, so every run checks the same cases;
and every test has a wall-clock budget, past which it fails rather than
hanging the suite (a broken division loop, say, that never ends)."""

import signal

import pytest
from hypothesis import settings

settings.register_profile(
    "suite", derandomize=True, max_examples=150, deadline=None, database=None
)
settings.load_profile("suite")

TEST_BUDGET_S = 300  # the slowest test takes a few seconds


class OverBudget(BaseException):
    """Not an Exception, so hypothesis does not catch it and replay an example
    that would run past the budget again, now with no alarm set."""


def _over_budget(signum, frame):
    raise OverBudget(f"test ran past its budget of {TEST_BUDGET_S} s")


@pytest.fixture(autouse=True)
def wall_clock_budget():
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
