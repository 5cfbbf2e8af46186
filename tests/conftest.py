import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SESSION_START = time.monotonic()
# C13: the whole suite runs within this many seconds
WALL_CLOCK_BUDGET = 60.0


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_START


def pytest_sessionfinish(session):
    """Fail the run when the whole session outlasts C13's budget, which
    `test_c13_wall_clock` can check only up to its own turn."""
    if time.monotonic() - SESSION_START >= WALL_CLOCK_BUDGET:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    elapsed = time.monotonic() - SESSION_START
    over = (f" exceeds the {WALL_CLOCK_BUDGET:.0f} s budget of C13"
            if elapsed >= WALL_CLOCK_BUDGET else "")
    terminalreporter.write_line(f"suite wall-clock: {elapsed:.1f} s{over}")
