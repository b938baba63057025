"""The suite's own guard: each test runs under conftest's time limit."""

import signal

import pytest

from conftest import TEST_TIME_LIMIT


def test_a_test_past_its_time_limit_fails_with_timeout_error():
    remaining = signal.alarm(0)
    assert 0 < remaining <= TEST_TIME_LIMIT
    signal.alarm(1)
    with pytest.raises(TimeoutError, match="limit"):
        while True:
            pass
