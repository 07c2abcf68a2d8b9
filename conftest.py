"""Watchdog for every test under this directory: a hang becomes a stack dump and a failure.

Each test (setup, call and teardown) arms ``faulthandler.dump_traceback_later``
and cancels it when the test is done. A test still running at the deadline
dumps every thread's stack to the terminal's stderr and ends the process
with a non-zero status, instead of stalling the run with no output.
"""

import faulthandler
import os
import sys

import pytest

#: Seconds one test may run. The slowest tier-1 test,
#: ``benchmarks/test_table7_sequence_k.py``, takes 12.6 s on a 2-core x86
#: box; this is 9.5 times that.
HANG_TIMEOUT_S = 120.0

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Captured output dies with the process: dump to a copy of the real stderr.
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR_FD])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
