"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak_kib(fn, *args):
    """The most memory fn(*args) held at once beyond what was live before, by tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def traced_peak_kib():
    """traced_peak_kib(fn, *args): the KiB fn(*args) held at most at once."""
    return _traced_peak_kib
