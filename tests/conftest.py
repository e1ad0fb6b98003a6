import os

import pytest

from weylcoh import threads

# every per-process cache of the thread layer
THREAD_CACHES = (
    threads._proper_faces,
    threads._ic_cutoff_values,
    threads._min_rep,
    threads._thread_module,
    threads.thread_local_cohomology,
    threads._attaching_items,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "exhaustive: opt-in long enumeration (set WEYLCOH_EXHAUSTIVE=1)",
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("WEYLCOH_EXHAUSTIVE"):
        return
    skip = pytest.mark.skip(
        reason="opt-in: set WEYLCOH_EXHAUSTIVE=1 to run the full enumeration"
    )
    for item in items:
        if "exhaustive" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def clear_thread_caches():
    """A function that empties every thread-layer cache (a cold start)."""

    def clear():
        for cache in THREAD_CACHES:
            cache.cache_clear()

    return clear
