import os

import pytest

from weylcoh import kostant, roots, satake, threads

# every per-process cache of the thread layer
THREAD_CACHES = (
    threads._proper_faces,
    threads._face_parabolics,
    threads._ic_cutoff_values,
    threads._thread_module,
    threads.thread_local_cohomology,
    threads._attaching_items,
)

# every per-process cache of the root, Kostant and fiber layers
WEYL_CACHES = (
    roots.build_root_system,
    roots.levi_split,
    roots.scaled_lam_rho,
    roots.longest_levi_element,
    roots._levi_mask,
    roots._codim_and_perversity,
    kostant._pairing_rows,
    kostant._duality_rows,
    satake._fiber_classes,
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
    """A function that empties every thread, Kostant and root cache (a cold start)."""

    def clear():
        for cache in THREAD_CACHES + WEYL_CACHES:
            cache.cache_clear()

    return clear
