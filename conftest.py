"""Every test, under tests/ and bench/ alike, starts on empty knx caches:
none passes or fails on the records and kept strata an earlier test in
the same process left behind."""

import pytest


@pytest.fixture(autouse=True)
def cold_caches():
    import knx.engine
    import knx.groups
    import knx.strata

    # the six caches tests/conftest.clear_caches names
    for cache in (knx.strata._shapes, knx.engine._shift, knx.groups.gl, knx.groups.sl,
                  knx.groups.torus, knx.groups._product):
        cache.cache_clear()
