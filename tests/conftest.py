import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def clear_caches() -> None:
    """Empty every per-process cache of knx: the next call builds afresh."""
    import knx.engine
    import knx.groups
    import knx.strata

    for cache in (knx.strata._ray_strata, knx.strata._orbit_plan, knx.strata._shapes,
                  knx.strata._dominant, knx.engine._shift, knx.groups.gl, knx.groups.sl,
                  knx.groups.torus, knx.groups._product):
        cache.cache_clear()


def pytest_runtest_teardown(item, nextitem):
    """The last test here leaves no kept strata behind: the benchmark's
    ``test_traced_cherednik_reaches_min_norm``, run after these, counts
    the cone solves of a walk that a kept entry would skip.  Tests that
    need a cold walk clear the kept strata themselves."""
    here = Path(__file__).resolve().parent
    if nextitem is None or here not in nextitem.path.parents:
        import knx.strata

        knx.strata._ray_strata.cache_clear()
