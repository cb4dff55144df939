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

    for cache in (knx.strata._orbit_plan, knx.strata._shapes, knx.strata._dominant,
                  knx.engine._shift, knx.groups.gl, knx.groups.sl, knx.groups.torus,
                  knx.groups._product):
        cache.cache_clear()
