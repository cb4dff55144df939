import json
from collections import Counter
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
    """Empty every per-process cache of knx: the next call builds afresh.
    The conftest at the repo root empties the same six before every test."""
    import knx.engine
    import knx.groups
    import knx.strata

    for cache in (knx.strata._shapes, knx.engine._shift, knx.groups.gl, knx.groups.sl,
                  knx.groups.torus, knx.groups._product):
        cache.cache_clear()


@pytest.fixture
def walk_counts(monkeypatch) -> Counter:
    """Counts, from here on, of the orbit plans built (``plans``), the cone
    solves of every walk (``solves``), the reads of a record's kept strata,
    hit or miss (``reads``), and the walks of a read that missed
    (``walks``)."""
    import knx.strata

    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(knx.strata, "_orbit_plan", counting("plans", knx.strata._orbit_plan))
    monkeypatch.setattr(knx.strata, "min_norm_point", counting("solves", knx.strata.min_norm_point))
    monkeypatch.setattr(knx.strata.Shape, "strata", counting("reads", knx.strata.Shape.strata))
    monkeypatch.setattr(knx.strata, "_ray_strata", counting("walks", knx.strata._ray_strata))
    return counts

