import json

import pytest

from conftest import clear_caches
from golden_reports import calls, golden_problems, report_path, run_call


@pytest.mark.parametrize("problem", golden_problems(), ids=lambda p: p.stem)
def test_reports_match_snapshot(problem):
    expected = json.loads(report_path(problem).read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(" ".join(call) for call in calls())
    for call in calls():
        assert run_call(problem, call) == expected[" ".join(call)], " ".join(call)


@pytest.mark.parametrize("problem", golden_problems(), ids=lambda p: p.stem)
def test_reports_match_snapshot_cold_and_warm(problem):
    # each call once with the orbit plans, shape records, per-direction
    # data and groups built afresh, then once more on what that call left
    # in the caches
    expected = json.loads(report_path(problem).read_text(encoding="utf-8"))
    for call in calls():
        clear_caches()
        cold = run_call(problem, call)
        assert cold == run_call(problem, call) == expected[" ".join(call)], " ".join(call)
