import json

import pytest

from golden_reports import calls, golden_problems, report_path, run_call


@pytest.mark.parametrize("problem", golden_problems(), ids=lambda p: p.stem)
def test_reports_match_snapshot(problem):
    expected = json.loads(report_path(problem).read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(" ".join(call) for call in calls())
    for call in calls():
        assert run_call(problem, call) == expected[" ".join(call)], " ".join(call)
