"""Report snapshots of the golden problems.

For each ``golden/<stem>.json`` the file ``golden/reports/<stem>.json`` maps
a CLI call (the command and its flags, the problem file left out) to the
exit code, stdout and stderr it gave.  Uses the standard library only, so it
also runs where pytest is not installed:

    PYTHONPATH=src python tests/golden_reports.py           # compare
    PYTHONPATH=src python tests/golden_reports.py --write   # regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
REPORTS_DIR = GOLDEN_DIR / "reports"

COMMANDS = (("strata",), ("check",), ("forbidden",), ("oracle", "--samples", "0"))
FLAGS = ((), ("--json",), ("--orientation", "both"), ("--json", "--orientation", "both"))


def calls() -> list[tuple[str, ...]]:
    return [command + flags for command in COMMANDS for flags in FLAGS]


def run_call(problem: Path, call: tuple[str, ...]) -> dict:
    from knx.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([call[0], str(problem), *call[1:]])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def snapshot(problem: Path) -> dict:
    return {" ".join(call): run_call(problem, call) for call in calls()}


def golden_problems() -> list[Path]:
    return sorted(GOLDEN_DIR.glob("*.json"))


def report_path(problem: Path) -> Path:
    return REPORTS_DIR / problem.name


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        REPORTS_DIR.mkdir(exist_ok=True)
        for problem in golden_problems():
            text = json.dumps(snapshot(problem), indent=1, sort_keys=True)
            report_path(problem).write_text(text + "\n", encoding="utf-8")
        return 0
    differing = []
    for problem in golden_problems():
        expected = json.loads(report_path(problem).read_text(encoding="utf-8"))
        got = snapshot(problem)
        differing += [f"{problem.name}: {k}" for k in sorted(expected) if got.get(k) != expected[k]]
        if set(got) != set(expected):
            differing.append(f"{problem.name}: the calls differ from the snapshot's")
    for line in differing:
        print(f"differs: {line}")
    print(f"{len(golden_problems())} golden problems, {len(differing)} differing entries")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
