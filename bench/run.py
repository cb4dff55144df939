"""knx benchmark: one command, four workloads, end-to-end and per-module metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cherednik, torus_oracle, semigroup, reject, or ``all`` to
run the four one after another.  Each workload runs in its own child
process (``worker.py``), started one after another, with no threads: a
closed loop with a single caller that sends the next CLI call only after
the previous verdict returned.  Every output is checked against an
independent expected answer (``checks.py``).

With ``--trace 0`` the result carries the end-to-end metrics:

* ``setup_s``: a fresh interpreter importing knx and writing the seeded
  problem files, up to the first timed call; the median over probe
  children that do the measuring child's set-up and stop, half of them
  before it and half after.
* ``solve_s``: time of one pass over the workload's fixed call list, each
  call at its fastest run over the passes of the run.
* ``verdict_p50_ms``, ``verdict_p90_ms``: percentiles over the calls of
  the list of each call's fastest run; the record states the sample count.
* ``peak_rss_mib``: peak resident memory of the measuring child.

Times are stated at a fixed host speed (``hostspeed.py``): the shared
host's speed drifts by more than the metrics' bounds from one run to the
next, so each call's time is scaled by the fastest run of a fixed
reference loop timed right around it, and each set-up by the bare
interpreter starts right before and after it.  The record keeps the raw
times.

``failed_ratio`` (failed calls over attempted calls) is printed in the
record line before the result, and its parts are the result's
``failed`` and ``attempted``.  With ``--trace 1`` the result carries the
per-module metrics of ``tracing.py`` instead.

The last line of stdout is the result as one JSON object.  The exit code
is 0 when every output was correct, 1 when an output check failed, and 2
(with no result) when the benchmark could not run at all, for instance
outside a checkout that holds ``src/knx``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, START_REFERENCE_S, interpreter_start
from worker import best_latencies
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 12  # fresh set-ups per run, besides the measuring child's
RUN_LIMIT_S = 170  # a single-workload run ends well inside three minutes

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def spawn_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py to completion; (monotonic spawn time, its JSON result)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchmarkError(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_class(latencies: list[float], classes: list[str], value: float) -> str:
    """Size class of the sample nearest to a percentile value."""
    return min(zip(latencies, classes), key=lambda lc: abs(lc[0] - value))[1]


def git_commit() -> str:
    """HEAD of this checkout, read from .git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    tag = f"{name}-{seed}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []  # (set-up seconds, bare interpreter starts right before and after it)
    before = interpreter_start()
    try:
        for i in range(SETUP_PROBES + 1):
            measuring = i == SETUP_PROBES // 2  # half the probes before it, half after
            workdir = WORK / (tag if measuring else f"{tag}-probe{i}")
            started, out = spawn_worker(
                common + ["--workdir", str(workdir)] + ([] if measuring else ["--setup-only"]),
                deadline - time.monotonic(),
            )
            after = interpreter_start()
            if measuring:
                raw = out
            else:
                setups.append((out["ready"] - started, (before, after)))
            before = after
    finally:  # a worker that was killed leaves its files behind
        for leftover in WORK.glob(f"{tag}*"):
            shutil.rmtree(leftover, ignore_errors=True)

    untraced = raw["passes"]  # percentiles and solve_s come from untraced passes only
    passes = untraced + raw.get("traced", [])
    latencies = best_latencies(untraced)
    classes = raw["size_classes"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]

    if trace:
        from tracing import METRICS

        metrics = {k: {"value": raw["per_layer"][k], "unit": u} for k, u in METRICS.items()}
    else:
        values = {
            "setup_s": statistics.median(
                wall * START_REFERENCE_S / statistics.fmean(starts) for wall, starts in setups
            ),
            "solve_s": sum(latencies),
            "verdict_p50_ms": p50 * 1e3,
            "verdict_p90_ms": p90 * 1e3,
            "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "loop": "closed: 1 caller, next call after the previous verdict; "
                "calls in-process through knx.cli.main(argv)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "sizes": raw["sizes"],
        "calls_per_pass": len(raw["size_classes"]),
        "passes": len(untraced),
        "wall_s_per_pass": [sum(p["latencies"]) for p in untraced],
        "reference_s": REFERENCE_S,
        "reference_s_range": [min(r for p in untraced for r in p["references"]),
                              max(r for p in untraced for r in p["references"])],
        "wall_setup_s_samples": [wall for wall, _ in setups],
        "start_reference_s": START_REFERENCE_S,
        "interpreter_starts_s": [starts for _, starts in setups],
        "percentile_samples": len(latencies),
        "samples_beyond_p90": sum(x > p90 for x in latencies),
        "p50_size_class": percentile_class(latencies, classes, p50),
        "p90_size_class": percentile_class(latencies, classes, p90),
        "failed_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures[:20],
    }
    return {"record": record, "correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print(json.dumps({"record": result.pop("record")}), flush=True)
            results[name] = result
    except BenchmarkError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
