"""Child process of the benchmark: set up one workload and run it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
        [--setup-only]

Set-up imports ``knx`` from ``src/`` of this checkout and writes the seeded
problem files into DIR; the monotonic clock reading at the end of set-up is
reported as ``ready``.  The worker then runs the workload's call list as a
closed loop, one call at a time through ``knx.cli.main(argv)`` with stdout
and stderr captured, and checks each output before the next call, outside
the timed region.  Passes over the call list repeat until the next one
would end after S seconds; there is always at least one.  After every call
the worker also times one run of a fixed reference loop (``hostspeed.py``),
so that ``run.py`` can state times at a fixed host speed.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced.

The last line of stdout is one JSON object with the raw measurements,
which ``run.py`` turns into metrics.  DIR is removed before exiting.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, sample  # noqa: E402

LOCAL_REFERENCES = 4  # reference runs either side of a call that scale it


def import_knx():
    """``knx.cli`` from this checkout's ``src/``, never an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import knx.cli

    if not Path(knx.__file__).resolve().is_relative_to(src):
        raise ImportError(f"knx was imported from {knx.__file__}, not from {src}")
    return knx.cli


def write_files(workload: workloads.Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True)
    for name, text in workload.files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def timed_call(cli, argv: list[str]):
    """(exit code, stdout, seconds, exception text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a raising call is a failed call
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed, error


def run_pass(cli, workload: workloads.Workload, workdir: Path) -> dict:
    """One pass over the call list: per-call latency, reference runs, checks."""
    context: dict = {}
    latencies, references, failures = [], [], []
    for call in workload.calls:
        gc.collect()
        rc, out, elapsed, error = timed_call(cli, call.argv(str(workdir)))
        latencies.append(elapsed)
        references.append(sample())
        if error is not None:
            problems = [f"raised {error}"]
        else:
            try:
                problems = checks.CHECKERS[call.check](rc, out, call.expected, context)
            except Exception as exc:  # malformed output the checker could not read
                problems = [f"checker could not read the output: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{call.command} {call.file} [{call.size_class}]: "
                            + "; ".join(problems))
    return {"latencies": latencies, "references": references, "failures": failures}


def run_passes(cli, workload: workloads.Workload, workdir: Path, budget: float) -> list[dict]:
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(cli, workload, workdir))
        now = time.monotonic()
        if now - start + (now - began) > budget:
            return passes


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "knx").rglob("*.py"))
    )


def scaled(latency: float, references: list[float]) -> float:
    """``latency`` at the reference host speed, given reference runs around it."""
    return latency * REFERENCE_S / min(references)


def best_latencies(passes: list[dict]) -> list[float]:
    """Each call's fastest run over the passes, at the reference host speed.

    Other tenants of the host only ever add time to a call, so its fastest
    run is the steadiest estimate of its own cost.  The host's speed drifts
    within a second, so each run is scaled by the fastest of the reference
    runs timed right around it: after each of the LOCAL_REFERENCES calls
    before it, after it, and after each of the LOCAL_REFERENCES calls after.
    """
    def nearby(references: list[float], i: int) -> list[float]:
        return references[max(0, i - LOCAL_REFERENCES):i + LOCAL_REFERENCES + 1]

    calls = range(len(passes[0]["latencies"]))
    return [min(scaled(p["latencies"][i], nearby(p["references"], i)) for p in passes)
            for i in calls]


def measure(cli, workload, workdir: Path, seconds: float, trace: bool) -> dict:
    if not trace:
        passes = run_passes(cli, workload, workdir, seconds)
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        return {"passes": passes, "peak_rss_kib": peak_rss_kib}
    from tracing import Tracer

    passes = run_passes(cli, workload, workdir, seconds / 2)
    tracer = Tracer()
    with tracer.install():
        traced = run_passes(cli, workload, workdir, seconds / 2)
    per_layer = tracer.metrics(len(traced))
    # the per-pass mean of the traced wall time, which the self times add up to
    per_layer["trace.solve_s"] = sum(sum(p["latencies"]) for p in traced) / len(traced)
    per_layer["trace.overhead_ratio"] = sum(best_latencies(traced)) / sum(best_latencies(passes))
    per_layer["src.lines"] = source_lines()
    return {"passes": passes, "traced": traced, "per_layer": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        cli = import_knx()
        workload = workloads.build(args.workload, args.seed)
        write_files(workload, args.workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(measure(cli, workload, args.workdir, args.seconds, bool(args.trace)))
            result["sizes"] = workload.sizes
            result["size_classes"] = [c.size_class for c in workload.calls]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
