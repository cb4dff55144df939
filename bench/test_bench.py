"""Tests of the benchmark's own code: inputs, checkers, tracing, entry point."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(name, tmp_path):
    first, second = workloads.build(name, 11), workloads.build(name, 11)
    worker.write_files(first, tmp_path / "a")
    worker.write_files(second, tmp_path / "b")
    for file in first.files:
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert first.calls == second.calls


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_changes_files_but_not_verdict_classes(name):
    first, second = workloads.build(name, 11), workloads.build(name, 12)
    assert first.files != second.files
    assert first.files.keys() == second.files.keys()

    def classes(w):
        return Counter((c.command, c.flags, c.size_class, c.verdict_class) for c in w.calls)

    assert classes(first) == classes(second)


def test_call_lists_keep_ten_samples_beyond_p90():
    for name in workloads.WORKLOADS:
        assert len(workloads.build(name, 1).calls) >= 100, name


def _small_workload(name: str, calls: int, size_class: str) -> workloads.Workload:
    workload = workloads.build(name, 5)
    chosen = [c for c in workload.calls if c.size_class == size_class][:calls]
    return replace(workload, calls=tuple(chosen))


def _traced_pass(name: str, calls: int, size_class: str, tmp_path) -> dict:
    cli = worker.import_knx()
    workload = _small_workload(name, calls, size_class)
    worker.write_files(workload, tmp_path / "files")
    tracer = tracing.Tracer()
    with tracer.install():
        result = worker.run_pass(cli, workload, tmp_path / "files")
    assert result["failures"] == []
    return tracer.metrics()


def test_traced_cherednik_reaches_min_norm(tmp_path):
    metrics = _traced_pass("cherednik", 2, "gl(2)", tmp_path)
    assert metrics["convex.min_norm_calls"] > 0
    assert metrics["strata.flats"] >= metrics["strata.found"] > 0
    assert metrics["linalg.solve_calls"] > 0 and metrics["scalars.gram_apply_calls"] > 0
    assert metrics["problemfile.calls"] == 2


def test_traced_torus_oracle_reaches_numeric_min_norm(tmp_path):
    metrics = _traced_pass("torus_oracle", 2, "rank1", tmp_path)
    assert metrics["oracle.numeric_min_norm_calls"] > 0
    assert metrics["oracle.subsets"] > 0


def test_traced_semigroup_builds_semigroups(tmp_path):
    metrics = _traced_pass("semigroup", 2, "small", tmp_path)
    assert metrics["semigroup.build_calls"] > 0
    assert metrics["semigroup.max_conductor"] >= 99 * 100


def test_self_times_add_up_to_the_traced_calls(tmp_path):
    cli = worker.import_knx()
    workload = _small_workload("cherednik", 1, "gl(2)")
    worker.write_files(workload, tmp_path / "files")
    tracer = tracing.Tracer()
    with tracer.install():
        worker.run_pass(cli, workload, tmp_path / "files")
    (root,) = [s for s in tracer.spans if s[3] == -1]
    self_total = sum(v for k, v in tracer.metrics().items() if k in tracing._SELF_TIME)
    assert self_total == pytest.approx(root[2] - root[1], rel=1e-6)


def test_install_patches_every_lookup_site_and_restores():
    import knx.convex
    import knx.linalg
    import knx.oracle
    import knx.scalars
    import knx.strata

    solve, rank = knx.linalg.solve_exact, knx.linalg.matrix_rank
    min_norm, apply = knx.convex.min_norm_point, knx.scalars.GramForm.apply
    with tracing.Tracer().install():
        for module in (knx.convex, knx.oracle):
            assert module.solve_exact is not solve and module.matrix_rank is not rank
        assert knx.strata.min_norm_point is not min_norm
        assert knx.scalars.GramForm.apply is not apply
    for module in (knx.linalg, knx.convex, knx.oracle):
        assert module.solve_exact is solve and module.matrix_rank is rank
    assert knx.strata.min_norm_point is knx.convex.min_norm_point is min_norm
    assert knx.scalars.GramForm.apply is apply


def test_best_latencies_take_each_calls_fastest_run_at_reference_speed():
    from hostspeed import REFERENCE_S

    passes = [
        {"latencies": [3.0, 1.0], "references": [2 * REFERENCE_S, 4 * REFERENCE_S]},
        {"latencies": [2.0, 5.0], "references": [3 * REFERENCE_S]},
    ]
    assert worker.best_latencies(passes) == pytest.approx([2 / 3, 0.5])


def test_best_latencies_scale_by_nearby_reference_runs_only():
    from hostspeed import REFERENCE_S

    calls = 2 * worker.LOCAL_REFERENCES + 2
    references = [REFERENCE_S] + [2 * REFERENCE_S] * (calls - 1)
    best = worker.best_latencies([{"latencies": [1.0] * calls, "references": references}])
    assert best[0] == pytest.approx(1.0) and best[-1] == pytest.approx(0.5)


def test_per_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS)
    computed = set(tracing.Tracer().metrics())
    filled_by_worker = {"trace.solve_s", "trace.overhead_ratio", "src.lines"}
    assert computed | filled_by_worker == set(tracing.METRICS)


def test_sylvester_closed_forms_match_brute_force():
    for a in (2, 3, 7, 12):
        gens = [Fraction(a), Fraction(a + 1)]
        for m in range(3 * a * a):
            assert checks.sylvester_member(m, a) == checks.in_semigroup(Fraction(m), gens)
        assert len(checks.sylvester_gaps(a)) == (a - 1) * a // 2


def _first_output(name: str, command: str, verdict: str, tmp_path):
    cli = worker.import_knx()
    workload = workloads.build(name, 5)
    worker.write_files(workload, tmp_path)
    call = next(c for c in workload.calls if c.size_class in ("gl(2)", "small")
                and (c.command, c.verdict_class) == (command, verdict))
    rc, out, _, error = worker.timed_call(cli, call.argv(str(tmp_path)))
    assert error is None
    return call, rc, out


def test_checkers_reject_altered_outputs(tmp_path):
    call, rc, out = _first_output("cherednik", "forbidden", "Parametric", tmp_path / "c")
    assert checks.CHECKERS[call.check](rc, out, call.expected, {}) == []
    doc = json.loads(out)
    doc["loci"][0]["locus"]["modulus"] = "1/7"
    assert checks.CHECKERS[call.check](rc, json.dumps(doc), call.expected, {})
    assert checks.CHECKERS[call.check](1, out, call.expected, {})

    call, rc, out = _first_output("semigroup", "check", "Violated", tmp_path / "s")
    assert checks.CHECKERS[call.check](rc, out, call.expected, {}) == []
    doc = json.loads(out)
    witness = next(c for c in doc["checks"] if c["witness"])["witness"]
    witness[0][1] += 1
    assert checks.CHECKERS[call.check](rc, json.dumps(doc), call.expected, {})

    expected = {"exit": 3, "case": "gl5_preset"}
    assert checks.exit_code(3, "", expected, {}) == []
    assert checks.exit_code(2, "", expected, {})


def test_end_to_end_metrics_of_one_short_run():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reject", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    record = json.loads(proc.stdout.splitlines()[0])["record"]
    assert record["samples_beyond_p90"] >= 10
    assert record["failed_ratio"] == {"value": 0.0, "unit": "ratio"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reject", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
