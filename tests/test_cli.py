import json
import subprocess
import sys
import time

import pytest

import knx.strata
from knx.cli import main
from knx.groups import validate_weyl_stable
from knx.scalars import GramForm

from conftest import GOLDEN_DIR, GOLDEN_FILES


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_strata_cherednik_n2(capsys):
    code, out, err = run(capsys, "strata", GOLDEN_DIR / "cherednik_n2.json")
    assert code == 0
    assert out.count("beta=") == 2
    assert "semistable locus nonempty: yes" in out


def test_strata_projective(capsys):
    code, out, _ = run(capsys, "strata", GOLDEN_DIR / "proj_n2.json")
    assert code == 0
    assert out.count("beta=") == 1
    assert "beta=(-1)" in out


def test_strata_json_report(capsys):
    code, out, _ = run(capsys, "strata", GOLDEN_DIR / "torus_example_up.json", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "strata"
    assert len(data["strata"]) == 2
    assert data["semistable_nonempty"] is False


def test_strata_refuses_unmatched_drop_strata(tmp_path, capsys):
    problem = json.loads((GOLDEN_DIR / "cherednik_n2.json").read_text())
    _, plain, _ = run(capsys, "strata", GOLDEN_DIR / "cherednik_n2.json", "--json")
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps({**problem, "drop_strata": [["7", "7"]]}))
    code, out, err = run(capsys, "strata", path, "--json")
    assert code == 2 and out == ""
    assert "dropped strata do not match any enumerated stratum: (7, 7)" in err
    # (0, 1) is Weyl-conjugate to the stratum (1, 0), which is still listed
    path.write_text(json.dumps({**problem, "drop_strata": [["0", "1"]]}))
    code, out, _ = run(capsys, "strata", path, "--json")
    assert code == 0
    assert json.loads(out)["strata"] == json.loads(plain)["strata"]


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", GOLDEN_DIR / "cherednik_n2_t_3_4.json")
    assert code == 0 and "Certified" in out
    code, out, _ = run(capsys, "check", GOLDEN_DIR / "cherednik_n2_t_3_2.json")
    assert code == 1 and "Violated" in out
    assert out.count("VIOLATED") == 2


def test_forbidden_command(capsys):
    code, out, _ = run(capsys, "forbidden", GOLDEN_DIR / "cherednik_n2.json")
    assert code == 0
    assert "1/2 + (1/2)*Z>=0" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", GOLDEN_DIR / "proj_n1.json")
    assert code == 0
    assert "all subsets agree" in out


@pytest.mark.parametrize("problem", GOLDEN_FILES, ids=lambda p: p.stem)
def test_oracle_agrees_on_every_golden_problem(capsys, problem):
    code, out, _ = run(capsys, "oracle", problem, "--samples", "0")
    assert code == 0
    assert out.startswith("oracle cross-check: all subsets agree")


def test_negative_eps_den_is_a_usage_error(capsys):
    # eps = -1/2^K: a negative K is refused by the parser, not by a crash
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(GOLDEN_DIR / "proj_n1.json"), "--eps-den", "-1", "--samples", "0"])
    assert exc.value.code == 2
    assert "--eps-den" in capsys.readouterr().err


def test_eps_den_above_the_bound_is_a_usage_error(capsys):
    # the oracle's denominators grow as 2^K: K = 200,000 took 18 s, so a K
    # over the bound is refused before any problem is read
    started = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(GOLDEN_DIR / "proj_n1.json"), "--eps-den", "1001", "--samples", "0"])
    assert exc.value.code == 2
    assert "K must be between 0 and 1000" in capsys.readouterr().err
    assert time.monotonic() - started < 1.0


def test_negative_samples_is_a_usage_error(capsys):
    # a negative count of random self-checks is refused, not reported as
    # "-5 seeded problems, all agree"
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(GOLDEN_DIR / "proj_n1.json"), "--samples", "-5"])
    assert exc.value.code == 2
    assert "M must be at least 0, not -5" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_weights_below_one_is_a_usage_error(capsys, cap):
    # refused by the parser (exit 2), not reported as a cap error (exit 3)
    with pytest.raises(SystemExit) as exc:
        main(["strata", str(GOLDEN_DIR / "cherednik_n2.json"), "--max-weights", cap])
    assert exc.value.code == 2
    assert f"N must be at least 1, not {cap}" in capsys.readouterr().err


def test_oracle_at_the_largest_eps_den(capsys):
    # eps = -1/2^1000: every support of the gl(3) flats is solved on
    # integers of thousands of bits (0.3-0.6 s on a 2-vCPU x86-64 host)
    started = time.monotonic()
    code, out, _ = run(capsys, "oracle", GOLDEN_DIR / "cherednik_n3.json",
                       "--eps-den", "1000", "--samples", "0")
    assert code == 0 and "all subsets agree" in out
    assert time.monotonic() - started < 5.0


def test_runs_on_the_standard_library_alone():
    # -I -S leaves out site-packages and PYTHONPATH, so a third-party import
    # anywhere in the package fails here; -I also ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps bytecode out of the checkout
    src = GOLDEN_DIR.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import knx, knx.cli; "
            "sys.exit(knx.cli.main(['strata', sys.argv[2], '--json']))")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(src), str(GOLDEN_DIR / "cherednik_n2.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "strata"


def test_schema_rejects_empty_weights(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 1},
        "weights": [],
        "chi": ["1"],
    }))
    code, _, err = run(capsys, "strata", bad)
    assert code == 2
    assert "schema error" in err


def test_schema_rejects_float_rational(tmp_path, capsys):
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 1},
        "weights": [["1.5"]],
        "chi": ["1"],
    }))
    code, _, err = run(capsys, "check", bad)
    assert code == 2


def test_schema_rejects_non_ascii_digits(tmp_path, capsys):
    # "\u0662" is an Arabic-Indic 2 and "1/1\u0661" would read as 1/11
    for i, (weight, chi) in enumerate(((["\u0662"], ["1"]), (["1"], ["1/1\u0661"]))):
        bad = tmp_path / f"digits{i}.json"
        bad.write_text(json.dumps({
            "knx_version": 1,
            "group": {"type": "torus", "rank": 1},
            "weights": [weight],
            "chi": chi,
        }))
        code, out, err = run(capsys, "strata", bad)
        assert code == 2 and not out
        assert "not a rational string" in err


def test_schema_rejects_bare_numbers(tmp_path, capsys):
    bad = tmp_path / "number.json"
    bad.write_text(json.dumps({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 1},
        "weights": [[1]],
        "chi": ["1"],
    }))
    code, _, _ = run(capsys, "strata", bad)
    assert code == 2


def test_schema_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 1},
        "weights": [["1"]],
        "chi": ["1"],
        "surprise": True,
    }))
    code, _, _ = run(capsys, "strata", bad)
    assert code == 2


def test_schema_requires_version(tmp_path, capsys):
    bad = tmp_path / "nover.json"
    bad.write_text(json.dumps({
        "group": {"type": "torus", "rank": 1},
        "weights": [["1"]],
        "chi": ["1"],
    }))
    code, _, _ = run(capsys, "strata", bad)
    assert code == 2


def test_check_requires_fixed_c(capsys):
    code, _, err = run(capsys, "check", GOLDEN_DIR / "torus_example_up.json")
    assert code == 2


def test_cap_exceeded_exit(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 1},
        "weights": [[str(k)] for k in range(30)],
        "mode": "raw",
        "chi": ["1"],
    }))
    code, _, err = run(capsys, "strata", big)
    assert code == 3
    assert err == "error: 30 distinct weights exceed the cap of 24 (raise it with --max-weights)\n"
    # raising the cap makes it work
    code, _, _ = run(capsys, "strata", big, "--max-weights", "80")
    assert code == 0


def test_orientation_flag_overrides(capsys):
    code, out, _ = run(
        capsys, "strata", GOLDEN_DIR / "proj_n1.json", "--orientation", "positive"
    )
    assert code == 0
    assert "beta=(1)" in out


def test_orientation_flag_validates_the_problem_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_weyl_stable(*args)

    # the check runs when a shape's record is built: start from none
    knx.strata._shapes.cache_clear()
    monkeypatch.setattr(knx.strata, "validate_weyl_stable", counted)
    code, out, _ = run(
        capsys, "strata", GOLDEN_DIR / "cherednik_n3.json", "--orientation", "positive"
    )
    assert code == 0 and "positive orientation" in out
    assert len(calls) == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, "strata", "/nonexistent/file.json")
    assert code == 2


def test_unreadable_files_are_schema_errors(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"knx_version": 1, "group": "\xe9"}')
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100000 + "]" * 100000)
    for path in (not_utf8, too_deep):
        code, _, err = run(capsys, "strata", path)
        assert code == 2 and err.startswith("schema error: cannot read problem file")


def test_strictness_flag_parses_and_checks(tmp_path, capsys):
    data = json.loads((GOLDEN_DIR / "proj_n1.json").read_text())
    data["strictness"] = "full_V"
    f = tmp_path / "strict.json"
    f.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", f)
    assert code == 0  # torus: both strictness variants agree
    assert "strictness=full_V" in out


def test_custom_group_problem(tmp_path, capsys):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps({
        "knx_version": 1,
        "group": {
            "type": "custom",
            "rank": 2,
            "roots": [["1", "-1"], ["-1", "1"]],
            "simple_roots": [["1", "-1"]],
            "form": [["1", "0"], ["0", "1"]],
            "label": "gl2-by-hand",
        },
        "weights": [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]],
        "mode": "cotangent",
        "chi": ["1", "1"],
        "c": {"base": ["3/2", "3/2"]},
        "orientation": "positive",
    }))
    code, out, _ = run(capsys, "check", custom)
    assert code == 1  # same violated verdict as the gl(2) preset file
    assert out.count("VIOLATED") == 2


def test_invalid_custom_group_rejected(tmp_path, capsys):
    custom = tmp_path / "badgroup.json"
    custom.write_text(json.dumps({
        "knx_version": 1,
        "group": {
            "type": "custom",
            "rank": 2,
            "roots": [["1", "-1"]],
            "simple_roots": [["1", "-1"]],
        },
        "weights": [["1", "0"]],
        "chi": ["1", "1"],
    }))
    code, _, err = run(capsys, "strata", custom)
    assert code == 2  # roots not closed under negation


def test_repeated_root_rejected(tmp_path, capsys):
    # a root listed twice counted twice in the nilpotent part of the shift:
    # forbidden printed -1/2 + Z>=0 for beta = (1, 0), not 1/2 + Z>=0
    problem = {
        "knx_version": 1,
        "group": {"type": "custom", "rank": 2, "roots": [["1", "-1"], ["-1", "1"]],
                  "simple_roots": [["1", "-1"]]},
        "weights": [["1", "-1"], ["-1", "1"], ["1", "0"], ["0", "1"]],
        "chi": ["1", "1"],
        "c": {"base": ["0", "0"], "direction": ["1", "1"]},
        "orientation": "positive",
    }
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "forbidden", path)
    assert code == 0 and "beta=(1, 0): t in 1/2 + Z>=0" in out
    problem["group"]["roots"] *= 2
    path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "forbidden", path)
    assert code == 2 and out == ""
    assert err == "schema error: the root ('1', '-1') is listed more than once\n"


@pytest.mark.parametrize("name", ["cherednik_n3.json", "b2xgl1.json"])
def test_verdicts_never_build_the_dense_roots(tmp_path, name):
    # a fresh process, so no earlier test has read the cached groups' roots;
    # a custom factor reads its own while it is checked, the product does not
    problem = json.loads((GOLDEN_DIR / name).read_text())
    del problem["c"]["direction"]  # check needs a fixed c
    fixed = tmp_path / name
    fixed.write_text(json.dumps(problem))
    code = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from knx.cli import main\n"
        "from knx.problemfile import load_problem\n"
        "for command, path in (('strata', sys.argv[2]), ('check', sys.argv[3]), ('forbidden', sys.argv[2])):\n"
        "    for extra in ([], ['--json']):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main([command, path] + extra) in (0, 1), (command, extra)\n"
        "assert 'roots' not in vars(load_problem(sys.argv[2]).group)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(GOLDEN_DIR.parent / "src"), str(GOLDEN_DIR / name), str(fixed)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("simple_roots", [[["1", "-1"], ["-1", "1"]], None])
def test_simple_roots_that_are_not_a_base_rejected(tmp_path, capsys, simple_roots):
    # dependent simple roots left canonicalization reflecting back and forth,
    # and missing ones made the Weyl group trivial: both are schema errors
    problem = json.loads((GOLDEN_DIR / "cherednik_n2.json").read_text())
    problem["group"] = {"type": "custom", "rank": 2, "roots": [["1", "-1"], ["-1", "1"]]}
    if simple_roots is not None:
        problem["group"]["simple_roots"] = simple_roots
    bad = tmp_path / "not_a_base.json"
    bad.write_text(json.dumps(problem))
    start = time.perf_counter()
    code, out, err = run(capsys, "forbidden", bad)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "simple roots" in err


def test_non_invariant_chi_rejected(tmp_path, capsys):
    problem = {
        "knx_version": 1,
        "group": {"type": "gl", "n": 2},
        "weights": [["1", "0"], ["0", "1"]],
        "chi": ["1", "0"],
    }
    bad = tmp_path / "chi.json"
    bad.write_text(json.dumps(problem))
    code, out, err = run(capsys, "strata", bad)
    assert code == 2 and out == ""
    assert err == "schema error: chi does not vanish on the root ('1', '-1')\n"
    # a character of gl(2) is accepted
    problem["chi"] = ["1", "1"]
    bad.write_text(json.dumps(problem))
    code, _, _ = run(capsys, "strata", bad)
    assert code == 0
    # a claimed rank far beyond chi's length fails on the length alone
    problem["group"] = {"type": "gl", "n": 40}
    bad.write_text(json.dumps(problem))
    code, _, err = run(capsys, "strata", bad)
    assert code == 2 and "chi length does not match rank" in err


def test_weights_that_are_not_weyl_stable_rejected(tmp_path, capsys):
    # the strata are Weyl classes, which needs the Weyl group to permute
    # the weights; e_1 alone is moved off the set by the reflection s_1
    problem = {
        "knx_version": 1,
        "group": {"type": "gl", "n": 3},
        "weights": [["1", "0", "0"]],
        "chi": ["1", "1", "1"],
    }
    bad = tmp_path / "e1.json"
    bad.write_text(json.dumps(problem))
    code, out, err = run(capsys, "strata", bad)
    assert code == 2 and out == ""
    assert "the reflection in the simple root ('1', '-1', '0') does not permute the weights" in err
    # the whole orbit e_1, e_2, e_3 is accepted
    problem["weights"] += [["0", "1", "0"], ["0", "0", "1"]]
    bad.write_text(json.dumps(problem))
    code, _, _ = run(capsys, "strata", bad)
    assert code == 0


def test_rank_claims_checked_before_the_group_is_built(tmp_path, capsys):
    bad = tmp_path / "claim.json"

    def rejected(problem, command="strata"):
        bad.write_text(json.dumps({"knx_version": 1, **problem}))
        code, out, err = run(capsys, command, bad)
        assert code == 2 and out == ""
        return err

    start = time.perf_counter()
    err = rejected({"group": {"type": "gl", "n": 100000}, "weights": [["1"]], "chi": ["1"]})
    assert time.perf_counter() - start < 0.5  # gl(100000) would take hours
    assert "chi length does not match rank" in err
    product = {"type": "product", "factors": [{"type": "sl", "n": 100000}, {"type": "torus", "rank": 1}]}
    err = rejected({"group": product, "weights": [["1", "2"]], "chi": ["1", "1"]})
    assert "chi length does not match rank" in err
    err = rejected({"group": {"type": "gl", "n": 2}, "weights": [["1", "0"]], "chi": ["1", "1"],
                    "c": {"base": ["1", "0", "0"]}}, "check")
    assert "character base length does not match rank" in err
    err = rejected({"group": {"type": "torus", "rank": 2}, "weights": [["1", "0", "1"]],
                    "chi": ["1", "1"]})
    assert "weights, character and group rank disagree" in err
    err = rejected({"group": {"type": "gl", "n": 0}, "weights": [["1"]], "chi": ["1"]})
    assert "n must be >= 1" in err
    # a custom group is built after the length checks too: its identity
    # form alone has rank^2 entries
    start = time.perf_counter()
    err = rejected({"group": {"type": "custom", "rank": 2000}, "weights": [["1"]], "chi": ["1"]})
    assert time.perf_counter() - start < 0.5
    assert "chi length does not match rank" in err
    err = rejected({"group": {"type": "custom", "rank": 0}, "weights": [["1"]], "chi": ["1"]})
    assert "rank must be >= 1" in err


def timed_gl_check(tmp_path, capsys, n: int) -> float:
    problem = tmp_path / f"gl{n}.json"
    problem.write_text(json.dumps({
        "knx_version": 1,
        "group": {"type": "gl", "n": n},
        "weights": [["1"] * n],
        "chi": ["1"] * n,
        "c": {"base": ["1"] * n},
    }))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", problem)
    elapsed = time.perf_counter() - start
    assert code == 0 and out.startswith("exactness verdict: Certified")
    return elapsed


def test_invariance_checks_are_fast_on_gl60(tmp_path, capsys):
    # chi and c are paired with the 3540 roots of gl(60); each root has two
    # nonzero entries, which is all a pairing has to visit
    # about 0.8 s on a 2-vCPU x86-64 host, and 8 s when each pairing walks
    # every entry of the form
    assert timed_gl_check(tmp_path, capsys, 60) < 3.0


def test_roots_are_paired_without_a_form_pairing_each_on_gl60(tmp_path, capsys, monkeypatch):
    # chi, c and beta are each multiplied by the form once and then paired
    # with the two nonzero entries of every root; one GramForm.apply per
    # root pairing would be 4 x 3540 calls (14,233 in all on gl(60))
    calls = 0
    apply = GramForm.apply

    def counted(form, u, v):
        nonlocal calls
        calls += 1
        return apply(form, u, v)

    monkeypatch.setattr(GramForm, "apply", counted)
    timed_gl_check(tmp_path, capsys, 60)
    assert calls < 60 * 59


def test_root_pairings_visit_only_nonzero_form_entries_on_gl100(tmp_path, capsys):
    # 9900 roots, each paired with chi, c and the stratum's beta; a pairing
    # visits the nonzero entries of the form's rows, one per row for gl(n):
    # about 2.2 s on a 2-vCPU x86-64 host, and 3.8 s when it tests every
    # entry of each dense row
    assert timed_gl_check(tmp_path, capsys, 100) < 5.0
