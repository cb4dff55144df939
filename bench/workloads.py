"""Seeded problem files and call lists for the four benchmark workloads.

Everything here is plain JSON built from ``random.Random(seed)``: the
generators never import ``knx``, so the program only ever sees the files.
Each call carries the independent expected answer that ``checks.py``
compares its output against, and a ``verdict_class`` that does not depend
on the seed (a different seed changes the files, not the kind of answer).

The class counts in each ``*_MIX`` table are fixed so that the median and
the p90 of the per-call latencies each fall well inside one size class,
not on the boundary between two, where the percentile would jump from run
to run.  The call order is a seeded shuffle, so every class is sampled
across the whole pass rather than in one stretch of it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("cherednik", "torus_oracle", "semigroup", "reject")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``knx <command> <file> <flags...>``."""

    command: str
    file: str
    flags: tuple[str, ...]
    size_class: str
    verdict_class: str
    check: str  # name of the checker in checks.CHECKERS
    expected: dict = field(default_factory=dict)

    def argv(self, directory: str) -> list[str]:
        return [self.command, f"{directory}/{self.file}", *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]  # file name -> exact file text
    calls: tuple[Call, ...]
    sizes: dict  # problem sizes, recorded in the result


def build(name: str, seed: int) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))


def q(x) -> str:
    """Rational string in the problem-file format."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dump(problem: dict) -> str:
    return json.dumps(problem, sort_keys=True) + "\n"


def _shuffled(rng: random.Random, units: list) -> tuple[Call, ...]:
    """Calls in a seeded order; a tuple of calls stays together, in order."""
    units = [u if isinstance(u, tuple) else (u,) for u in units]
    rng.shuffle(units)
    return tuple(call for unit in units for call in unit)


class _Files:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.files: dict[str, str] = {}

    def add(self, problem) -> str:
        name = f"{self.prefix}{len(self.files):03d}.json"
        self.files[name] = problem if isinstance(problem, str) else _dump(problem)
        return name


# --------------------------------------------------------------------------
# cherednik: gl(n) acting on matrices plus a vector, n = 2, 3

# (n, forbidden calls, check calls) per pass: 104 gl(2) and 2 gl(3) calls.
# Sorted by latency, p50 is the 53rd and p90 the 95th call, both among the
# gl(2) calls, and 11 calls (9 gl(2), 2 gl(3)) lie beyond p90; the gl(3)
# calls are a third of the pass time.  gl(4) is left out: one gl(4) call
# takes 17-30 s on a 2-vCPU x86-64 sandbox, and every call of the list runs
# in each of several passes a run.
CHEREDNIK_MIX = ((2, 52, 52), (3, 1, 1))
_CHI_SCALES = ("1", "2", "3", "1/2", "3/2", "2/3", "4/3", "5/4")


def _cherednik_weights(n: int) -> list[list[str]]:
    """e_i - e_j for all i, j (the matrices), then e_i (the vector)."""
    weights = []
    for i in range(n):
        for j in range(n):
            w = [0] * n
            w[i] += 1
            w[j] -= 1
            weights.append([q(x) for x in w])
    for i in range(n):
        weights.append([q(int(i == j)) for j in range(n)])
    return weights


def _cherednik_problem(rng: random.Random, n: int, c: dict) -> dict:
    weights = _cherednik_weights(n)
    rng.shuffle(weights)
    return {
        "knx_version": 1,
        "group": {"type": "gl", "n": n},
        "weights": weights,
        "mode": "cotangent",
        "chi": [rng.choice(_CHI_SCALES)] * n,
        "c": c,
        "orientation": "positive",
    }


def _cherednik_t(rng: random.Random, n: int, violated: bool) -> Fraction:
    if violated:  # on the locus of a random stratum k
        k = rng.randint(1, n)
        return Fraction(1, 2) + Fraction(rng.randint(0, 12), k)
    # reduced denominator p > n: off every locus 1/2 + (1/k)Z>=0, k <= n
    p = rng.choice([p for p in (5, 7, 11, 13) if p > n])
    j = rng.choice([j for j in range(-12, 25) if j % p])
    return Fraction(1, 2) + Fraction(j, p)


def _build_cherednik(rng: random.Random) -> Workload:
    files = _Files("cherednik_")
    calls = []
    for n, n_forbidden, n_check in CHEREDNIK_MIX:
        size = f"gl({n})"
        ones = ["1"] * n
        for _ in range(n_forbidden):
            name = files.add(_cherednik_problem(rng, n, {"base": ["0"] * n, "direction": ones}))
            calls.append(Call("forbidden", name, ("--json",), size, "Parametric",
                              "cherednik_forbidden", {"n": n}))
        for i in range(n_check):
            violated = i % 2 == 0
            t = _cherednik_t(rng, n, violated)
            name = files.add(_cherednik_problem(rng, n, {"base": [q(t)] * n}))
            calls.append(Call("check", name, ("--json",), size,
                              "Violated" if violated else "Certified",
                              "cherednik_check", {"n": n, "t": q(t)}))
    sizes = {
        f"gl({n})": {"weights": n * n + n, "forbidden_calls": f, "check_calls": c}
        for n, f, c in CHEREDNIK_MIX
    }
    return Workload("cherednik", files.files, _shuffled(rng, calls), sizes)


# --------------------------------------------------------------------------
# torus_oracle: many small random torus problems, check then oracle

# (size class, rank, weight count, problems) per pass; each problem gives a
# check and an oracle call.  Sorted by latency, the 118 calls run: 40
# rank-1 checks, 40 rank-1 oracle calls, 16 rank-2 checks, 16 rank-2
# oracle calls, 6 rank-3/4 calls.  p50 (59th) falls in the middle of the
# rank-1 oracle calls and p90 (106th) among the rank-2 oracle calls, 6 from
# their top.  Within a group, costs spread with the seed's weights, and a
# percentile between two groups of one class would jump from seed to seed.
# So each rank takes one weight count, and there are many rank-2 problems:
# on a 2-vCPU x86-64 sandbox their oracle calls take 24-39 ms with 3
# weights and 50-75 ms with 4.  Rank-1 oracle calls with 4 weights take
# 3.1-4.1 ms when the weights have two distinct magnitudes and 4.4-5.5 ms
# with three, so rank-1 weights take all of 1, 2 and 3.  With 4 weights a
# rank-3 problem's cost varies by half from seed to seed, and a rank-4 one
# takes 2 s.  General-position weights fix the flat structure of a class.
TORUS_MIX = (
    ("rank1", 1, 4, 40),
    ("rank2", 2, 3, 16),
    ("rank3-4", 3, 3, 2),
    ("rank3-4", 4, 3, 1),
)


def _general_position(weights: list[list[int]], rank: int) -> bool:
    """Every subset of at most ``rank`` weights is linearly independent."""
    for size in range(1, min(rank, len(weights)) + 1):
        for subset in combinations(weights, size):
            if _int_rank(subset) < size:
                return False
    return True


def _int_rank(rows) -> int:
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _torus_problem(rng: random.Random, rank: int, count: int) -> dict:
    while True:
        weights = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(count)]
        if rank == 1:  # all three magnitudes: see TORUS_MIX
            if {abs(w[0]) for w in weights} == {1, 2, 3}:
                break
        elif _general_position(weights, rank):
            break
    chi = [0] * rank
    while not any(chi):
        chi = [rng.randint(-3, 3) for _ in range(rank)]
    base = [Fraction(rng.randint(-12, 12), 2) for _ in range(rank)]
    return {
        "knx_version": 1,
        "group": {"type": "torus", "rank": rank},
        "weights": [[q(x) for x in w] for w in weights],
        "mode": "cotangent",
        "chi": [q(x) for x in chi],
        "c": {"base": [q(x) for x in base]},
    }


def _build_torus_oracle(rng: random.Random) -> Workload:
    files = _Files("torus_")
    calls = []
    for size, rank, count, problems in TORUS_MIX:
        for _ in range(problems):
            problem = _torus_problem(rng, rank, count)
            name = files.add(problem)
            expected = {"weights": problem["weights"], "c": problem["c"]["base"], "key": name}
            calls.append((  # the oracle checker compares with this check's strata
                Call("check", name, ("--json",), size, "check", "torus_check", expected),
                Call("oracle", name, ("--json", "--samples", "0"), size,
                     "oracle agrees", "torus_oracle", {"key": name}),
            ))
    sizes = {
        f"rank{r}_w{w}": {"class": c, "rank": r, "weights": w, "problems": p}
        for c, r, w, p in TORUS_MIX
    }
    return Workload("torus_oracle", files.files, _shuffled(rng, calls), sizes)


# --------------------------------------------------------------------------
# semigroup: slice generators {a, a+1}/L with large c(beta)

# (size class, rank, verdict, lowest a, calls) per pass; "Parametric" rows
# are forbidden calls, the others check calls.  Each row uses a = low,
# low + 1, ... (at most low + 4) in turn, so the cost of a pass does not
# depend on the seed (the union is quadratic in the conductor, i.e. ~a^4);
# the seed draws L, chi, c and the order.  Of 107 calls, 90 are small (p50
# falls there) and 15 medium: p90, the 97th call by latency, is the 6th or
# 7th of them, and 11 calls, the 2 large ones among them, lie beyond it.
SEMIGROUP_MIX = (
    ("small", 1, "Violated", 100, 15),
    ("small", 1, "Certified", 100, 15),
    ("small", 1, "Parametric", 100, 30),
    ("small", 1, "Violated", 300, 9),
    ("small", 1, "Certified", 300, 9),
    ("small", 2, "Certified", 50, 12),
    ("medium", 1, "Parametric", 300, 3),
    ("medium", 1, "Violated", 550, 3),
    ("medium", 1, "Certified", 550, 3),
    ("medium", 2, "Violated", 50, 3),
    ("medium", 2, "Parametric", 40, 3),
    ("large", 1, "Parametric", 550, 1),
    ("large", 2, "Parametric", 60, 1),
)
WITNESS_RANGE = (9 * 10**6, 10**7)  # m = L * (c(beta) - shift) of Violated checks


def _semigroup_weights(a: int, L: int, rank: int) -> list[list[str]]:
    g1, g2 = q(Fraction(a, L)), q(Fraction(a + 1, L))
    if rank == 1:
        return [[g1], [g2]]
    return [[g1, "0"], [g2, "0"], ["0", g1], ["0", g2]]


def _sylvester_gap(rng: random.Random, a: int, low: int) -> int:
    """A gap m = qa + r (r > q) of <a, a+1> with q >= low."""
    quotient = rng.randint(low, a // 4)
    return quotient * a + rng.randint(quotient + 1, a // 2 - 1)


def _build_semigroup(rng: random.Random) -> Workload:
    files = _Files("semigroup_")
    calls = []
    sizes = {}
    for size, rank, verdict, low, count in SEMIGROUP_MIX:
        command = "forbidden" if verdict == "Parametric" else "check"
        a_values = [low + j % 5 for j in range(count)]
        rng.shuffle(a_values)
        for a in a_values:
            L = rng.randint(1, 6)
            shift1 = Fraction(2 * a + 1, 2 * L)  # half the pairing sum of one axis
            problem = {
                "knx_version": 1,
                "group": {"type": "torus", "rank": rank},
                "weights": _semigroup_weights(a, L, rank),
                "mode": "cotangent",
                "chi": [rng.choice(_CHI_SCALES)] * rank,
                "orientation": "positive",
            }
            expected = {"a": a, "L": L, "rank": rank, "weights": problem["weights"]}
            if command == "forbidden":
                c0 = Fraction(rng.randint(-50, 50), L)
                problem["c"] = {"base": [q(c0)] * rank, "direction": ["1"] * rank}
                expected["c0"] = q(c0)
            else:
                if verdict == "Violated":  # far past the conductor: a witness exists
                    m = [rng.randint(*WITNESS_RANGE) for _ in range(rank)]
                else:  # rank 2: m1, m2 and m1 + m2 all gaps, as r1 + r2 < a
                    m = [_sylvester_gap(rng, a, a // 8) for _ in range(rank)]
                base = [shift1 + Fraction(mi, L) for mi in m]
                problem["c"] = {"base": [q(x) for x in base]}
                expected["c"] = problem["c"]["base"]
            name = files.add(problem)
            calls.append(Call(command, name, ("--json",), size, verdict,
                              f"semigroup_{command}", expected))
        sizes[f"{size}/{command}/{verdict}/rank{rank}/a{low}"] = {
            "calls": count,
            "a": [min(a_values), max(a_values)],
            "max_conductor": max(a_values) * (max(a_values) - 1),
        }
    return Workload("semigroup", files.files, _shuffled(rng, calls), sizes)


# --------------------------------------------------------------------------
# reject: malformed, mismatched and oversized problem files

REJECT_TINY_ROUNDS = 6  # rounds of the 14 malformed/mismatched cases
REJECT_CAP_CALLS = 10
REJECT_GL_CLAIMS = 20  # gl(n) claims, n in [GL_CLAIM_LOW, GL_CLAIM_LOW + 40)
GL_CLAIM_LOW = 96


def _torus_file(rng: random.Random, rank: int = 2, **overrides) -> dict:
    """A small valid torus problem, with ``overrides`` replacing top-level keys."""
    problem = {
        "knx_version": 1,
        "group": {"type": "torus", "rank": rank},
        "weights": [[q(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(3)],
        "chi": [q(rng.randint(1, 3)) for _ in range(rank)],
    }
    problem.update(overrides)
    return problem


def _malformed_cases(rng: random.Random) -> list[tuple[str, str | dict, tuple[str, ...]]]:
    """(label, file content, (command, flags...)) of the cases that exit with 2."""
    r = rng.randint(1, 9)
    bad_key = rng.choice(["weight", "chi2", "groups", "Mode", "comment"])
    return [
        ("float_weight", _torus_file(rng, weights=[[r / 4, 1], [1, 2]]), ("strata", "--json")),
        ("float_chi", _torus_file(rng, chi=[r / 8, "1"]), ("strata", "--json")),
        ("unknown_key", dict(_torus_file(rng), **{bad_key: "1"}), ("strata", "--json")),
        ("unknown_group_key",
         _torus_file(rng, group={"type": "torus", "rank": 2, "n": r}), ("strata", "--json")),
        ("bad_version", _torus_file(rng, knx_version=1 + r), ("strata", "--json")),
        ("ragged_weights",
         _torus_file(rng, weights=[[q(r), "1"], [q(r)]]), ("strata", "--json")),
        ("chi_length", _torus_file(rng, chi=[q(r)] * 3), ("strata", "--json")),
        ("check_without_c", _torus_file(rng), ("check", "--json")),
        ("forbidden_fixed_c",
         _torus_file(rng, c={"base": [q(r), "0"]}), ("forbidden", "--json")),
        ("not_json", '{"knx_version": 1, "group": {"type": "torus", "rank": %d' % r,
         ("strata", "--json")),
        ("c_on_roots",
         {"knx_version": 1, "group": {"type": "gl", "n": 2},
          "weights": [["1", "0"], ["0", "1"]], "chi": ["1", "1"],
          "c": {"base": [q(r), "0"]}}, ("check", "--json")),
        ("bad_mode", _torus_file(rng, mode=rng.choice(["cotan", "RAW", "both"])),
         ("strata", "--json")),
        ("empty_weights", _torus_file(rng, weights=[]), ("strata", "--json")),
        ("bad_rational",
         _torus_file(rng, chi=[rng.choice(["1/0", "one", "2.5", "1//2"]), "1"]),
         ("strata", "--json")),
    ]


def _build_reject(rng: random.Random) -> Workload:
    files = _Files("reject_")
    calls = []
    for _ in range(REJECT_TINY_ROUNDS):
        for label, content, (command, *flags) in _malformed_cases(rng):
            name = files.add(content)
            calls.append(Call(command, name, tuple(flags), "malformed", "exit 2",
                              "exit_code", {"exit": 2, "case": label}))
    for i in range(REJECT_CAP_CALLS):
        if i % 2 == 0:  # the gl(5) preset: 31 distinct weights against a cap of 24
            n = 5
            name = files.add(_cherednik_problem(rng, n, {"base": ["0"] * n, "direction": ["1"] * n}))
            calls.append(Call("forbidden", name, ("--json",), "cap", "exit 3",
                              "exit_code", {"exit": 3, "case": "gl5_preset"}))
        else:
            weights = [[q(k + 1), q(-k), q(2 * k + 1)] for k in range(rng.randint(6, 9))]
            name = files.add(_torus_file(rng, rank=3, weights=weights))
            calls.append(Call("strata", name, ("--json", "--max-weights", "8"), "cap",
                              "exit 3", "exit_code", {"exit": 3, "case": "max_weights"}))
    claims = []
    for i in range(REJECT_GL_CLAIMS):
        n = GL_CLAIM_LOW + 2 * i + rng.randint(0, 1)
        claims.append(n)
        problem = {
            "knx_version": 1,
            "group": {"type": "gl", "n": n},
            "weights": [[q(rng.randint(1, 5))] for _ in range(rng.randint(1, 3))],
            "chi": ["1"],
        }
        if i % 2:
            problem["c"] = {"base": [q(rng.randint(1, 5))]}
        name = files.add(problem)
        command = "check" if i % 2 else "strata"
        calls.append(Call(command, name, ("--json",), "gl_claim", "exit 2",
                          "exit_code", {"exit": 2, "case": f"gl({n}) claim"}))
    sizes = {
        "malformed": {"calls": REJECT_TINY_ROUNDS * 14},
        "cap": {"calls": REJECT_CAP_CALLS, "gl5_distinct_weights": 31, "cap": 24},
        "gl_claim": {"calls": REJECT_GL_CLAIMS, "n": [min(claims), max(claims)]},
    }
    return Workload("reject", files.files, _shuffled(rng, calls), sizes)


_BUILDERS = {
    "cherednik": _build_cherednik,
    "torus_oracle": _build_torus_oracle,
    "semigroup": _build_semigroup,
    "reject": _build_reject,
}
