"""Independent output checkers, one per kind of call.

Each checker re-derives the expected answer from closed forms and the
problem data alone (never from ``knx``) and returns a list of problems
found; an empty list means the output is correct.

* Cherednik gl(n): strata sum_{i<=k} e_i, shift k/2, per-stratum forbidden
  locus 1/2 + (1/k)Z>=0; ``check`` is Violated exactly on their union.
* Torus problems: c(beta), the shift and the slice generators are
  recomputed from the weights; membership by an exact bounded DP; every
  Violated witness must re-sum to c(beta); the oracle must agree and its
  directions must equal the strata of the ``check`` call on the same file.
* Semigroup problems: <a, a+1> has conductor (a-1)a and (a-1)a/2 gaps
  (Sylvester), and m is a member iff m >= (a+1) * (m * (a+1)^-1 mod a).
* Rejected files: the exit code, and nothing on stdout.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

F = Fraction


def _json(out: str, problems: list[str]):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _vec(entries) -> tuple[Fraction, ...]:
    return tuple(F(x) for x in entries)


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), F(0))


def _witness_problems(check: dict, shift: Fraction, gens: set) -> list[str]:
    witness = check.get("witness")
    if witness is None:
        return ["Violated stratum without a witness"]
    total = shift
    for g, n in witness:
        if F(g) not in gens or not isinstance(n, int) or n < 0:
            return [f"witness term {g} x {n} is not a nonnegative generator count"]
        total += F(g) * n
    if total != F(check["c_of_beta"]):
        return [f"witness re-sums to {total}, not c(beta) = {check['c_of_beta']}"]
    return []


def _status_problems(rc, doc: dict, violated: bool) -> list[str]:
    want = ("Violated", 1) if violated else ("Certified", 0)
    if (doc.get("status"), rc) != want:
        return [f"status {doc.get('status')!r} / exit {rc}, expected {want}"]
    return []


# --------------------------------------------------------------------------
# cherednik


def _cherednik_strata(n: int) -> list[tuple]:
    return sorted(tuple(F(int(i < k)) for i in range(n)) for k in range(1, n + 1))


def _cherednik_k(beta: tuple, n: int) -> int | None:
    """k for a Weyl conjugate of e_1 + ... + e_k, else None."""
    if len(beta) != n or any(x not in (0, 1) for x in beta) or not any(beta):
        return None
    return int(sum(beta))


def _on_cherednik_locus(t: Fraction, k: int) -> bool:
    j = (t - F(1, 2)) * k
    return j.denominator == 1 and j >= 0


def _cherednik_common(doc: dict, n: int, problems: list[str]) -> None:
    dominant = sorted(_vec(s["beta_dominant"]) for s in doc.get("strata", []))
    if dominant != _cherednik_strata(n):
        problems.append(f"gl({n}) strata {dominant} are not sum_(i<=k) e_i, k = 1..{n}")


def cherednik_forbidden(rc, out, expected, context) -> list[str]:
    n = expected["n"]
    problems: list[str] = []
    if rc != 0:
        return [f"exit {rc}, expected 0"]
    doc = _json(out, problems)
    if doc is None:
        return problems
    _cherednik_common(doc, n, problems)
    ks = []
    for locus in doc.get("loci", []):
        k = _cherednik_k(_vec(locus["beta"]), n)
        ks.append(k)
        want = _ray(F(1, 2), F(1, k or 1))
        if k is None or locus["locus"] != want or F(locus["shift"]) != F(k, 2):
            problems.append(f"locus {locus} is not t in 1/2 + (1/{k})Z>=0 with shift {k}/2")
    if sorted(ks, key=lambda k: k or 0) != list(range(1, n + 1)):
        problems.append(f"loci cover strata {ks}, expected k = 1..{n}")
    # (1/k)Z is contained in (1/m)Z iff k | m, so only k > n/2 survive the union
    want_union = sorted(F(1, k) for k in range(n // 2 + 1, n + 1))
    union = doc.get("union", [])
    if sorted(F(u["modulus"]) for u in union) != want_union or any(
        u != _ray(F(1, 2), F(u["modulus"])) for u in union
    ):
        problems.append(f"union {union} is not 1/2 + (1/k)Z>=0 over {n}/2 < k <= {n}")
    return problems


def _ray(offset: Fraction, modulus: Fraction) -> dict:
    return {"offset": _q(offset), "modulus": _q(modulus), "gaps": [], "conductor": 0,
            "empty": False, "full": False}


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cherednik_check(rc, out, expected, context) -> list[str]:
    n, t = expected["n"], F(expected["t"])
    violated = any(_on_cherednik_locus(t, k) for k in range(1, n + 1))
    problems: list[str] = []
    doc = _json(out, problems)
    if doc is None:
        return problems
    problems += _status_problems(rc, doc, violated)
    _cherednik_common(doc, n, problems)
    ks = []
    for check in doc.get("checks", []):
        k = _cherednik_k(_vec(check["beta"]), n)
        ks.append(k)
        if k is None:
            problems.append(f"checked beta {check['beta']} is not a stratum")
            continue
        if F(check["c_of_beta"]) != t * k or F(check["shift"]) != F(k, 2):
            problems.append(f"stratum k={k}: c(beta) {check['c_of_beta']}, shift "
                            f"{check['shift']}; expected {t * k}, {F(k, 2)}")
        if check["pass"] == _on_cherednik_locus(t, k):
            problems.append(f"stratum k={k}: pass={check['pass']} at t={t}")
        if not check["pass"]:
            problems += _witness_problems(check, F(check["shift"]),
                                          {F(g) for g in check["generators"]})
    if sorted(k or 0 for k in ks) != list(range(1, n + 1)):
        problems.append(f"checks cover strata {ks}, expected k = 1..{n}")
    return problems


# --------------------------------------------------------------------------
# torus problems


def _slice_data(weights: list[tuple], beta: tuple) -> tuple[Fraction, list[Fraction]]:
    """Shift 1/2 sum |w.beta| and sorted distinct nonzero |w.beta| (torus)."""
    pairings = [_dot(w, beta) for w in weights]
    shift = sum((abs(p) for p in pairings), F(0)) / 2
    return shift, sorted({abs(p) for p in pairings if p != 0})


def in_semigroup(value: Fraction, gens: list[Fraction]) -> bool:
    """Exact membership of value in the monoid generated by gens (DP)."""
    if value < 0:
        return False
    if value == 0:
        return True
    if not gens:
        return False
    scale = lcm(value.denominator, *(g.denominator for g in gens))
    target = int(value * scale)
    ints = sorted({int(g * scale) for g in gens})
    if target > 10**6:
        raise ValueError(f"membership target {target} is outside the checker's range")
    reach = bytearray(target + 1)
    reach[0] = 1
    for m in range(1, target + 1):
        reach[m] = any(g <= m and reach[m - g] for g in ints)
    return bool(reach[target])


def torus_check(rc, out, expected, context) -> list[str]:
    problems: list[str] = []
    doc = _json(out, problems)
    if doc is None:
        return problems
    weights = [_vec(w) for w in expected["weights"]]
    c = _vec(expected["c"])
    violated = False
    checked = set()
    for check in doc.get("checks", []):
        beta = _vec(check["beta"])
        checked.add(beta)
        shift, gens = _slice_data(weights, beta)
        c_of_beta = _dot(c, beta)
        if (F(check["c_of_beta"]), F(check["shift"])) != (c_of_beta, shift):
            problems.append(f"beta {beta}: c(beta), shift = {check['c_of_beta']}, "
                            f"{check['shift']}; expected {c_of_beta}, {shift}")
        if [F(g) for g in check["generators"]] != gens:
            problems.append(f"beta {beta}: generators {check['generators']} != {gens}")
        member = in_semigroup(c_of_beta - shift, gens)
        violated |= member
        if check["pass"] == member:
            problems.append(f"beta {beta}: pass={check['pass']}, membership is {member}")
        if member:
            problems += _witness_problems(check, shift, set(gens))
    strata = {_vec(s["beta_negative"]) for s in doc.get("strata", [])}
    if checked != strata:  # default orientation: beta = beta_negative
        problems.append(f"checked betas {checked} differ from the strata {strata}")
    problems += _status_problems(rc, doc, violated)
    context[expected["key"]] = strata
    return problems


def torus_oracle(rc, out, expected, context) -> list[str]:
    problems: list[str] = []
    doc = _json(out, problems)
    if doc is None:
        return problems
    if rc != 0 or doc.get("agreed") is not True or doc.get("mismatches"):
        problems.append(f"oracle disagrees (exit {rc}): {doc.get('mismatches')}")
    if not doc.get("subsets_checked"):
        problems.append("oracle checked no subsets")
    strata = context.get(expected["key"])
    directions = {_vec(d) for d in doc.get("directions", [])}
    if strata is not None and directions != strata:
        problems.append(f"oracle directions {directions} differ from check strata {strata}")
    return problems


# --------------------------------------------------------------------------
# semigroup problems: generators {a, a+1}/L


def sylvester_member(m: int, a: int) -> bool:
    """m in <a, a+1>: m = x*a + y*(a+1) with y = m*(a+1)^-1 mod a = m mod a."""
    return m >= 0 and (m % a) * (a + 1) <= m


@lru_cache(maxsize=64)
def sylvester_gaps(a: int) -> tuple[int, ...]:
    conductor = (a - 1) * a
    gaps = tuple(m for m in range(conductor) if not sylvester_member(m, a))
    if len(gaps) != conductor // 2 or (gaps and gaps[-1] != conductor - 1):
        raise AssertionError("Sylvester's gap count or Frobenius number failed")
    return gaps


def _semigroup_strata(rank: int) -> set[tuple]:
    if rank == 1:
        return {(F(1),)}
    return {(F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def _semigroup_stratum(expected: dict, beta: tuple) -> tuple[Fraction, list[Fraction]]:
    shift, gens = _slice_data([_vec(w) for w in expected["weights"]], beta)
    a, L = expected["a"], expected["L"]
    if gens != [F(a, L), F(a + 1, L)]:
        raise AssertionError(f"construction error: generators {gens} for beta {beta}")
    return shift, gens


def semigroup_check(rc, out, expected, context) -> list[str]:
    problems: list[str] = []
    doc = _json(out, problems)
    if doc is None:
        return problems
    a, L = expected["a"], expected["L"]
    c = _vec(expected["c"])
    violated = False
    betas = set()
    for check in doc.get("checks", []):
        beta = _vec(check["beta"])
        betas.add(beta)
        if beta not in _semigroup_strata(expected["rank"]):
            problems.append(f"unexpected stratum {beta}")
            continue
        shift, gens = _semigroup_stratum(expected, beta)
        c_of_beta = _dot(c, beta)
        if (F(check["c_of_beta"]), F(check["shift"])) != (c_of_beta, shift):
            problems.append(f"beta {beta}: c(beta), shift = {check['c_of_beta']}, "
                            f"{check['shift']}; expected {c_of_beta}, {shift}")
        m = (c_of_beta - shift) * L
        member = m.denominator == 1 and sylvester_member(int(m), a)
        violated |= member
        if check["pass"] == member:
            problems.append(f"beta {beta}: pass={check['pass']} at m={m}, a={a}")
        if member:
            problems += _witness_problems(check, shift, set(gens))
    if betas != _semigroup_strata(expected["rank"]):
        problems.append(f"checked strata {betas}")
    problems += _status_problems(rc, doc, violated)
    return problems


def _semigroup_locus(expected: dict, beta: tuple) -> dict:
    a, L = expected["a"], expected["L"]
    c0 = F(expected["c0"])
    shift, _ = _semigroup_stratum(expected, beta)
    h = sum(beta)  # direction (1, ..., 1)
    return {
        "offset": _q((shift - c0 * h) / h),
        "modulus": _q(F(1, L * int(h))),
        "gaps": list(sylvester_gaps(a)),
        "conductor": (a - 1) * a,
        "empty": False,
        "full": False,
    }


def semigroup_forbidden(rc, out, expected, context) -> list[str]:
    problems: list[str] = []
    if rc != 0:
        return [f"exit {rc}, expected 0"]
    doc = _json(out, problems)
    if doc is None:
        return problems
    strata = _semigroup_strata(expected["rank"])
    betas = set()
    for locus in doc.get("loci", []):
        beta = _vec(locus["beta"])
        betas.add(beta)
        if beta not in strata:
            problems.append(f"unexpected stratum {beta}")
        elif locus["locus"] != _semigroup_locus(expected, beta):
            problems.append(f"beta {beta}: locus differs from <{expected['a']}, "
                            f"{expected['a'] + 1}>/{expected['L']} in closed form")
    if betas != strata:
        problems.append(f"loci cover strata {betas}, expected {strata}")
    # every axis locus lies in the diagonal one (same offset, half the step)
    widest = max(strata, key=sum)
    if doc.get("union") != [_semigroup_locus(expected, widest)]:
        problems.append(f"union is not the single locus of beta {widest}")
    return problems


# --------------------------------------------------------------------------
# rejected files


def exit_code(rc, out, expected, context) -> list[str]:
    problems = []
    if rc != expected["exit"]:
        problems.append(f"{expected['case']}: exit {rc}, expected {expected['exit']}")
    if out:
        problems.append(f"{expected['case']}: a rejected file printed a report")
    return problems


CHECKERS = {
    "cherednik_forbidden": cherednik_forbidden,
    "cherednik_check": cherednik_check,
    "torus_check": torus_check,
    "torus_oracle": torus_oracle,
    "semigroup_check": semigroup_check,
    "semigroup_forbidden": semigroup_forbidden,
    "exit_code": exit_code,
}
