"""Human and machine reports for the CLI commands."""

from __future__ import annotations

from json import JSONEncoder
from json.encoder import encode_basestring_ascii

from .engine import ExactnessProblem, ExactnessVerdict, stratum_semigroup
from .errors import SliceSubtractionFailure, UnsupportedMode
from .oracle import OracleReport
from .scalars import Vector, rat_str
from .semigroup import SetDescription, describe_members
from .strata import KNResult, KNStratum


def _vec(v: Vector) -> list[str]:
    return [rat_str(x) for x in v]


def _vec_text(v: Vector) -> str:
    return "(" + ", ".join(rat_str(x) for x in v) + ")"


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    report values: dicts with str keys, lists, JSON scalars, and tuples,
    which must hold ints only (the gap lists).

    With ``indent`` set, the json module encodes in pure Python, several
    generator steps per list entry.  Here every value appends its chunks
    to one list, joined once at the end, so no text is copied per level.
    A gap list is %-formatted (faster than repr) once per distinct value
    and indented by one replace per place: a forbidden report's union
    repeats its loci's gap tuples, and equal generators give equal ones.
    """
    out: list[str] = []
    put = out.append
    flat: dict[tuple, str] = {}  # a gap tuple -> its entries, comma separated

    def write(value, outer: str) -> None:
        # scalars in the json module's own order; a float goes to its encoder
        if isinstance(value, str):
            return put(encode_basestring_ascii(value))
        if value is None or value is True or value is False:
            return put("null" if value is None else "true" if value else "false")
        if isinstance(value, int):
            return put(int.__repr__(value))
        if not isinstance(value, (dict, list, tuple)):
            return put(JSONEncoder().encode(value))
        if not value:
            return put("{}" if isinstance(value, dict) else "[]")
        inner = outer + "  "
        sep = ",\n" + inner
        # every entry is followed by sep, and the last sep becomes the close
        if isinstance(value, dict):
            put("{\n" + inner)
            for k, v in sorted(value.items()):
                put(encode_basestring_ascii(k) + ": ")
                write(v, inner)
                put(sep)
            out[-1] = f"\n{outer}}}"
            return
        put("[\n" + inner)
        if isinstance(value, list):
            for v in value:
                write(v, inner)
                put(sep)
        else:
            text = flat.get(value)
            if text is None:
                text = flat[value] = ("%d, " * len(value))[:-2] % value
            put(text.replace(", ", sep))
            put(sep)
        out[-1] = f"\n{outer}]"

    write(obj, "")
    return "".join(out)


def set_description_json(d: SetDescription) -> dict:
    return {
        "offset": rat_str(d.offset),
        "modulus": rat_str(d.modulus),
        "gaps": d.gaps,
        "conductor": d.conductor,
        "empty": d.empty,
        "full": d.full,
    }


def stratum_json(s: KNStratum) -> dict:
    return {
        "beta": _vec(s.beta),
        "beta_dominant": _vec(s.beta_dominant),
        "beta_negative": _vec(s.beta_neg),
        "beta_positive": _vec(s.beta_pos),
        "direction": _vec(s.direction),
        "q_norm": rat_str(s.q_norm),
        "defining_indices": list(s.defining_indices),
        "defining_includes_origin": True,
        "v_plus": list(s.v_plus),
        "v_zero": list(s.v_zero),
        "v_minus": list(s.v_minus),
        "y_indices": list(s.y_indices),
        "z_indices": list(s.v_zero),
    }


def _provenance(problem: ExactnessProblem) -> dict:
    out = {
        "orientation": problem.orientation,
        "strictness": problem.strictness,
        "dropped_strata": [_vec(v) for v in problem.dropped_strata],
        "mode": problem.weights.mode,
        "group": problem.group.label,
    }
    if problem.notes:
        out["notes"] = list(problem.notes)
    return out


def strata_report(problem: ExactnessProblem, result: KNResult, as_json: bool) -> str:
    enriched = []
    descriptions: list[SetDescription | None] = []
    for s in result.strata:
        entry = stratum_json(s)
        desc = None
        try:
            sd, sg = stratum_semigroup(s.beta, problem)
            desc = describe_members(sg, sd.shift)
            entry["shift"] = rat_str(sd.shift)
            entry["semigroup"] = set_description_json(desc)
        except (UnsupportedMode, SliceSubtractionFailure):
            pass  # shift undefined for this mode/group combination
        enriched.append(entry)
        descriptions.append(desc)
    if as_json:
        return _dumps(
            {
                "knx_version": 1,
                "command": "strata",
                "provenance": _provenance(problem),
                "semistable_nonempty": result.semistable_nonempty,
                "strata": enriched,
            }
        )
    lines = [
        f"KN strata ({result.orientation} orientation, {problem.weights.mode} mode, "
        f"group {problem.group.label})"
    ]
    for i, (s, entry, desc) in enumerate(zip(result.strata, enriched, descriptions), 1):
        subset = "a0" + ("+" if s.defining_indices else "")
        subset += ",".join(str(j) for j in s.defining_indices)
        line = (
            f"  {i}. beta={_vec_text(s.beta)} dominant={_vec_text(s.beta_dominant)} "
            f"q={rat_str(s.q_norm)} J={{{subset}}} "
            f"|V+|={len(s.v_plus)} |V0|={len(s.v_zero)} |V-|={len(s.v_minus)}"
        )
        if result.orientation == "both":
            line += f" beta_pos={_vec_text(s.beta_pos)}"
        if desc is not None:
            line += f" shift={entry['shift']} forbidden={desc.render()}"
        lines.append(line)
    if not result.strata:
        lines.append("  (none)")
    lines.append(f"semistable locus nonempty: {'yes' if result.semistable_nonempty else 'no'}")
    lines.append(_provenance_text(problem))
    return "\n".join(lines)


def _provenance_text(problem: ExactnessProblem) -> str:
    bits = [
        f"orientation={problem.orientation}",
        f"strictness={problem.strictness}",
    ]
    if problem.dropped_strata:
        bits.append(
            "dropped=" + ";".join(_vec_text(v) for v in problem.dropped_strata)
        )
    text = "provenance: " + " ".join(bits)
    for note in problem.notes:
        text += f"\nnote: {note}"
    return text


def check_report(problem: ExactnessProblem, verdict: ExactnessVerdict, as_json: bool) -> str:
    if as_json:
        return _dumps(
            {
                "knx_version": 1,
                "command": "check",
                "provenance": _provenance(problem),
                "status": verdict.status,
                "semistable_nonempty": verdict.kn.semistable_nonempty,
                "strata": [stratum_json(s) for s in verdict.kn.strata],
                "checks": [
                    {
                        "beta": _vec(c.signed_beta),
                        "c_of_beta": rat_str(c.c_of_beta),
                        "shift": rat_str(c.shift_data.shift),
                        "half_abs_sum": rat_str(c.shift_data.half_abs_sum),
                        "n_minus_sum": rat_str(c.shift_data.n_minus_sum),
                        "generators": [rat_str(g) for g in c.shift_data.semigroup_generators],
                        "pass": c.passed,
                        "witness": None
                        if c.witness is None
                        else [[rat_str(g), n] for g, n in c.witness],
                    }
                    for c in verdict.checks
                ],
            }
        )
    lines = [f"exactness verdict: {verdict.status}"]
    for c in verdict.checks:
        line = (
            f"  beta={_vec_text(c.signed_beta)} c(beta)={rat_str(c.c_of_beta)} "
            f"shift={rat_str(c.shift_data.shift)} "
            f"forbidden={describe_members(c.semigroup, c.shift_data.shift).render()} "
            f"-> {'pass' if c.passed else 'VIOLATED'}"
        )
        if c.witness is not None:
            terms = " + ".join(f"{n}*{rat_str(g)}" for g, n in c.witness)
            line += f" [c(beta) = {rat_str(c.shift_data.shift)}" + (
                f" + {terms}]" if terms else "]"
            )
        lines.append(line)
    lines.append(_provenance_text(problem))
    return "\n".join(lines)


def forbidden_report(problem: ExactnessProblem, verdict: ExactnessVerdict, as_json: bool) -> str:
    if as_json:
        return _dumps(
            {
                "knx_version": 1,
                "command": "forbidden",
                "provenance": _provenance(problem),
                "status": verdict.status,
                "semistable_nonempty": verdict.kn.semistable_nonempty,
                "strata": [stratum_json(s) for s in verdict.kn.strata],
                "loci": [
                    {
                        "beta": _vec(l.signed_beta),
                        "shift": rat_str(l.shift_data.shift),
                        "locus": set_description_json(l.locus),
                    }
                    for l in verdict.loci
                ],
                "union": [set_description_json(d) for d in verdict.union_loci],
            }
        )
    lines = ["parametric forbidden locus (one entry per stratum):"]
    for l in verdict.loci:
        lines.append(f"  beta={_vec_text(l.signed_beta)}: t in {l.locus.render()}")
    union = " union ".join(d.render() for d in verdict.union_loci) or "(empty)"
    lines.append(f"union: {union}")
    lines.append(_provenance_text(problem))
    return "\n".join(lines)


def oracle_report_text(report: OracleReport, as_json: bool) -> str:
    if as_json:
        return _dumps(
            {
                "knx_version": 1,
                "command": "oracle",
                "agreed": report.agreed,
                "subsets_checked": report.subsets_checked,
                "mismatches": list(report.mismatches),
                "directions": [_vec(d) for d in report.directions],
            }
        )
    lines = [
        f"oracle cross-check: {'all subsets agree' if report.agreed else 'MISMATCH'}",
        f"subsets checked: {report.subsets_checked}",
    ]
    for m in report.mismatches:
        lines.append(f"  mismatch: {m}")
    lines.append(
        "strata directions: " + (", ".join(_vec_text(d) for d in report.directions) or "(none)")
    )
    return "\n".join(lines)
