"""Problem-file schema: strict JSON with rationals as strings.

Floats are rejected outright; unknown keys are rejected; the version key
"knx_version": 1 is required.
"""

from __future__ import annotations

import json
from typing import Callable

from .engine import ExactnessProblem
from .errors import InvalidParameter, KnxError, SchemaError
from .groups import (
    GroupData,
    LieCharacter,
    TorusCharacter,
    gl,
    group_data,
    product,
    sl,
    torus,
)
from .scalars import rat
from .strata import ORIENTATIONS, WeightSystem
from .convex import DEFAULT_VERTEX_CAP

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "knx_version",
    "group",
    "weights",
    "mode",
    "chi",
    "c",
    "orientation",
    "drop_strata",
    "strictness",
}


def parse_problem(data: dict, cap: int = DEFAULT_VERTEX_CAP,
                  orientation: str | None = None) -> ExactnessProblem:
    """The problem of a parsed file; ``orientation``, when given, replaces
    the file's (which is still checked)."""
    if not isinstance(data, dict):
        raise SchemaError("problem file must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    version = data.get("knx_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True, not 1.0
        raise SchemaError('missing or unsupported "knx_version" (must be 1)')
    for key in ("group", "weights", "chi"):
        if key not in data:
            raise SchemaError(f'missing required key "{key}"')
    try:
        rank, build_group = _parse_group(data["group"])
        weights = _parse_weights(data["weights"], data.get("mode", "cotangent"))
        chi = TorusCharacter(_parse_vector(data["chi"], "chi"))
        c = _parse_character(data.get("c"))
        file_orientation = data.get("orientation", "negative")
        if file_orientation not in ORIENTATIONS:
            raise SchemaError(f"unknown orientation {file_orientation!r}")
        strictness = data.get("strictness", "slice")
        if strictness not in ("slice", "full_V"):
            raise SchemaError(f"unknown strictness {strictness!r}")
        dropped = tuple(
            _parse_vector(v, "drop_strata entry") for v in _require_list(
                data.get("drop_strata", []), "drop_strata"
            )
        )
        _check_lengths(rank, weights, chi, c, dropped)
        return ExactnessProblem(
            group=build_group(),
            weights=weights,
            chi=chi,
            c=c,
            orientation=file_orientation if orientation is None else orientation,
            dropped_strata=dropped,
            strictness=strictness,
            cap=cap,
        )
    except SchemaError:
        raise
    except KnxError as exc:
        raise SchemaError(str(exc)) from exc
    except RecursionError as exc:  # products nested deeper than the stack
        raise SchemaError("group nesting is too deep") from exc


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list")
    return value


def _parse_vector(value, what: str) -> tuple:
    entries = _require_list(value, what)
    out = []
    for e in entries:
        if not isinstance(e, str):
            raise SchemaError(f"{what}: numbers must be rational strings, got {e!r}")
        try:
            out.append(rat(e))
        except InvalidParameter as exc:
            raise SchemaError(f"{what}: {exc}") from exc
    return tuple(out)


def _parse_weights(value, mode) -> WeightSystem:
    rows = _require_list(value, "weights")
    if not rows:
        raise SchemaError("weights must be nonempty")
    return WeightSystem(tuple(_parse_vector(r, "weight") for r in rows), mode)


def _parse_group(value) -> tuple[int, Callable[[], GroupData]]:
    """The claimed rank and a builder of the group.

    Groups are built only when called, after the problem's vector lengths
    have been checked against the rank: building gl(n) costs O(n^3) and a
    custom group's identity form rank^2, so a short file claiming a huge
    rank is rejected without building anything.
    """
    if not isinstance(value, dict):
        raise SchemaError("group must be an object")
    kind = value.get("type")
    if kind == "torus":
        _allow_keys(value, {"type", "rank"})
        rank = _require_positive_int(value.get("rank"), "rank")
        return rank, lambda: torus(rank)
    if kind in ("gl", "sl"):
        _allow_keys(value, {"type", "n"})
        n = _require_positive_int(value.get("n"), "n")
        make = gl if kind == "gl" else sl
        return n, lambda: make(n)
    if kind == "product":
        _allow_keys(value, {"type", "factors"})
        factors = _require_list(value.get("factors"), "factors")
        if not factors:
            raise SchemaError("product needs factors")
        parsed = [_parse_group(f) for f in factors]
        return sum(r for r, _ in parsed), lambda: product([build() for _, build in parsed])
    if kind == "custom":
        _allow_keys(value, {"type", "rank", "roots", "simple_roots", "form", "label"})
        rank = _require_positive_int(value.get("rank"), "rank")
        roots = [_parse_vector(r, "root") for r in _require_list(value.get("roots", []), "roots")]
        simple = [
            _parse_vector(r, "simple root")
            for r in _require_list(value.get("simple_roots", []), "simple_roots")
        ]
        form = value.get("form")
        form_rows = None
        if form is not None:
            form_rows = [_parse_vector(r, "form row") for r in _require_list(form, "form")]
        label = value.get("label", "custom")
        if not isinstance(label, str):
            raise SchemaError("label must be a string")
        return rank, lambda: group_data(rank, roots, simple, form_rows, label)
    raise SchemaError(f"unknown group type {kind!r}")


def _check_lengths(rank: int, weights: WeightSystem, chi: TorusCharacter,
                   c: LieCharacter | None, dropped: tuple[tuple, ...]) -> None:
    """The length checks of ExactnessProblem, the strata enumeration and
    the dropped strata, with their messages, made before the group is built."""
    if len(chi.vec) != rank:
        raise SchemaError("chi length does not match rank")
    if c is not None:
        for name, part in (("base", c.base), ("direction", c.direction)):
            if part is not None and len(part) != rank:
                raise SchemaError(f"character {name} length does not match rank")
    if weights.rank != rank:
        raise SchemaError("weights, character and group rank disagree")
    if any(len(v) != rank for v in dropped):
        raise SchemaError("drop_strata entry length does not match rank")


def _parse_character(value) -> LieCharacter | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise SchemaError("c must be an object with base/direction")
    _allow_keys(value, {"base", "direction"})
    if "base" not in value:
        raise SchemaError('c needs a "base"')
    base = _parse_vector(value["base"], "c.base")
    direction = None
    if value.get("direction") is not None:
        direction = _parse_vector(value["direction"], "c.direction")
    return LieCharacter(base, direction)


def _allow_keys(obj: dict, allowed: set) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")


def _require_positive_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer")
    if value < 1:
        raise SchemaError(f"{what} must be >= 1")
    return value


def load_problem(path: str, cap: int = DEFAULT_VERTEX_CAP,
                 orientation: str | None = None) -> ExactnessProblem:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    return parse_problem(data, cap, orientation)
