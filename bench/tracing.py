"""Span tracing of knx from the outside, for the traced benchmark run.

``Tracer.install()`` replaces each traced public function of ``knx`` with a
wrapper that records a span ``(name, start, end, parent id)`` in memory.
Modules import with ``from .x import f``, so a function is looked up under
several names; every module attribute bound to the original function is
patched, e.g. ``solve_exact`` in both ``knx.convex`` and ``knx.oracle``.
``GramForm.apply`` is only counted.  ``metrics()`` turns the spans of one
or more passes into the per-module numbers reported by the benchmark.

Self time is a span's duration minus the time covered by its child spans,
so the self times of all spans add up to the traced time of the calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (defining module, function name) -> span group; spans are named
# "<module>.<function>" after the module that defines the function.
TRACED = {
    ("cli", "main"): "cli",
    ("cli", "run_random_self_checks"): "cli",
    ("problemfile", "load_problem"): "problemfile",
    ("problemfile", "parse_problem"): "problemfile",
    ("groups", "gl"): "groups.build",
    ("groups", "sl"): "groups.build",
    ("groups", "torus"): "groups.build",
    ("groups", "product"): "groups.build",
    ("groups", "group_data"): "groups.build",
    ("groups", "weyl_canonicalize"): "groups.weyl",
    ("engine", "check"): "engine",
    ("engine", "forbidden"): "engine",
    ("engine", "stratum_semigroup"): "engine",
    ("strata", "enumerate_kn"): "strata",
    ("strata", "span_candidates"): "strata",
    ("convex", "min_norm_point"): "convex",
    ("linalg", "solve_exact"): "linalg",
    ("linalg", "matrix_rank"): "linalg",
    ("linalg", "span_contains"): "linalg",
    ("linalg", "span_extend"): "linalg",
    ("linalg", "span_key"): "linalg",
    ("linalg", "independent_subset"): "linalg",
    ("shifts", "compute_shift"): "shifts",
    ("shifts", "full_space_generators"): "shifts",
    ("semigroup", "semigroup_from_generators"): "semigroup.build",
    ("semigroup", "membership"): "semigroup.member",
    ("semigroup", "witness_decomposition"): "semigroup.witness",
    ("semigroup", "describe_members"): "semigroup.describe",
    ("semigroup", "reduce_union"): "semigroup.union",
    ("oracle", "cross_check_problem"): "oracle",
    ("oracle", "cross_check_enumeration"): "oracle",
    ("oracle", "numeric_min_norm"): "oracle.numeric_min_norm",
    ("report", "strata_report"): "report",
    ("report", "check_report"): "report",
    ("report", "forbidden_report"): "report",
    ("report", "oracle_report_text"): "report",
}
# generators get a span per next(); yielded items are counted
_YIELD_COUNTERS = {"strata.span_candidates": "strata.flats"}
MODULES = ("cli", "problemfile", "groups", "engine", "strata", "convex", "linalg",
           "scalars", "shifts", "semigroup", "oracle", "report")

# per-layer metric -> unit, in the order they are reported
METRICS = {
    "strata.enumerate_s": "s",
    "strata.enumerate_calls": "count",
    "strata.flats": "count",
    "strata.found": "count",
    "strata.useful_ratio": "ratio",
    "convex.min_norm_s": "s",
    "convex.min_norm_calls": "count",
    "linalg.s": "s",
    "linalg.solve_calls": "count",
    "linalg.rank_calls": "count",
    "scalars.gram_apply_calls": "count",
    "groups.weyl_canonicalize_s": "s",
    "groups.weyl_canonicalize_calls": "count",
    "groups.build_s": "s",
    "oracle.s": "s",
    "oracle.subsets": "count",
    "oracle.numeric_min_norm_s": "s",
    "oracle.numeric_min_norm_calls": "count",
    "semigroup.build_s": "s",
    "semigroup.build_calls": "count",
    "semigroup.gaps_total": "count",
    "semigroup.max_conductor": "count",
    "semigroup.member_s": "s",
    "semigroup.witness_s": "s",
    "semigroup.witness_calls": "count",
    "semigroup.describe_s": "s",
    "semigroup.union_s": "s",
    "semigroup.union_inputs": "count",
    "shifts.s": "s",
    "shifts.calls": "count",
    "report.s": "s",
    "report.bytes": "bytes",
    "problemfile.load_s": "s",
    "problemfile.calls": "count",
    "engine.self_s": "s",
    "cli.self_s": "s",
    "trace.solve_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "src.lines": "lines",
}

# self-time metric -> span group
_SELF_TIME = {
    "strata.enumerate_s": "strata",
    "convex.min_norm_s": "convex",
    "linalg.s": "linalg",
    "groups.weyl_canonicalize_s": "groups.weyl",
    "groups.build_s": "groups.build",
    "oracle.s": "oracle",
    "oracle.numeric_min_norm_s": "oracle.numeric_min_norm",
    "semigroup.build_s": "semigroup.build",
    "semigroup.member_s": "semigroup.member",
    "semigroup.witness_s": "semigroup.witness",
    "semigroup.describe_s": "semigroup.describe",
    "semigroup.union_s": "semigroup.union",
    "shifts.s": "shifts",
    "report.s": "report",
    "problemfile.load_s": "problemfile",
    "engine.self_s": "engine",
    "cli.self_s": "cli",
}

# call-count metric -> span names
_CALLS = {
    "strata.enumerate_calls": ("strata.enumerate_kn",),
    "convex.min_norm_calls": ("convex.min_norm_point",),
    "linalg.solve_calls": ("linalg.solve_exact",),
    "linalg.rank_calls": ("linalg.matrix_rank",),
    "groups.weyl_canonicalize_calls": ("groups.weyl_canonicalize",),
    "oracle.numeric_min_norm_calls": ("oracle.numeric_min_norm",),
    "semigroup.build_calls": ("semigroup.semigroup_from_generators",),
    "semigroup.witness_calls": ("semigroup.witness_decomposition",),
    "shifts.calls": ("shifts.compute_shift", "shifts.full_space_generators"),
    "problemfile.calls": ("problemfile.load_problem",),
}
# metrics counted by the wrappers themselves
_COUNTED = ("strata.flats", "strata.found", "oracle.subsets", "semigroup.gaps_total",
            "semigroup.union_inputs", "report.bytes", "scalars.gram_apply_calls")


class Tracer:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.max_conductor = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        counter = _YIELD_COUNTERS[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                self.counts[counter] += 1
                yield item

        return wrapper

    def _count_apply(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def apply(form, u, v):
            counts["scalars.gram_apply_calls"] += 1
            return fn(form, u, v)

        return apply

    @contextmanager
    def install(self):
        """Patch knx while the context is open; restore it on exit."""
        modules = {m: importlib.import_module(f"knx.{m}") for m in MODULES}
        modules["__init__"] = importlib.import_module("knx")
        wrappers = {}
        for (module, name), _ in TRACED.items():
            original = getattr(modules[module], name)
            span = f"{module}.{name}"
            make = self._wrap_generator if span in _YIELD_COUNTERS else self._wrap
            wrappers[id(original)] = (original, make(original, span))
        patched = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        gram_form = modules["scalars"].GramForm
        original_apply = gram_form.apply
        gram_form.apply = self._count_apply(original_apply)
        try:
            yield patched
        finally:
            gram_form.apply = original_apply
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- reporting ---------------------------------------------------------

    def metrics(self, passes: int = 1) -> dict[str, float]:
        """Per-pass averages of the per-layer metrics over ``passes`` passes."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for sid, (name, start, end, parent) in enumerate(self.spans):
            module, function = name.split(".", 1)
            self_time[TRACED[(module, function)]] += end - start - child_time[sid]
            calls[name] += 1
        out = {metric: self_time[group] / passes for metric, group in _SELF_TIME.items()}
        for metric, spans in _CALLS.items():
            out[metric] = sum(calls[span] for span in spans) / passes
        out.update({metric: self.counts[metric] / passes for metric in _COUNTED})
        out["semigroup.max_conductor"] = self.max_conductor
        flats = out["strata.flats"]
        out["strata.useful_ratio"] = out["strata.found"] / flats if flats else 0.0
        out["trace.spans"] = len(self.spans) / passes
        return out


def _found(tracer, args, result):
    tracer.counts["strata.found"] += len(result.strata)


def _subsets(tracer, args, result):
    tracer.counts["oracle.subsets"] += result.subsets_checked


def _built(tracer, args, result):
    tracer.counts["semigroup.gaps_total"] += len(result.gaps)
    tracer.max_conductor = max(tracer.max_conductor, result.conductor)


def _union(tracer, args, result):
    tracer.counts["semigroup.union_inputs"] += len(args[0])


def _report(tracer, args, result):
    tracer.counts["report.bytes"] += len(result.encode())


_OBSERVERS = {
    "strata.enumerate_kn": _found,
    "oracle.cross_check_enumeration": _subsets,
    "semigroup.semigroup_from_generators": _built,
    "semigroup.reduce_union": _union,
    "report.strata_report": _report,
    "report.check_report": _report,
    "report.forbidden_report": _report,
    "report.oracle_report_text": _report,
}
