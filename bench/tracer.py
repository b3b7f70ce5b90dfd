"""Outside-in tracer: wraps flowbox's public functions and records spans.

The tracer changes nothing under ``src/``.  ``install`` replaces each traced
function on its defining module and on every other loaded flowbox module
that imported it by name (``flowbox.smoothing.c0_distance``,
``flowbox.cli.validate``, ...), so calls made inside the library are seen
too.  Spans stay in memory with a link to their parent span; ``summary``
turns them into the per-layer metrics once the run is over.

A wrapper never adds arguments: in particular it never passes ``report=``
to a function whose caller did not, since ``smooth_in_t`` does extra work
when it gets a report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from pathlib import Path

# the traced functions, as "<module>.<function>" under the flowbox package,
# each with its metrics as (suffix, unit, better), in output order
_CALLS = ("calls", "count", "lower")
_SELF = ("self_s", "s", "lower")
LAYER_METRICS = {
    "foliation.c0_distance": (_CALLS, _SELF, ("points", "count", "lower"),
                              ("repeat_arg_ratio", "ratio", "higher")),
    "foliation.tangent_field": (_CALLS, _SELF),
    "foliation.holonomy": (_CALLS, _SELF),
    "kernel.choose_partition": (_CALLS, _SELF),
    "kernel.build_collapse": (_CALLS, _SELF),
    "smoothing.smooth_in_t": (_CALLS, _SELF, ("attempts", "count", "lower"),
                              ("useful_ratio", "ratio", "higher")),
    "smoothing.smooth_with_holonomy_constraint": (
        _CALLS, _SELF, ("attempts", "count", "lower"),
        ("useful_ratio", "ratio", "higher")),
    "smoothing.globally_smooth": (_CALLS, _SELF,
                                  ("attempts", "count", "lower"),
                                  ("c0_calls", "count", "lower"),
                                  ("c0_s", "s", "lower")),
    "smoothing.damped_cone": (_CALLS, _SELF),
    "smoothing.face_transport_defect": (_CALLS, _SELF),
    "decomposition.validate": (_CALLS, _SELF),
    "decomposition.maximal_faces": (_CALLS, _SELF),
    "denjoy.blowup_scene": (_CALLS, _SELF, ("attempts", "count", "lower")),
    "denjoy.blowup_box": (_CALLS, _SELF),
    "denjoy.verify_blowup": (_CALLS, _SELF),
    "denjoy.rotation_number": (_SELF, ("iterations", "count", "lower")),
    "denjoy.wandering_audit": (_SELF, ("gap_steps", "count", "lower")),
    "measure.smooth_measured_scene": (_CALLS, _SELF),
    "measure.scene_invariance_defect": (_CALLS, _SELF),
    "measure.tischler_fibration": (_CALLS, _SELF),
    "cli.run": (_CALLS, _SELF, ("bytes_written", "bytes", "lower")),
    "cli.generate_scene": (_CALLS, _SELF),
}

# the caller's own report dict says how many attempts these made
_REPORT_ATTEMPTS = ("smoothing.globally_smooth", "denjoy.blowup_scene")
# these count their attempts as child spans: parent -> child
_CHILD_ATTEMPTS = {
    "smoothing.smooth_in_t": "kernel.choose_partition",
    "smoothing.smooth_with_holonomy_constraint": "smoothing.smooth_in_t",
}


def layer_metric_specs():
    """Every per-layer metric as (name, unit, better), in output order."""
    return [(f"{fn}.{suffix}", unit, better)
            for fn, rows in LAYER_METRICS.items()
            for suffix, unit, better in rows]


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records one span per call of every function in ``LAYER_METRICS``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rebound = []       # (module, attribute, original)
        # id -> weakref of every first family c0_distance has seen; a dead
        # family drops out, so a reused id() never counts as a repeat
        self._seen = {}

    # -------------------------------------------------------------- install

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "flowbox" or name.startswith("flowbox."))]
        for qualname in LAYER_METRICS:
            module_name, attr = qualname.split(".")
            module = importlib.import_module(f"flowbox.{module_name}")
            original = getattr(module, attr)
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._rebound.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._rebound):
            setattr(mod, name, original)
        self._rebound.clear()

    def _wrap(self, qualname, fn):
        signature = inspect.signature(fn)
        note = _NOTES.get(qualname)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(qualname, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                if note is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    span.info = note(self, bound)
                spans.append(span)

        return wrapper

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per-layer metrics from the recorded spans: name -> value."""
        calls = dict.fromkeys(LAYER_METRICS, 0)
        self_s = dict.fromkeys(LAYER_METRICS, 0.0)
        info = {key: 0 for key in ("points", "repeats", "iterations",
                                   "gap_steps", "bytes_written")}
        report_attempts = dict.fromkeys(_REPORT_ATTEMPTS, 0)
        child_attempts = dict.fromkeys(_CHILD_ATTEMPTS, 0)
        c0_calls, c0_s = 0, 0.0
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            parent = span.parent.name if span.parent is not None else None
            if span.info:
                for key, value in span.info.items():
                    if key == "attempts":
                        report_attempts[span.name] += value
                    else:
                        info[key] += value
            if _CHILD_ATTEMPTS.get(parent) == span.name:
                child_attempts[parent] += 1
            if (span.name == "foliation.c0_distance"
                    and parent == "smoothing.globally_smooth"):
                c0_calls += 1
                c0_s += span.duration

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "foliation.c0_distance.points": info["points"],
            "foliation.c0_distance.repeat_arg_ratio": ratio(
                info["repeats"], calls["foliation.c0_distance"]),
            "smoothing.globally_smooth.c0_calls": c0_calls,
            "smoothing.globally_smooth.c0_s": c0_s,
            "denjoy.rotation_number.iterations": info["iterations"],
            "denjoy.wandering_audit.gap_steps": info["gap_steps"],
            "cli.run.bytes_written": info["bytes_written"],
        }
        for name, attempts in child_attempts.items():
            derived[f"{name}.attempts"] = attempts
            derived[f"{name}.useful_ratio"] = ratio(calls[name], attempts)
        for name, attempts in report_attempts.items():
            derived[f"{name}.attempts"] = attempts

        out = {}
        for name, unit, _better in layer_metric_specs():
            fn, suffix = name.rsplit(".", 1)
            if suffix == "calls":
                out[name] = calls[fn]
            elif suffix == "self_s":
                out[name] = self_s[fn]
            else:
                out[name] = derived[name]
        return out


# ------------------------------------------------------------------ notes
# Each note reads counts from a finished call's arguments (never from its
# timing) and returns them as a dict stored on the span.


def _note_c0_distance(tracer, bound):
    a, b = bound["a"], bound["b"]
    points = a.base.nx * a.base.ny * (a.m + b.m)
    key = id(a)
    ref = tracer._seen.get(key)
    repeat = ref is not None and ref() is a
    if not repeat:
        seen = tracer._seen
        seen[key] = weakref.ref(a, lambda _ref: seen.pop(key, None))
    return {"points": points, "repeats": int(repeat)}


def _note_report_attempts(tracer, bound):
    report = bound.get("report")
    if report is None or "retries" not in report:
        return None
    return {"attempts": int(report["retries"]) + 1}


def _note_rotation_number(tracer, bound):
    return {"iterations": int(bound["iterations"])}


def _note_wandering_audit(tracer, bound):
    return {"gap_steps": len(bound["gaps"]) * int(bound["steps"])}


def _note_cli_run(tracer, bound):
    out = Path(bound["config"].out)
    return {"bytes_written": sum(p.stat().st_size for p in out.iterdir()
                                 if p.is_file())}


_NOTES = {
    "foliation.c0_distance": _note_c0_distance,
    "smoothing.globally_smooth": _note_report_attempts,
    "denjoy.blowup_scene": _note_report_attempts,
    "denjoy.rotation_number": _note_rotation_number,
    "denjoy.wandering_audit": _note_wandering_audit,
    "cli.run": _note_cli_run,
}
