"""Span tracing for the classt benchmark, installed from outside the package.

The tracer wraps the public functions of each classt module while a traced
pass runs and puts the originals back afterwards.  A wrapped function is
replaced in every classt module that holds a reference to it, because the
modules import each other's functions by name.  Each call records a span
(id, parent id, item, name, start, end) in memory; self time is the span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter_ns

SUITES = (
    "weight_family_suite", "residual_suite", "topology_suite", "roundtrip_suite",
    "blowup_suite", "class_t_suite", "hj_suite",
)
REPORT_KINDS = (
    "classify", "enumerate", "build_cyclic", "build_rdp", "check", "birational", "sweep",
)

# Module -> the functions wrapped in it; "Class.method" names a method.
TARGETS = {
    "arith": ("UniPoly.__call__", "hj_evaluate", "hj_expand", "squarefree_decomposition"),
    "quotients": ("normalize", "detect_class_T", "hj_resolution"),
    "wps": ("well_formed_reduction",),
    "compactify": (
        "enumerate_weights", "build_cyclic", "build_rdp", "minimal_resolution",
        "smoothness_status",
    ),
    "tianyau": ("check_hypotheses",),
    "birational": (
        "roundtrip_check", "surface_residue", "project_pi", "evaluate_pi_chart",
        "WPoint.__init__", "WPoint.__eq__",
    ),
    "sweep": SUITES + ("brute_force_class_t",),
    "reports": tuple(f"{k}_report" for k in REPORT_KINDS)
    + ("run_corpus", "render_json", "render_text"),
    "cli": ("run_command", "build_parser"),
}

# Targets reported by self time alone; suites report cases instead of calls.
SELF_TIME_ONLY = ("reports.run_corpus", "cli.build_parser")
SPAN_FIELDS = ("id", "parent", "item", "name", "start_ns", "end_ns")


class Tracer:
    """Spans and counters for one traced pass over classt's modules."""

    def __init__(self):
        self.names = [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.cases = dict.fromkeys(SUITES, 0)
        self.bytes = {"render_json": 0, "render_text": 0}
        self.fractions_created = 0
        self.poly_calls_seen: set = set()
        self.poly_repeats = 0
        self.eq_shortcuts = 0
        self.item = -1
        self._ids = array("q")  # id, parent, item, name index: four per span
        self._times = array("q")  # start and end: two per span
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._origin = 0

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target in the already imported classt ``modules``."""
        self._origin = perf_counter_ns()
        holders = [m for name, m in sys.modules.items() if name == "classt" or name.startswith("classt.")]
        for index, key in enumerate(self.names):
            mod_name, _, qualname = key.partition(".")
            module = modules[mod_name]
            cls_name, _, method = qualname.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._replace(cls, method, original, self._wrap(index, key, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(index, key, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, original, wrapper)
        original_new = Fraction.__dict__["__new__"]
        create = original_new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fractions_created += 1
            return create(cls, *args, **kwargs)

        self._replace(Fraction, "__new__", original_new, staticmethod(counting_new))

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, index: int, key: str, fn):
        calls, self_ns = self.calls, self.self_ns
        stack, ids, times = self._stack, self._ids, self._times
        name = key.rpartition(".")[2]
        observe = {
            "__call__": self._observe_poly_call,
            "__eq__": self._observe_eq,
        }.get(name)

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[key] += 1
                self_ns[key] += duration - frame[1]
                ids.extend((span_id, parent, self.item, index))
                times.extend((start - self._origin, end - self._origin))
            self._observe_result(name, result)
            return result

        return wrapper

    def _observe_poly_call(self, poly, x) -> None:
        key = (poly, x)
        if key in self.poly_calls_seen:
            self.poly_repeats += 1
        else:
            self.poly_calls_seen.add(key)

    def _observe_eq(self, p, q) -> None:
        # Mirrors the early return of WPoint.__eq__ for identical tuples.
        if type(q) is type(p) and p.ambient == q.ambient and p.coords == q.coords:
            self.eq_shortcuts += 1

    def _observe_result(self, name: str, result) -> None:
        if name in self.cases:
            self.cases[name] += result.cases
        elif name in self.bytes:
            self.bytes[name] += len(result.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for key in self.names:
            qualname = key.partition(".")[2]
            if qualname in self.cases:
                out[f"{key}.cases"] = (self.cases[qualname], "count")
            elif key not in SELF_TIME_ONLY:
                out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_ns[key] / 1e9, "s")
        for name, count in self.bytes.items():
            out[f"reports.{name}.bytes"] = (count, "bytes")
        poly_calls = self.calls["arith.UniPoly.__call__"]
        eq_calls = self.calls["birational.WPoint.__eq__"]
        out["arith.UniPoly.__call__.repeat_frac"] = (
            self.poly_repeats / poly_calls if poly_calls else 0.0, "ratio")
        out["arith.fractions_created"] = (self.fractions_created, "count")
        out["birational.WPoint.__eq__.shortcut_frac"] = (
            self.eq_shortcuts / eq_calls if eq_calls else 0.0, "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write the spans to ``path``: one JSON header line, then the
        little-endian int64 records, six per span, in ``SPAN_FIELDS`` order."""
        count = len(self._ids) // 4
        records = array("q", bytes(8 * 6 * count))
        records[0::6] = self._ids[0::4]
        records[1::6] = self._ids[1::4]
        records[2::6] = self._ids[2::4]
        records[3::6] = self._ids[3::4]
        records[4::6] = self._times[0::2]
        records[5::6] = self._times[1::2]
        if sys.byteorder != "little":
            records.byteswap()
        header = {"fields": SPAN_FIELDS, "names": self.names, "spans": count}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            records.tofile(fh)
        return count
