"""
Spans around the calls into raketab's public functions, and the per-layer
metrics computed from them.

Spans are recorded from the benchmark's own files by replacing module and
class attributes with timing wrappers; nothing under src/ is edited. A
span is (id, name, start, end, parent, run) plus a few attributes read
from the call's arguments or result after the span has closed. Times are
CLOCK_MONOTONIC nanoseconds (time.perf_counter_ns on Linux), so spans
written by CLI child processes line up with the parent's stage spans.

The layers are raketab's modules. A span's name is "<layer>.<qualname>",
for example "ingest.parse_table" or "table.MarginSet.from_table"; the
benchmark's own spans use the "bench" layer and are not reported as one.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "ingest", "table", "bisg", "raking", "calibmap", "metrics", "synth")

clock_ns = time.perf_counter_ns


class Tracer:
    """In-memory span recorder for one process; spans are written at the end."""

    def __init__(self, run_id, root_parent=None):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = [root_parent] if root_parent is not None else []

    def open(self, name):
        span = {
            "id": f"{self.run_id}/{os.getpid()}/{next(self._ids)}",
            "name": name,
            "start": clock_ns(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self._stack.append(span["id"])
        self.spans.append(span)
        return span

    def close(self, span, **attrs):
        span["end"] = clock_ns()
        self._stack.pop()
        span.update(attrs)
        return span

    def adopt(self, spans):
        self.spans.extend(spans)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path):
    with open(path) as fh:
        return json.load(fh)


# attributes read after a span closes --------------------------------------


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _rows(result):
    """Rows an ingest reader returned: cells, records, or factor rows."""
    if hasattr(result, "n_cells"):
        return result.n_cells
    if isinstance(result, tuple) and len(result) == 3:  # (probs, counts, rejects)
        return len(result[0]) + len(result[2])
    if isinstance(result, (list, dict)):
        return len(result)
    return 1


def _ingest_reader_attrs(args, result):
    return {"bytes_read": _file_size(args[0]), "rows": _rows(result)}


def _ingest_writer_attrs(args, result):
    return {"bytes_written": _file_size(args[0])}


def _weighted_counts_attrs(args, result):
    return {"rejected": len(result[1])}


def _rake_attrs(args, result):
    return {"iterations": result.iterations, "gap": result.final_margin_gap}


def _attrs_hook(layer, name):
    if layer == "ingest" and name.startswith("parse_"):
        return _ingest_reader_attrs
    if layer == "ingest" and name.startswith("write_"):
        return _ingest_writer_attrs
    if (layer, name) == ("bisg", "weighted_counts"):
        return _weighted_counts_attrs
    if (layer, name) == ("raking", "rake"):
        return _rake_attrs
    return None


def _wrap(tracer, span_name, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(span_name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span, error=type(exc).__name__)
            raise
        tracer.close(span)
        if hook is not None:
            span.update(hook(args, result))
        return result

    return traced


def traced_calls():
    """The public calls the traced run wraps, as (layer, owner, attribute).

    These are every function and class named in raketab.__all__ (for a
    class: its own __init__, classmethods and plain public methods), and
    every public function of raketab.ingest (the readers and writers).
    raketab.cli.main is timed by cli_child.py. Generator methods and
    properties are left alone: a span around them would time nothing.
    """
    import raketab
    from raketab import ingest

    calls = []
    names = [(raketab, name) for name in raketab.__all__]
    names += [
        (ingest, name)
        for name, obj in vars(ingest).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == ingest.__name__
        and name not in raketab.__all__
    ]
    for module, name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            calls.append((obj.__module__.rsplit(".", 1)[-1], module, name))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
            layer = obj.__module__.rsplit(".", 1)[-1]
            for attr, member in vars(obj).items():
                if isinstance(member, classmethod) and not attr.startswith("_"):
                    calls.append((layer, obj, attr))
                elif (
                    inspect.isfunction(member)
                    and (attr == "__init__" or not attr.startswith("_"))
                    and not inspect.isgeneratorfunction(member)
                ):
                    calls.append((layer, obj, attr))
    return calls


def install(tracer):
    """Replace every traced call with a span-recording wrapper.

    A function is replaced in every raketab module namespace that holds
    it (raketab.cli imports some by name), so calls made through any of
    them are seen. Returns a function that puts the originals back.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "raketab" or n.startswith("raketab.")]
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    for layer, owner, attr in traced_calls():
        if inspect.isclass(owner):
            member = vars(owner)[attr]
            name = f"{layer}.{owner.__name__}.{attr}"
            if isinstance(member, classmethod):
                replace(owner, attr, classmethod(_wrap(tracer, name, member.__func__, None)))
            else:
                replace(owner, attr, _wrap(tracer, name, member, None))
            continue
        fn = getattr(owner, attr)
        traced = _wrap(tracer, f"{layer}.{attr}", fn, _attrs_hook(layer, attr))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    replace(module, key, traced)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


@contextlib.contextmanager
def tracing(tracer):
    """Trace the calls made in this process while the block runs; no-op for None."""
    if tracer is None:
        yield
        return
    uninstall = install(tracer)
    try:
        yield
    finally:
        uninstall()


# per-layer metrics ---------------------------------------------------------


def _dur(span):
    return (span["end"] - span["start"]) / 1e9


def self_times(spans):
    """Span id -> self time: duration minus the time its children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    return {s["id"]: _dur(s) - child_time.get(s["id"], 0.0) for s in spans}


def _outermost(spans, names):
    """Spans with one of `names` that are not nested in another such span."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = by_id.get(s["parent"])
        while p is not None and p["name"] not in names:
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def _inclusive_s(spans, *names):
    return sum(_dur(s) for s in _outermost(spans, set(names)))


# metrics that are the inclusive time of the outermost spans of some calls
INCLUSIVE = {
    "ingest.parse_table_s": ("ingest.parse_table",),
    "ingest.parse_factors_s": ("ingest.parse_surname_factors", "ingest.parse_geo_factors"),
    "ingest.parse_voter_file_s": ("ingest.parse_voter_file",),
    "ingest.aggregate_voters_s": ("ingest.aggregate_voters",),
    "ingest.subsample_to_margin_s": ("ingest.subsample_to_margin",),
    "table.from_label_cells_s": ("table.ContingencyTable.from_label_cells",),
    "table.margin_set_s": ("table.MarginSet.__init__", "table.MarginSet.from_table"),
    "bisg.fit_factors_s": ("bisg.fit_factors",),
    "bisg.weighted_counts_s": ("bisg.weighted_counts",),
    "metrics.subpop_report_s": ("metrics.subpop_report",),
    "metrics.cellwise_report_s": ("metrics.cellwise_report",),
    "metrics.calibration_curve_s": ("metrics.calibration_curve",),
    "synth.generate_s": ("synth.generate",),
}
RAKE = "raking.rake"
SOLVE = "calibmap.solve_calibration_map"
# every span name the metrics read: a refactor that renames one of these
# calls changes the benchmark
METRIC_SPANS = {n for names in INCLUSIVE.values() for n in names} | {RAKE, SOLVE}


def layer_metrics(spans):
    """Per-layer metrics of one pass, from all of its spans.

    Times are inclusive over the outermost span of the named calls; a
    layer's self_s is the time its spans do not spend in other spans.
    Metrics of a layer the workload does not exercise read 0.
    """
    m = {}
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            selfs[s["id"]] for s in spans if s["name"].split(".", 1)[0] == layer
        )

    # cli: child wall minus the in-process main, and main's own time
    by_id = {s["id"]: s for s in spans}
    startup, per_stage = [], {}
    for s in spans:
        if s["name"] != "cli.main":
            continue
        stage = by_id.get(s["parent"])
        if stage is not None:
            startup.append(_dur(stage) - _dur(s))
            key = stage["name"].rsplit(".", 1)[-1]
            per_stage[key] = per_stage.get(key, 0.0) + selfs[s["id"]]
    m["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    for stage in ("fit", "predict", "rake", "evaluate", "subsample"):
        m[f"cli.{stage}.self_s"] = per_stage.get(stage, 0.0)

    for metric, names in INCLUSIVE.items():
        m[metric] = _inclusive_s(spans, *names)

    writers = [s for s in spans if s["name"].startswith("ingest.write_")]
    readers = [s for s in spans if s["name"].startswith("ingest.parse_")]
    m["ingest.write_s"] = sum(_dur(s) for s in writers)
    m["ingest.bytes_read"] = sum(s.get("bytes_read", 0) for s in readers)
    m["ingest.bytes_written"] = sum(s.get("bytes_written", 0) for s in writers)
    read_s = sum(_dur(s) for s in readers)
    rows = sum(s.get("rows", 0) for s in readers)
    m["ingest.rows_per_s"] = rows / read_s if read_s > 0 else 0.0

    m["bisg.rejected_cells"] = sum(
        s.get("rejected", 0) for s in spans if s["name"] == "bisg.weighted_counts"
    )

    rakes = [s for s in spans if s["name"] == RAKE]
    m["raking.rake_s"] = sum(_dur(s) for s in rakes)
    m["raking.iterations"] = sum(s.get("iterations", 0) for s in rakes)
    m["raking.s_per_iteration"] = (
        m["raking.rake_s"] / m["raking.iterations"] if m["raking.iterations"] else 0.0
    )
    m["raking.final_margin_gap"] = max((s.get("gap", 0.0) for s in rakes), default=0.0)

    solves = [s for s in spans if s["name"] == SOLVE]
    ms = sorted(_dur(s) * 1e3 for s in solves)
    m["calibmap.solve_s"] = sum(ms) / 1e3
    m["calibmap.solve_p50_ms"] = statistics.median(ms) if ms else 0.0
    m["calibmap.solve_p95_ms"] = percentile(ms, 95) if ms else 0.0
    m["calibmap.solves_failed"] = sum(1 for s in solves if "error" in s)
    return m


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]
