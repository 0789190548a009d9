"""Spans around spinprep's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function with a wrapper in every module
namespace that holds it (``protocols`` and ``cli`` import names directly, so
patching the defining module alone would miss their calls), and restores the
originals on :meth:`Tracer.uninstall`.  No file under ``src/`` changes.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until :meth:`Tracer.write`, which stores them raw together
with each operation's factor to the reference speed (see worker.py).  A span's self time is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.  Each benchmark operation is
a root span named ``bench.op``: its self time is the part of the operation
that no traced function covers, reported as the residual.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

import spinprep
from spinprep import cli, measurement, protocols, pulse_optics, spin_core

NAMESPACES = (spinprep, spin_core, pulse_optics, measurement, protocols, cli)
OP_SPAN = "bench.op"


# Traced public functions per module, in report order.  build_pulse gets one
# span name per pulse kind and write_csv/write_json share "cli.emit".
TRACED = (
    (spin_core, ("make_css", "observables", "fidelity")),
    (pulse_optics, ("build_pulse", "response_functions", "set_local_oscillator",
                    "strengths_numeric", "peak_intracavity", "feasibility")),
    (measurement, ("apply_measurement", "outcome_pdf", "sample_outcome", "sample_outcomes",
                   "compose", "acceptance_probability")),
    (protocols, ("prepare_dss", "prepare_superposition", "dss_with_repeated_outcome",
                 "repetitive_dss")),
    (cli, ("cmd_sample", "cmd_fig2", "cmd_fig3", "cmd_fig4", "cmd_sweep", "cmd_feasibility",
           "write_csv", "write_json")),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _span_names() -> list[str]:
    names = []
    for module, functions in TRACED:
        for fn in functions:
            if fn == "build_pulse":
                names += [f"pulse_optics.build_pulse.{kind}" for kind in pulse_optics.PULSE_KINDS]
            elif fn == "write_csv":
                names.append("cli.emit")
            elif fn != "write_json":
                names.append(f"{_layer(module)}.{fn}")
    return names


SPAN_NAMES = _span_names()

# (name, unit) of every per-layer metric, in output order.  Times and counts
# are per pass; every pass of a workload runs the same operations.
PER_LAYER = [(f"{n}.{stat}", unit) for n in SPAN_NAMES
             for stat, unit in (("calls", "count"), ("self_s", "s"), ("fail", "count"))]
PER_LAYER += [
    ("spin_core.make_css.repeat_ratio", "ratio"),
    ("pulse_optics.grid_points", "count"),
    ("measurement.level_records", "count"),
    ("measurement.outcome_pdf.bytes_computed", "B"),
    ("cli.emit.bytes", "B"),
    ("trace.op_wall_s", "s"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]
COUNTERS = ("make_css.builds", "make_css.repeats", "grid_points", "level_records",
            "outcome_pdf.bytes_computed", "emit.bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent index, op id, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._css_sizes: set[int] = set()
        self.counters = dict.fromkeys(COUNTERS, 0)
        # op id -> factor that brings its times to the reference speed
        self.scales: dict[int, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self._op_id, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._css_sizes.clear()
        self._open(OP_SPAN)

    def end_op(self, failed: bool) -> None:
        self._close(self._stack[-1], failed)
        self._op_id = -1

    # -- counters at the span boundaries -----------------------------------

    def _count_make_css(self, args, kwargs, result, pre):
        n = result.atom_count
        self.counters["make_css.builds"] += 1
        if n in self._css_sizes:
            self.counters["make_css.repeats"] += 1
        self._css_sizes.add(n)

    def _count_build_pulse(self, args, kwargs, result, pre):
        self.counters["grid_points"] += result.times.size

    def _count_apply(self, args, kwargs, result, pre):
        self.counters["level_records"] += result[0].atom_count + 1

    def _count_pdf(self, args, kwargs, result, pre):
        state = args[0] if args else kwargs["state"]
        outcome = args[2] if len(args) > 2 else kwargs["outcome"]
        cells = (state.atom_count + 1) * int(getattr(outcome, "size", 1))
        self.counters["level_records"] += cells
        # computed, not measured: the records x levels float64 matrix
        self.counters["outcome_pdf.bytes_computed"] += 8 * cells

    @staticmethod
    def _stream_position(args, kwargs):
        return (args[1] if len(args) > 1 else kwargs["stream"]).tell()

    def _count_emit(self, args, kwargs, result, pre):
        self.counters["emit.bytes"] += self._stream_position(args, kwargs) - pre

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, post=None, pre=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            token = pre(args, kwargs) if pre else None
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, failed=True)
                raise
            tracer._close(idx)
            if post:
                post(args, kwargs, result, token)
            return result

        return traced

    def _patch(self, module, attr, name, post, pre) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, post, pre)
        for ns in NAMESPACES:
            if getattr(ns, attr, None) is original:
                setattr(ns, attr, wrapper)
                self._patched.append((ns, attr, original))

    def install(self) -> None:
        def pulse_name(args, kwargs):
            return f"pulse_optics.build_pulse.{args[0] if args else kwargs['kind']}"

        counters = {"make_css": self._count_make_css, "build_pulse": self._count_build_pulse,
                    "apply_measurement": self._count_apply, "outcome_pdf": self._count_pdf,
                    "write_csv": self._count_emit, "write_json": self._count_emit}
        for module, functions in TRACED:
            for fn in functions:
                if fn == "build_pulse":
                    name, pre = pulse_name, None
                elif fn in ("write_csv", "write_json"):
                    name, pre = "cli.emit", self._stream_position
                else:
                    name, pre = f"{_layer(module)}.{fn}", None
                self._patch(module, fn, name, counters.get(fn), pre)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> tuple[dict, float, float]:
        """Per span name {calls, self_s, fail}, plus total op wall and residual,
        all at the reference speed of each span's operation."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict] = {}
        op_wall = residual = 0.0
        for i, (name_id, start, end, _, op, failed) in enumerate(self.spans):
            name = self.names[name_id]
            scale = self.scales.get(op, 1.0)
            self_s = ((end - start) - child[i]) * scale
            if name == OP_SPAN:
                op_wall += (end - start) * scale
                residual += self_s
                continue
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "fail": 0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["fail"] += int(failed)
        return totals, op_wall, residual

    def write(self, path, meta: dict) -> None:
        columns = list(zip(*self.spans)) if self.spans else [[]] * 6
        payload = {
            "meta": meta,
            "op_scales": self.scales,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op", "failed"],
            "spans": [list(c) for c in columns],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)
