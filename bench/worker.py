"""Run one workload in this (fresh) interpreter and print a JSON result.

Started by run.py, never by hand: run.py gives it a clean environment and
times its start.  Modes:

* ``setup``: import spinprep, generate the inputs and report when the first
  operation is ready; nothing runs.
* ``measure``: warm up on one operation of each kind, then run whole passes
  until ``--seconds`` have elapsed, timing and checking every operation.
* ``trace``: as ``measure``, but every other pass runs with each traced
  function wrapped; reports per-pass layer metrics from the traced passes
  and the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

import spinprep  # noqa: F401  (counted in set-up time)
import tracing
import workloads

MAX_MESSAGES = 5

# Operation times are reported at a reference speed: each operation's wall
# and CPU time is multiplied by REFERENCE_S over the mean time a fixed loop
# took right before and right after it.  On the shared virtual machines this
# runs on, the speed of a vCPU wanders by a factor of up to 1.9 over seconds
# to minutes; raw times carry that straight into the run-to-run spread, and
# the ratio cancels most of it.  The loop calls nothing from spinprep, so a
# change to the program cannot move it.  Set-up time stays raw: it does not
# follow the loop's speed.
REFERENCE_S = 1e-3
_REFERENCE_X = np.arange(101.0)


def reference_loop_s() -> float:
    """Wall time of a fixed mix of small numpy calls and interpreter work.

    The loop runs twice and only the second run counts: the first run after
    a memory-heavy operation is up to 20% slower while caches refill.
    """
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200):
            y = np.exp(-(_REFERENCE_X - 0.5 * i) ** 2)
            acc += float(np.vdot(y, y)) + len({"k": i})
        elapsed = time.perf_counter() - t0
    return elapsed


class Tally:
    """Outcome of a run of operations."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.by_kind: dict[str, list] = {}  # kind -> [attempted, failed, wall seconds]
        self.messages: list[str] = []
        self.walls: list[float] = []  # at reference speed
        self.raw_walls: list[float] = []  # as measured
        self.cpu = 0.0  # at reference speed
        self.items = 0
        # per pass: [wall, cpu, items, raw wall], times summed over operations
        self.passes: list[list[float]] = []

    def record(self, op, wall, cpu, scale, error, wrong) -> None:
        counts = self.by_kind.setdefault(op.kind, [0, 0, 0.0])
        counts[0] += 1
        counts[2] += wall
        self.attempted += 1
        self.walls.append(wall * scale)
        self.raw_walls.append(wall)
        self.cpu += cpu * scale
        self.items += op.items
        if error or wrong:
            counts[1] += 1
            self.failed += 1
            self.wrong += wrong is not None
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{op.kind}: {error or wrong}")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("attempted", "failed", "wrong", "by_kind", "messages", "walls", "raw_walls",
                 "passes")}


def run_op(op, tracer=None, op_id: int = 0):
    """Run and check one operation: (wall s, CPU s, error, wrong output)."""
    if tracer:
        tracer.begin_op(op_id)
    error = wrong = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer:
        tracer.end_op(error is not None)
    if error is None:
        try:
            op.check(out)
        except Exception as exc:  # malformed output fails its check too
            wrong = f"{type(exc).__name__}: {exc}"
    return wall, cpu, error, wrong


def run_pass(wl, k: int, tally: Tally, tracer=None) -> None:
    first, cpu, items = len(tally.walls), tally.cpu, tally.items
    before = reference_loop_s()
    for op in wl.pass_ops(k):
        op_id = tally.attempted
        wall, op_cpu, error, wrong = run_op(op, tracer, op_id)
        after = reference_loop_s()
        scale = 2.0 * REFERENCE_S / (before + after)
        tally.record(op, wall, op_cpu, scale, error, wrong)
        if tracer:
            tracer.scales[op_id] = scale
        before = after
    tally.passes.append([sum(tally.walls[first:]), tally.cpu - cpu, tally.items - items,
                         sum(tally.raw_walls[first:])])


def warm_up(wl) -> Tally:
    """One operation of each kind from pass 0, so lazy imports and first-call
    costs are paid before timing; timed passes start at pass 1."""
    tally, seen = Tally(), set()
    for op in wl.pass_ops(0):
        if op.kind not in seen:
            seen.add(op.kind)
            wall, cpu, error, wrong = run_op(op)
            tally.record(op, wall, cpu, 1.0, error, wrong)
    return tally


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "workload_seed": seed,
    }


def layer_metrics(tracer: tracing.Tracer, passes: int, overhead: float) -> list:
    """[name, value per pass, unit] for every per-layer metric."""
    totals, op_wall, residual = tracer.layer_totals()
    counters = dict(tracer.counters)

    def per_pass(total):
        # counts divide exactly when every pass did the same work
        return total // passes if isinstance(total, int) and total % passes == 0 else total / passes

    values = {}
    for name in tracing.SPAN_NAMES:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "fail": 0})
        for stat in ("calls", "self_s", "fail"):
            values[f"{name}.{stat}"] = per_pass(entry[stat])
    builds = counters["make_css.builds"]
    values["spin_core.make_css.repeat_ratio"] = counters["make_css.repeats"] / builds if builds else 0.0
    values["pulse_optics.grid_points"] = per_pass(counters["grid_points"])
    values["measurement.level_records"] = per_pass(counters["level_records"])
    values["measurement.outcome_pdf.bytes_computed"] = per_pass(counters["outcome_pdf.bytes_computed"])
    values["cli.emit.bytes"] = per_pass(counters["emit.bytes"])
    values["trace.op_wall_s"] = op_wall / passes
    values["trace.residual_share"] = residual / op_wall if op_wall else 0.0
    values["trace.overhead_ratio"] = overhead
    return [[name, values[name], unit] for name, unit in tracing.PER_LAYER]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    wl.pass_ops(0)
    result = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    warm = warm_up(wl)
    result["self_checks"] = wl.self_checks()
    timed = Tally()
    deadline = time.perf_counter() + args.seconds
    k = 1  # pass 0 fed the warm-up
    if args.mode == "measure":
        while True:
            run_pass(wl, k, timed)
            k += 1
            if time.perf_counter() >= deadline:
                break
    else:
        # untraced and traced passes alternate, so drift in the machine's
        # speed falls on both sides of the overhead comparison alike
        tracer, traced = tracing.Tracer(), Tally()
        while True:
            run_pass(wl, k, timed)
            tracer.install()
            try:
                run_pass(wl, k + 1, traced, tracer)
            finally:
                tracer.uninstall()
            k += 2
            if time.perf_counter() >= deadline:
                break
        overhead = sum(traced.walls) / sum(timed.walls) - 1.0
        result["layers"] = layer_metrics(tracer, len(traced.passes), overhead)
        result["traced"] = traced.as_dict()
        if args.trace_file:
            os.makedirs(os.path.dirname(args.trace_file), exist_ok=True)
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "passes": len(traced.passes)})
    result.update(
        warm=warm.as_dict(),
        timed=timed.as_dict(),
        item=wl.item,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(args.seed),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
