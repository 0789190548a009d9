"""spinprep benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a spinprep checkout:

    python3 bench/run.py --workload shots --seed 1 --seconds 15 --trace 0

Workloads are ``shots``, ``pulses``, ``tables`` and ``large_n`` (see
bench/README.md).  The workload runs in fresh interpreters started from this
process, one after the other, with spinprep imported from ``src/``, every
``SPINPREP_*`` variable removed and BLAS held to one thread.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; human-readable lines come first and the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("shots", "pulses", "tables", "large_n")
# fresh interpreters timed for setup_s; the measuring one is the last
SETUP_SAMPLES = 5
# every child must have ended by then, to exit well within 180 s
BUDGET_S = 170.0
OUT_DIR = ".bench_out"


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPINPREP_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (start time, its JSON result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the workload ran")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return start, json.loads(lines[-1])


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten operations beyond it: (value, percentile)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup: list[float], res: dict) -> tuple[dict, list[str]]:
    timed = res["timed"]
    walls, raw, passes = timed["walls"], timed["raw_walls"], timed["passes"]
    tail_s, pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput": (statistics.median(p[2] / p[0] for p in passes), "items/s"),
        "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters: import, inputs, first op "
                   f"ready; as measured",
        "throughput": f"{res['item']} per second of operation time, median of {len(passes)} "
                      f"passes; raw {statistics.median(p[2] / p[3] for p in passes):.6g}",
        "op_p50_ms": f"median of {len(walls)} operations; raw {1e3 * statistics.median(raw):.4g}",
        "op_tail_ms": f"p{pct:.1f} of {len(walls)} operations (10 slower); "
                      f"raw {1e3 * tail(raw)[0]:.4g}",
        "cpu_s": f"process CPU time per pass, median of {len(passes)} passes",
        "peak_rss_mb": "high-water mark of the measuring interpreter",
    }
    lines = [f"{name:<14} {value:.6g} {unit}  ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    lines.append("(operation times at reference speed, see REFERENCE_S in bench/worker.py; "
                 "raw = as measured)")
    lines.append(f"{'fail_ratio':<14} {timed['failed'] / timed['attempted']:.6g} ratio  "
                 f"({timed['failed']} of {timed['attempted']} operations)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    layers = res["layers"]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in layers}
    lines = [f"{name:<52} {value:.6g} {unit}" for name, value, unit in layers if value]
    lines.append(f"(per pass, over {len(res['traced']['passes'])} traced passes; zero metrics not "
                 f"listed; residual = op wall time outside every traced function)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinprep", "__init__.py")):
        print("error: run from the root of a spinprep checkout (src/spinprep not found)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = child_env(root)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                start, res = run_child(base + ["--mode", "setup"], env, deadline)
                setup.append(res["ready"] - start)
            start, res = run_child(base + ["--mode", "measure", "--seconds", str(args.seconds)],
                                   env, deadline)
        else:
            trace_file = os.path.join(root, OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
            start, res = run_child(base + ["--mode", "trace", "--seconds", str(args.seconds),
                                           "--trace-file", trace_file], env, deadline)
        setup.append(res["ready"] - start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env_record = dict(res["env"], git=git_revision(root))
    timed, warm = res["timed"], res["warm"]
    traced = res.get("traced")
    ops = [timed] + ([traced] if traced else [])
    attempted = sum(t["attempted"] for t in ops)
    failed = sum(t["failed"] for t in ops)
    wrong = sum(t["wrong"] for t in ops) + warm["wrong"]
    self_failures = [f"{name}: {msg}" for name, msg in res["self_checks"] if msg]
    correct = wrong == 0 and not self_failures

    print(f"spinprep benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_record.items()))
    by_kind: dict[str, list] = {}
    for t in ops:
        for kind, counts in t["by_kind"].items():
            total = by_kind.setdefault(kind, [0, 0, 0.0])
            for i, c in enumerate(counts):
                total[i] += c
    print(f"operations: {attempted} attempted, {failed} failed, {wrong} wrong outputs")
    for kind, (n, f, wall) in sorted(by_kind.items()):
        print(f"  {kind:<36} {n:>6} attempted {f:>5} failed (share {f / n:.4g}), "
              f"mean {1e3 * wall / n:.4g} ms raw")
    for name, msg in res["self_checks"]:
        print(f"self check: {name}: {'ok' if not msg else 'FAILED'}")
    for msg in (timed["messages"] + (traced["messages"] if traced else []) + warm["messages"]
                + self_failures)[:5]:
        print(f"  failure: {msg}")

    if args.trace == 0:
        metrics, lines = end_to_end(setup, res)
    else:
        metrics, lines = per_layer(res)
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
