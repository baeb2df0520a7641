"""One workload in one fresh process; prints one JSON result line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS/OpenMP thread counts pinned to 1. With ``--setup-only``
it imports the package, draws the first input, makes the fixed warm call,
prints ``ready`` and exits, so the parent can time a fresh process from exec
to its first result.

With ``--trace 1`` the run is split in two halves: an untraced half, then a
half with every layer function wrapped by ``spans.instrument``. The per-layer
metrics come from the traced half; the ratio of the two halves' throughput
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

import qarfcs as q
import spans
import workloads as wl

OUT_DIR = Path(__file__).resolve().parent / "out"


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the largest value for p = 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "qarfcs": q.__version__,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def end_to_end(phase: wl.Phase) -> dict:
    return {
        "ops_per_s": phase.ops / phase.busy_s,
        "latency_p50_us": _percentile(phase.latencies_s, 50) * 1e6,
        "latency_p99_us": _percentile(phase.latencies_s, 99) * 1e6,
    }


def per_layer(recorder: spans.Recorder, names: list[str], phase: wl.Phase) -> dict:
    metrics = {}
    for name in names:
        calls = recorder.calls[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.calls_per_op"] = calls / phase.ops
        metrics[f"{name}.self_ms"] = recorder.self_s[name] / phase.ops * 1e3
    return metrics


def count_checks(workload: str, recorder: spans.Recorder, phase: wl.Phase) -> list[str]:
    """Compare traced call counts with the exact counts per evaluated point."""
    got = recorder.calls_in_context
    expected = []
    if workload == "scan":
        points = len(phase.latencies_s) * wl.GRID_SIDE * wl.GRID_SIDE
        for pid in wl.PRESETS:
            ctx = f"grid:{pid}"
            expected += [
                (ctx, "model.rate", wl.RATE_CALLS_PER_POINT[pid] * points),
                (ctx, "model.rate_table", wl.RATE_TABLE_CALLS_PER_POINT * points),
                (ctx, "fcs.charpoly", wl.CHARPOLY_CALLS_PER_POINT * points),
            ]
    elif workload == "point":
        answered = phase.answered["noise:A"]
        expected.append(("noise:A", "fcs.charpoly", wl.CHARPOLY_CALLS_PER_NOISE_A * answered))
    return [
        f"{ctx} {name}: {got[ctx, name]} calls, expected {n}"
        for ctx, name, n in expected
        if got[ctx, name] != n
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    next(inputs)
    wl.warm_call()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = workload.run(inputs, seconds, out_dir=OUT_DIR)
    metrics = end_to_end(phase)
    gate = phase.gate
    attempted, failed, refused = gate.attempted, gate.failed, gate.refused
    notes = list(gate.notes)

    if args.trace:
        recorder = spans.Recorder()
        names, undo = spans.instrument(recorder)
        try:
            traced = workload.run(inputs, seconds, recorder=recorder, out_dir=OUT_DIR)
        finally:
            undo()
        traced_gate = traced.gate
        attempted += traced_gate.attempted
        failed += traced_gate.failed
        refused += traced_gate.refused
        notes += traced_gate.notes
        mismatches = count_checks(args.workload, recorder, traced)
        if mismatches:
            failed += traced_gate.attempted
            notes += mismatches
        metrics = per_layer(recorder, names, traced)
        metrics["scan.bytes_written"] = traced.info.get("bytes_per_pass", 0)
        metrics["trace.overhead_frac"] = (
            (phase.ops / phase.busy_s) / (traced.ops / traced.busy_s) - 1.0
        )
        recorder.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")

    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "op": workload.op,
        "ops": phase.ops,
        "samples": len(phase.latencies_s),
        "busy_s": phase.busy_s,
        "refused": refused,
        "sha256": phase.info.get("files", {}).get("sha256"),
    }
    if args.workload == "scan":
        grid_points = len(phase.latencies_s) * len(wl.PRESETS) * wl.GRID_SIDE**2
        info["grid_points_per_s"] = grid_points / phase.info["grid_s"]
        info["pass_s_p50"] = _percentile(phase.latencies_s, 50)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "notes": notes,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
