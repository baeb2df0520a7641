"""Benchmark runner for qarfcs: one command, one workload, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan|point|random --seed N \
        --seconds S --trace 0|1

The runner starts every workload in fresh processes with the thread counts
of OpenBLAS and OpenMP pinned to 1 and imports qarfcs from the checkout's
``src``. With ``--trace 0`` it first times ``SETUP_PROBES`` fresh processes
from exec to their first result (``setup_s`` is their median), then runs the
workload for ``--seconds`` and reports the ``end_to_end`` metrics of
``BENCHMARK.json``. With ``--trace 1`` it reports the ``per_layer`` metrics
instead. Human-readable lines come first; the last line of standard output
is the JSON result. The full result, with the environment block, is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return env


def setup_seconds(args, env: dict, deadline: float) -> list[float]:
    """Exec-to-first-result time of fresh workload processes."""
    times = []
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        times.append(t1 - t0)
    return times


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="qarfcs benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail(f"{bench_file.name} not found at the checkout root")
    if not (ROOT / "src" / "qarfcs" / "__init__.py").is_file():
        return fail("no qarfcs sources under src/; run from a full checkout")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not 0 < args.seconds <= 60:
        return fail("--seconds must be in (0, 60]")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    deadline = start + TIME_LIMIT_S
    env = worker_env()
    probes = [] if args.trace else setup_seconds(args, env, deadline)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return fail(f"workload process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    values = dict(result["metrics"])
    if probes:
        values["setup_s"] = statistics.median(probes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"workload did not measure {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    info = result["info"]
    env_block = {**result["env"], "commit": git_commit(), "seed": args.seed,
                 "workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    report = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "error_frac": failed / attempted, "refused_frac": info["refused"] / attempted,
              "setup_probes_s": probes, "info": info, "notes": result["notes"],
              "env": env_block}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; op = one {info['op']}")
    print("env " + json.dumps(env_block))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"samples = {info['samples']} ({'passes' if args.workload == 'scan' else 'ops'}), "
              f"setup probes = {len(probes)}")
        if args.workload == "scan":
            print(f"grid_points_per_s = {info['grid_points_per_s']:.6g} 1/s")
            print(f"pass_s_p50 = {info['pass_s_p50']:.6g} s")
    print(f"error_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if args.workload == "point":
        print(f"refused_frac = {info['refused'] / attempted:.6g} ratio")
    for note in result["notes"]:
        print(f"gate: {note}")
    print(f"details in {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
