"""genrec benchmark command.

    python3 bench/run.py --workload NAME [--seed 0] [--seconds 20] [--trace 0|1]

Runs one workload (recover-linear, recover-paper, verify-default, sweep-2w)
in fresh child processes (bench/workloads.py) and prints its metrics, one
per line, then one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; set-up is measured in
SETUPS separate processes and reported as their median. With --trace 1 a
single traced process reports the per-layer metrics and the tracing overhead.
Run it from the root of a genrec source tree; it exits non-zero without a
result when src/genrec is missing or any check cannot run.
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

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("recover-linear", "recover-paper", "verify-default", "sweep-2w")
SETUPS = 3
CHILD_TIMEOUT_S = 160

# One BLAS thread per process. With OpenBLAS's default of 2 threads on this
# 2-core class of machine, gaussian_full_rank took 195 ms instead of 108 ms,
# one first paper-scale solve 1056 ms instead of 119 ms, and sweep-2w would
# run 4 BLAS threads on 2 cores. The pin must be in the environment before
# numpy loads, hence the child processes.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(args, *extra) -> tuple[float, dict]:
    """Start one workload process; return (its start time, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, env={**os.environ, **BLAS_PIN}, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: workload process exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def speed(out, first=None) -> float:
    """The factor that turns a time measured in a workload process into the
    time on a host on which the process's host-speed kernel takes its
    hostspeed.REF_S: REF_S over the kernel's median time in the process
    (over its first `first` calls, those right after set-up)."""
    return hostspeed.REF_S[out["kernel"]] / statistics.median(out["cal_s"][:first])


def end_to_end(args) -> tuple[dict, dict]:
    setups, raw_setups, problems = [], [], []
    for k in range(SETUPS):
        start, out = run_child(args, *(["--setup-only"] if k < SETUPS - 1 else []))
        raw_setups.append(out["ready"] - start)
        setups.append(raw_setups[-1] * speed(out, hostspeed.CAL_SETUP))
        problems += out["problems"]
    out["problems"] = problems
    times = out["op_s"]
    f = speed(out)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / (sum(times) * f), "1/s"),
        "op_ms.p50": (statistics.median(times) * f * 1e3, "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    print(f"{args.workload}: {len(times)} operations; host-speed factor {f:.4f} from "
          f"{len(out['cal_s'])} calls of the {out['kernel']} kernel; as measured: setup_s "
          f"{statistics.median(raw_setups):.4f} s, ops_per_s {len(times) / sum(times):.4f} 1/s, "
          f"op_ms.p50 {statistics.median(times) * 1e3:.3f} ms")
    return out, metrics


def per_layer(args) -> tuple[dict, dict]:
    _, out = run_child(args, "--trace")
    untraced = statistics.median(out["untraced_op_s"]) * 1e3
    traced = statistics.median(out["traced_op_s"]) * 1e3
    print(f"{args.workload}: tracing overhead {traced - untraced:+.3f} ms per operation "
          f"(op_ms.p50 traced {traced:.3f} - untraced {untraced:.3f}, "
          f"{len(out['traced_op_s'])} operations each)")
    metrics = {name: (value, unit) for name, unit, value in out["layers"]}
    return out, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="genrec benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "genrec" / "__init__.py").is_file():
        sys.exit(f"bench: no genrec sources under {ROOT / 'src'}")

    out, metrics = per_layer(args) if args.trace else end_to_end(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:40s} {value:14.6g} {unit}")
    for problem in out["problems"][:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": len(out["op_s"]),
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
