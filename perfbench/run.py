"""Benchmark for gdp: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload corpus-reduce --seed 1 --seconds 20 --trace 0

Workloads: corpus-reduce, fallback-search, kostka-split, cli-oneshot (see
README.md).  With ``--trace 0`` the run starts WORKERS fresh processes one
after another; each sets up, then times whole rounds of the seeded inputs
for its share of ``--seconds``, and the end-to-end metrics pool them.  With
``--trace 1`` a single process records spans and reports the per-layer
metrics.  The last line of standard output is the JSON result; the exit
code is 0 only when every answer passed its checks.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import WORKLOADS  # noqa: E402
from spans import PER_LAYER  # noqa: E402

WORKERS = 4
DEADLINE_S = 170
# Every call is timed in CPU time and scaled to a reference speed by
# worker.py; an input's latency is the median of its scaled calls.
# Tail percentiles, highest first; a run reports the highest one with at
# least ten per-input latencies beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75)


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if round(n * (100 - p), 6) >= 1000:
            return p
    raise ValueError(f"{n} samples are too few for a tail")


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def run_worker(args, budget: float, deadline: float) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--trace", str(args.trace),
    ]
    # Its own session, so that killing the group also ends the processes a
    # cli-oneshot worker starts.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def end_to_end(results: list[dict]) -> tuple[dict, str]:
    n_items = results[0]["items"]
    failed = set(results[0]["failed_items"])
    ok = [i for i in range(n_items) if i not in failed]
    per_input = sorted(
        statistics.median(s for r in results for s in r["samples"][i]) / 1e3
        for i in ok
    )
    p = tail_percentile(len(per_input))
    metrics = {
        "ops_per_s": (len(ok) / (sum(per_input) / 1e6), "ops/s"),
        "op_p50_us": (statistics.median(per_input), "us"),
        "op_tail_us": (nearest_rank(per_input, p), "us"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    rounds = sum(len(r["round_ns"]) for r in results)
    kernel_us = statistics.median(r["kernel_ns"] for r in results) / 1e3
    note = (f"op_tail_us is p{p:g} of {len(per_input)} per-input latencies; "
            f"{rounds} rounds over {len(results)} processes; "
            f"calibration kernel {kernel_us:.1f} us")
    return metrics, note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "gdp" / "__init__.py").is_file():
        print(f"error: no gdp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Bytecode is written before any timing, so no process pays for compiling.
    for directory in (ROOT / "src", BENCH):
        if not compileall.compile_dir(directory, quiet=2):
            print(f"error: cannot compile {directory}", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else WORKERS
    try:
        results = [run_worker(args, args.seconds / workers, deadline)
                   for _ in range(workers)]
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    errors = [e for r in results for e in r["errors"]]
    if len({r["digest"] for r in results}) != 1:
        errors.append("answers differ between processes")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        layers = results[0]["layers"]
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit in PER_LAYER}
        note = f"{len(results[0]['round_ns'])} rounds, spans written under {BENCH.name}/out"
    else:
        metrics, note = end_to_end(results)
    print(f"{args.workload} seed {args.seed}: {note}")
    per_round = results[0]["items"]
    failed_per_round = len(results[0]["failed_items"])
    rounds = sum(len(r["round_ns"]) for r in results)
    print(json.dumps({
        "correct": not errors,
        "attempted": rounds * per_round,
        "failed": rounds * failed_per_round,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
