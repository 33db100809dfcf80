"""One workload process: set up, run whole timed rounds, check every answer.

run.py starts this script in a fresh interpreter and reads one JSON object
from its standard output.  A round calls the workload's operation once on
each input, one call after another from a single thread.  Rounds repeat
until the timed part has used the process's share of the run time.
Answers are checked outside the timed region: the first round's answers
against the reference computations, every later round's against the first.

Operations are timed in CPU time, not wall time, so time the host gives to
other processes is not counted: the thread's own CPU time, or for
cli-oneshot the CPU time of the ``python -m gdp`` child.  The speed of the
host's CPUs still varies from run to run, so a fixed piece of work, the
kernel, is timed between operations, and every time is scaled to the
reference speed, the one at which the kernel takes its reference time.
The kernel is ``calibrate`` in this process, and for cli-oneshot a bare
``python -c pass`` child, which is start-up work like the request's own.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns, process_time_ns, thread_time_ns

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TRACED_ROUNDS = 2
CLI_PROBES = 10
# The kernel runs after every CALIBRATE_EVERY_NS of operation time, up to
# CALIBRATE_MAX times after one long operation; an operation's speed is the
# median kernel time of the CALIBRATE_WINDOW runs before it and as many after.
CALIBRATE_EVERY_NS = 2_000_000
CALIBRATE_MAX = 8
CALIBRATE_WINDOW = 8
# Median CPU time of one kernel run on the reference machine (see README.md):
# ``calibrate``, and a ``python -c pass`` process.
REF_KERNEL_NS = 185_000
REF_INTERPRETER_NS = 37_600_000

_KERNEL_DATA = tuple((i * 7919) % 13 - 6 for i in range(48))


def calibrate():
    """A fixed piece of pure-Python work like gdp's own: prefix sums over a
    short list of small ints, tuples, a dict of counts, a sort."""
    counts = {}
    total = 0
    for shift in range(16):
        s = 0
        profile = []
        for x in _KERNEL_DATA[shift:] + _KERNEL_DATA[:shift]:
            s += x
            profile.append((s, x))
            counts[s] = counts.get(s, 0) + 1
        profile.sort()
        total += profile[len(profile) // 2][0] + max(counts.values())
    return total


def children_cpu_ns():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((r.ru_utime + r.ru_stime) * 1e9)


class Speed:
    """Kernel times, taken between operations with the operations' clock."""

    def __init__(self, kernel, clock, ref_ns, every_ns=CALIBRATE_EVERY_NS, most=CALIBRATE_MAX):
        self.kernel, self.clock, self.ref_ns = kernel, clock, ref_ns
        self.every_ns, self.most = every_ns, most
        self.kernel_ns = []

    def run(self, times=1):
        for _ in range(times):
            t0 = self.clock()
            self.kernel()
            self.kernel_ns.append(self.clock() - t0)

    def factors(self):
        """factors()[c]: the scale for an operation that started after c
        kernel runs."""
        k, w = self.kernel_ns, CALIBRATE_WINDOW
        return [self.ref_ns / statistics.median(k[max(0, c - w):c + w])
                for c in range(len(k) + 1)]


def run_rounds(wl, call, budget_ns, samples, marks, state):
    """Whole timed rounds, as many as fit in ``budget_ns`` of wall time (at
    least one).

    Each call's CPU time goes to ``samples[i]``, and the number of kernel
    runs before it to ``marks[i]``.  Each answer is turned into its record
    as soon as its call is timed, so the benchmark holds no answers for the
    collector to scan; records after the first round are compared with the
    first round's and dropped.  Returns the CPU ns of each round's calls."""
    items = wl.items
    speed = state["speed"]
    clock = speed.clock
    round_ns = []
    start = perf_counter_ns()
    while not round_ns or (perf_counter_ns() - start) * (len(round_ns) + 1) / len(round_ns) <= budget_ns:
        first = state["records"] is None
        records = []
        busy = 0
        since = 0
        for i, item in enumerate(items):
            t0 = clock()
            try:
                out = call(item)
            except Exception as exc:  # a failed operation; checked below
                out = exc
            elapsed = clock() - t0
            samples[i].append(elapsed)
            marks[i].append(len(speed.kernel_ns))
            busy += elapsed
            since += elapsed
            if since >= speed.every_ns:
                speed.run(min(speed.most, since // speed.every_ns))
                since = 0
            rec = wl.record(item, out)
            if first:
                records.append(rec)
            elif rec != state["records"][i]:
                state["errors"].append(f"{item}: answer differs between rounds")
        round_ns.append(busy)
        if first:
            state["records"] = records
            # Every input has been seen once; later rounds only add samples.
            state["rss"] = resource.getrusage(state["rusage_who"]).ru_maxrss
            # Keep the first round's records out of later collections.
            gc.collect()
            gc.freeze()
    return round_ns


def scaled(samples, marks, speed):
    """Each call's CPU ns at the reference speed."""
    f = speed.factors()
    return [[round(t * f[c]) for t, c in zip(ts, cs)] for ts, cs in zip(samples, marks)]


def check_records(wl, state):
    """Check the first round's answers; return the indices of failed ops."""
    failed = []
    for i, (item, rec) in enumerate(zip(wl.items, state["records"])):
        err = wl.check(item, rec)
        if err == workloads.FAILED:
            failed.append(i)
        elif err is not None:
            state["errors"].append(f"{item}: {err}: {rec}")
    return failed


def _median_ms(command, env, parse=None, runs=CLI_PROBES):
    values = []
    for _ in range(runs):
        t0 = perf_counter_ns()
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
        elapsed = (perf_counter_ns() - t0) / 1e6
        if proc.returncode != 0:
            raise RuntimeError(f"{command} exited {proc.returncode}: {proc.stderr}")
        values.append(parse(proc.stdout) if parse else elapsed)
    return statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="timed seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import gdp

    classes = {
        "corpus-reduce": workloads.CorpusReduce,
        "fallback-search": workloads.FallbackSearch,
        "kostka-split": workloads.KostkaSplit,
    }
    if args.workload == "cli-oneshot":
        cls = workloads.CliInProcess if args.trace else workloads.CliOneshot
        wl = cls(gdp, args.seed, ROOT)
    else:
        wl = classes[args.workload](gdp, args.seed)
    for item in wl.warm:
        wl.call(item)
    gc.collect()
    gc.freeze()

    # Set-up is the CPU time of this process so far, and of the children
    # cli-oneshot started to warm up, at the reference speed.
    setup_ns = process_time_ns() + children_cpu_ns()
    cli_children = args.workload == "cli-oneshot" and not args.trace
    if cli_children:
        bare = [sys.executable, "-c", "pass"]
        speed = Speed(lambda: subprocess.run(bare, env=wl.env, capture_output=True, check=True),
                      children_cpu_ns, REF_INTERPRETER_NS, every_ns=1, most=1)
    else:
        speed = Speed(calibrate, thread_time_ns, REF_KERNEL_NS)
    speed.run(CALIBRATE_WINDOW + 2)
    del speed.kernel_ns[:2]  # the kernel's own warm-up
    setup_s = setup_ns / 1e9 * speed.factors()[0]

    budget_ns = int(args.budget * 1e9)
    samples = [[] for _ in wl.items]
    marks = [[] for _ in wl.items]
    who = resource.RUSAGE_CHILDREN if cli_children else resource.RUSAGE_SELF
    state = {"records": None, "errors": [], "rusage_who": who, "speed": speed}
    result = {}
    if not args.trace:
        round_ns = run_rounds(wl, wl.call, budget_ns, samples, marks, state)
        result.update(
            setup_s=setup_s,
            peak_rss_mb=state["rss"] / 1024,
            samples=scaled(samples, marks, speed),
        )
    else:
        layers = {}
        if args.workload == "cli-oneshot":
            env = dict(wl.env)
            layers["cli.interpreter_ms"] = _median_ms([sys.executable, "-c", "pass"], env)
            probe = ("import time; t = time.perf_counter(); import gdp.cli; "
                     "print(time.perf_counter() - t)")
            layers["cli.import_ms"] = _median_ms(
                [sys.executable, "-c", probe], env, parse=lambda s: float(s) * 1e3
            )
        round_ns = run_rounds(wl, wl.call, budget_ns // 2, samples, marks, state)
        if args.workload == "cli-oneshot":
            layers["cli.main_us"] = statistics.median(
                t for ts in scaled(samples, marks, speed) for t in ts) / 1e3
        tracer = spans.Tracer()
        traced_op = tracer.wrap(spans.OP, wl.call)

        def traced_call(item):
            tracer.op_index += 1
            return traced_op(item)

        # Traced rounds alternate with untraced ones, so that the overhead
        # ratio compares rounds run at nearly the same time.
        traced_ns, paired_ns = [], []
        for _ in range(TRACED_ROUNDS):
            paired_ns += run_rounds(wl, wl.call, 0, samples, marks, state)
            tracer.install(gdp)
            unused = [[] for _ in wl.items], [[] for _ in wl.items]
            traced_ns += run_rounds(wl, traced_call, 0, *unused, state)
            tracer.uninstall()
        layers.update(tracer.layer_metrics(len(traced_ns)))
        layers["trace.overhead_ratio"] = sum(paired_ns) / sum(traced_ns)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = layers
        round_ns += paired_ns + traced_ns

    failed = check_records(wl, state)
    digest = hashlib.sha256(json.dumps(state["records"]).encode()).hexdigest()
    result.update(
        round_ns=round_ns,
        kernel_ns=statistics.median(speed.kernel_ns),
        items=len(wl.items),
        failed_items=failed,
        errors=state["errors"][:20],
        digest=digest,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
