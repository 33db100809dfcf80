"""Spans around gdp's public functions, recorded from outside the package.

Modules call each other through imported names, so a function is wrapped
under every name it is bound to in the ``gdp`` package and its modules (for
example ``gdp.reducer.run_profile`` as well as ``gdp.catalan.run_profile``).
A span holds the operation index, the function name (module without the
``gdp.`` prefix, then the function), start and end in ns, and the index of
the enclosing span.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import types
from time import perf_counter_ns

# Per-layer metrics from spans: (layer, statistic, unit).  A layer that a
# later change removes reads 0.
SPAN_METRICS = (
    ("catalan.run_profile", "calls_per_op", "calls/op"),
    ("catalan.run_profile", "us_per_op", "us/op"),
    ("catalan.is_generalized_catalan", "calls_per_op", "calls/op"),
    ("catalan.is_valid_decomposition", "calls_per_op", "calls/op"),
    ("catalan.is_valid_decomposition", "us_per_op", "us/op"),
    ("staircase.build_pi", "calls_per_op", "calls/op"),
    ("staircase.build_pi", "us_per_op", "us/op"),
    ("staircase.build_sigma", "us_per_op", "us/op"),
    ("reducer.phase_profile", "calls_per_op", "calls/op"),
    ("reducer.phase_profile", "us_per_op", "us/op"),
    ("reducer.reduce", "self_us_per_op", "us/op"),
    ("reducer.reduce_strict", "calls", "count"),
    ("reducer.reduce_equality", "calls", "count"),
    ("reducer.reduce_y1", "calls", "count"),
    ("oracle.reducible_bruteforce", "calls", "count"),
    ("oracle.reducible_bruteforce", "us_per_call", "us/call"),
    ("oracle.reducible_bruteforce", "time_share", "fraction"),
    ("kostka.conjugate", "us_per_op", "us/op"),
    ("kostka.column_vector", "us_per_op", "us/op"),
    ("kostka.split_pair", "us_per_op", "us/op"),
    ("kostka.common_reduce", "self_us_per_op", "us/op"),
    ("kostka.verify_column_split", "calls_per_op", "calls/op"),
    ("kostka.verify_column_split", "us_per_op", "us/op"),
)
# Per-layer metrics measured apart from spans (see worker.py).
OTHER_METRICS = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_us", "us"),
    ("trace.overhead_ratio", "ratio"),
)
PER_LAYER = tuple((f"{layer}.{stat}", unit) for layer, stat, unit in SPAN_METRICS) + OTHER_METRICS

OP = "op"  # the benchmark's own span around each timed operation


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.op_index = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (self.op_index, name, start, end, parent)

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the package wherever it is bound."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        ]
        wrapped = {}
        prefix = package.__name__ + "."
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(prefix)
                ):
                    continue
                if id(value) not in wrapped:
                    name = value.__module__[len(prefix):] + "." + value.__qualname__
                    wrapped[id(value)] = self.wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps([op, name, start, end, parent]) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """The SPAN_METRICS over all recorded spans.

        Inclusive time counts only spans with no enclosing span of the same
        name; self time is a span's duration minus that of its direct
        children."""
        calls, inclusive, self_ns = {}, {}, {}
        child_ns = [0] * len(self.spans)
        names = [s[1] for s in self.spans]
        for index in range(len(self.spans) - 1, -1, -1):
            _, name, start, end, parent = self.spans[index]
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - child_ns[index]
            if parent >= 0:
                child_ns[parent] += duration
            ancestor = parent
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                inclusive[name] = inclusive.get(name, 0) + duration
        ops = calls.get(OP, 0)
        op_ns = inclusive.get(OP, 0)
        out = {}
        for layer, stat, _ in SPAN_METRICS:
            n, incl = calls.get(layer, 0), inclusive.get(layer, 0)
            value = {
                "calls_per_op": n / ops,
                "us_per_op": incl / ops / 1e3,
                "self_us_per_op": self_ns.get(layer, 0) / ops / 1e3,
                "calls": n / rounds,
                "us_per_call": incl / n / 1e3 if n else 0.0,
                "time_share": incl / op_ns,
            }[stat]
            out[f"{layer}.{stat}"] = value
        return out
