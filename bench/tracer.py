"""Span tracer for the benchmark's traced run.

``install`` wraps scale_lab functions under the names their callers look
them up by (``scale_lab.training.adam_step``, not only
``scale_lab.optimizers.adam_step``).  Each call records one span (name,
start, end, parent) in memory; ``layer_metrics`` turns the spans into the
per-layer metrics and ``write_spans`` writes them out once the run is over.
An untraced run never imports this module, so it patches nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import os
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ALL_STATS = ("calls", "busy_s", "self_s", "p50_us", "p99_us")
CLI_COMMANDS = ("sweep", "report", "probe", "flow")


def _stats(span: str, *stats: str) -> list[str]:
    return [f"{span}.{stat}" for stat in stats]


# The per-layer metrics, in report order.  ``flow.rk4_steps``,
# ``reporting.write_csv.bytes`` and ``signals.g.calls_per_rk4_step`` are
# counters; ``trace.overhead_s`` is added by the harness.
LAYER_METRICS = (
    _stats("problems.loss", *ALL_STATS) + _stats("problems.grad", *ALL_STATS)
    + _stats("rng.integers", *ALL_STATS) + _stats("optimizers.adam_step", *ALL_STATS)
    + _stats("training.sweep_grid", "self_s")
    + _stats("training.run_training", "calls", "busy_s", "self_s")
    + _stats("metrics.ema_smooth", *ALL_STATS)
    + _stats("metrics.grid_report", "busy_s") + _stats("metrics.omega", "busy_s")
    + _stats("invariance.step_scale_grid", "self_s")
    + _stats("invariance.run_step_scale_experiment", *ALL_STATS)
    + _stats("invariance.first_order_sensitivity", "busy_s")
    + _stats("flow.integrate_flow", "calls", "busy_s", "self_s") + ["flow.rk4_steps"]
    + [m for s in ("g", "delta", "delta_prime") for m in _stats(f"signals.{s}", "calls", "busy_s")]
    + ["signals.g.calls_per_rk4_step"]
    + [m for s in ("drift_bounds", "measure_remainder", "remainder_order_sweep")
       for m in _stats(f"drift.{s}", "calls", "busy_s", "self_s")]
    + _stats("drift.predict_first_order", "calls")
    + _stats("reporting.write_csv", "calls", "busy_s", "bytes")
    + _stats("reporting.read", "busy_s") + _stats("reporting.manifest", "busy_s")
    + [f"cli.{c}.busy_s" for c in CLI_COMMANDS]
    + ["trace.overhead_s"]
)

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us",
          "bytes": "bytes", "rk4_steps": "count", "calls_per_rk4_step": "ratio",
          "overhead_s": "s"}


def unit_of(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


# Counters kept outside the spans, and the span each depends on.
_COUNTER_SPANS = {"flow.rk4_steps": "flow.integrate_flow",
                  "reporting.write_csv.bytes": "reporting.write_csv"}

# (module, attribute, span name, kind).  Kinds: "call" wraps the function;
# "problem" and "signal" wrap factories so that the loss/grad or g callables
# of what they build are traced; "cli" names the span after the command;
# "rk4" and "bytes" also feed a counter from the result.
TARGETS = (
    ("scale_lab.cli", "main", "cli", "cli"),
    ("scale_lab.cli", "make_problem", "problems", "problem"),
    ("scale_lab.rng", "CounterRng.integers", "rng.integers", "call"),
    ("scale_lab.training", "adam_step", "optimizers.adam_step", "call"),
    ("scale_lab.invariance", "adam_step", "optimizers.adam_step", "call"),
    ("scale_lab.cli", "sweep_grid", "training.sweep_grid", "call"),
    ("scale_lab.training", "run_training", "training.run_training", "call"),
    ("scale_lab.training", "ema_smooth", "metrics.ema_smooth", "call"),
    ("scale_lab.training", "oscillation_omega1", "metrics.omega", "call"),
    ("scale_lab.training", "oscillation_omega2", "metrics.omega", "call"),
    ("scale_lab.training", "grid_report", "metrics.grid_report", "call"),
    ("scale_lab.cli", "grid_report", "metrics.grid_report", "call"),
    ("scale_lab.cli", "step_scale_grid", "invariance.step_scale_grid", "call"),
    ("scale_lab.invariance", "run_step_scale_experiment",
     "invariance.run_step_scale_experiment", "call"),
    ("scale_lab", "first_order_sensitivity", "invariance.first_order_sensitivity", "call"),
    ("scale_lab.cli", "integrate_flow", "flow.integrate_flow", "rk4"),
    ("scale_lab.invariance", "integrate_flow", "flow.integrate_flow", "rk4"),
    ("scale_lab.drift", "integrate_flow", "flow.integrate_flow", "rk4"),
    ("scale_lab.cli", "constant_signal", "signals.g", "signal"),
    ("scale_lab.cli", "exponential_signal", "signals.g", "signal"),
    ("scale_lab.cli", "sinusoidal_log_signal", "signals.g", "signal"),
    ("scale_lab.invariance", "exponential_signal", "signals.g", "signal"),
    ("scale_lab.drift", "exponential_signal", "signals.g", "signal"),
    ("scale_lab.signals", "GradientSignal.delta", "signals.delta", "call"),
    ("scale_lab.signals", "GradientSignal.delta_prime", "signals.delta_prime", "call"),
    ("scale_lab.drift", "drift_bounds", "drift.drift_bounds", "call"),
    ("scale_lab.cli", "measure_remainder", "drift.measure_remainder", "call"),
    ("scale_lab.drift", "measure_remainder", "drift.measure_remainder", "call"),
    ("scale_lab", "remainder_order_sweep", "drift.remainder_order_sweep", "call"),
    ("scale_lab.drift", "predict_first_order", "drift.predict_first_order", "call"),
    ("scale_lab.reporting", "write_csv", "reporting.write_csv", "bytes"),
    ("scale_lab.cli", "write_csv", "reporting.write_csv", "bytes"),
    ("scale_lab.cli", "read_omega_grids", "reporting.read", "call"),
    ("scale_lab.cli", "read_omega_matrix", "reporting.read", "call"),
    ("scale_lab.reporting", "RunManifest.add_output", "reporting.manifest", "call"),
    ("scale_lab.reporting", "RunManifest.write", "reporting.manifest", "call"),
)


def _spans_of(span: str, kind: str) -> tuple[str, ...]:
    if kind == "cli":
        return tuple(f"cli.{c}" for c in CLI_COMMANDS)
    if kind == "problem":
        return ("problems.loss", "problems.grad")
    return (span,)


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.broken_counters: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``name`` may be a function of the arguments."""
        fixed = self._id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = fixed if fixed is not None else self._id(name(*args, **kwargs))
            i = len(self.start)
            self.name_id.append(sid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.start[i] = t0
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, counter: str, measure):
        """An ``after`` hook adding ``measure(result)`` to a counter, never raising."""
        def after(result):
            try:
                self.counters[counter] += measure(result)
            except (AttributeError, KeyError, TypeError, IndexError, ValueError, OSError):
                self.broken_counters.add(counter)
        return after

    def _wrapped(self, span: str, kind: str, original):
        if kind == "call":
            return self.wrap(span, original)
        if kind == "cli":
            return self.wrap(lambda argv=None, *a, **k: f"cli.{(argv or ['?'])[0]}", original)
        if kind == "rk4":
            steps = lambda tr: round((float(tr.t[-1]) - float(tr.t[0])) / tr.meta["h"])
            return self.wrap(span, original, self._count("flow.rk4_steps", steps))
        if kind == "bytes":
            return self.wrap(span, original,
                             self._count("reporting.write_csv.bytes", os.path.getsize))
        if kind == "problem":
            def make_problem(*args, **kwargs):
                p = original(*args, **kwargs)
                return dataclasses.replace(p, loss=self.wrap("problems.loss", p.loss),
                                           grad=self.wrap("problems.grad", p.grad))
            return functools.wraps(original)(make_problem)
        if kind == "signal":
            def make_signal(*args, **kwargs):
                sig = original(*args, **kwargs)
                return dataclasses.replace(sig, g=self.wrap(span, sig.g))
            return functools.wraps(original)(make_signal)
        raise ValueError(f"unknown target kind {kind!r}")

    def install(self) -> list[str]:
        """Patch every target that exists; return the span names none of whose targets exist."""
        found, wanted = set(), set()
        for module_name, attr, span, kind in TARGETS:
            spans = _spans_of(span, kind)
            wanted.update(spans)
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            setattr(owner, leaf, self._wrapped(span, kind, original))
            found.update(spans)
        return sorted(wanted - found)

    def layer_metrics(self, absent_spans: list[str]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from the spans, and the metrics that are absent.

        busy_s is inclusive and counts a span nested in a span of the same
        name once; self_s subtracts the time of direct child spans.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[int, list[int]] = defaultdict(list)
        for i, sid in enumerate(self.name_id):
            by_name[sid].append(i)

        def outermost(i: int) -> bool:
            sid, p = self.name_id[i], self.parent[i]
            while p >= 0:
                if self.name_id[p] == sid:
                    return False
                p = self.parent[p]
            return True

        stats: dict[str, float] = {}
        for sid, idx in by_name.items():
            name = self.names[sid]
            ds = sorted(dur[i] for i in idx)
            stats[f"{name}.calls"] = len(idx)
            stats[f"{name}.busy_s"] = sum(dur[i] for i in idx if outermost(i))
            stats[f"{name}.self_s"] = sum(dur[i] - child[i] for i in idx)
            stats[f"{name}.p50_us"] = 1e6 * ds[max(0, math.ceil(0.50 * len(ds)) - 1)]
            stats[f"{name}.p99_us"] = 1e6 * ds[max(0, math.ceil(0.99 * len(ds)) - 1)]
        stats.update(self.counters)

        g, flow = self._ids.get("signals.g"), self._ids.get("flow.integrate_flow")
        g_in_rk4 = sum(1 for i, sid in enumerate(self.name_id)
                       if sid == g and self.parent[i] >= 0 and self.name_id[self.parent[i]] == flow)
        rk4 = self.counters.get("flow.rk4_steps", 0)
        stats["signals.g.calls_per_rk4_step"] = g_in_rk4 / rk4 if rk4 else 0.0

        absent = set(absent_spans)
        absent |= {c for c, span in _COUNTER_SPANS.items() if span in absent}
        absent |= self.broken_counters
        if {"signals.g", "flow.integrate_flow", "flow.rk4_steps"} & absent:
            absent.add("signals.g.calls_per_rk4_step")
        missing = [m for m in LAYER_METRICS
                   if m in absent or m.rsplit(".", 1)[0] in absent]
        metrics = {m: 0.0 if m in missing else float(stats.get(m, 0.0))
                   for m in LAYER_METRICS if m != "trace.overhead_s"}
        return metrics, missing

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: id, name, parent id, start and end in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i, (sid, p, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
                fh.write(f"{i},{self.names[sid]},{p},{s - t0:.9f},{e - t0:.9f}\n")
