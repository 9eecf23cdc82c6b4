"""Spans around the program's public functions, recorded from outside it.

The program's source is not edited. :func:`traced` replaces each listed
function at every module attribute that is bound to it (its home module and
every module that imported it by name), so calls from inside the package
are traced as well. Spans live in memory until the run ends.

A span's layer is the part of its name before the first dot. Its self time
is its duration minus the durations of its direct children; since the
program runs on one thread, children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

# Layer -> the public functions whose calls are spans of that layer.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "graph": ("load_edge_list", "generate_sbm", "save_edge_list", "neighborhood_fractions"),
    "partition": (
        "ldg_restream", "rebalance", "clustering_metrics", "cluster_features",
        "stratify_clusters", "save_clustering", "load_clustering",
        "save_stratification", "load_stratification",
    ),
    "assign": (
        "stratified_hierarchical_assign", "hierarchical_assign", "save_assignment",
        "load_assignment_vectors", "assignment_from_vectors", "_sub_clustering",
    ),
    "outcomes": ("realize_linear", "realize_sutva", "load_outcomes"),
    "estimate": (
        "delta_statistic", "empirical_variance_bound", "analyze_stratified",
        "theoretical_sutva_variance",
    ),
}

# Functions whose arguments and result are kept for counters computed after
# the traced pass, outside every timed region.
KEEP_CALLS = ("load_edge_list", "ldg_restream", "rebalance")

LAYERS = tuple(LAYER_FUNCTIONS) + ("sim", "cli")


@dataclass
class Span:
    name: str
    parent: int
    start_ns: int = 0
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    kept: list[tuple[str, dict[str, Any], Any]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name.split(".", 1)[1] in KEEP_CALLS
        signature = inspect.signature(fn)

        def traced_call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.kept.append((name, dict(bound.arguments), result))
            return result

        return traced_call

    def self_seconds(self) -> list[float]:
        """Self time of every span, in span order."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        return [(s.end_ns - s.start_ns - c) / 1e9 for s, c in zip(self.spans, child_ns)]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Patch every binding of the listed functions; restore them on exit.

    Each layer is the package module of the same name, and its functions
    live there.
    """
    modules = [importlib.import_module(f"spilltest.{m}") for m in LAYERS]
    modules.append(importlib.import_module("spilltest"))
    patched: list[tuple[Any, str, Any]] = []
    try:
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                original = getattr(importlib.import_module(f"spilltest.{layer}"), name)
                wrapper = tracer.wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        patched.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


# Per-call latency percentiles are reported for the functions called once
# per Monte Carlo replication.
PER_CALL = ("hierarchical_assign", "realize_linear", "realize_sutva", "delta_statistic", "empirical_variance_bound")
CLI_COMMANDS = ("graph", "cluster", "stratify", "assign", "analyze")
IO_COUNTS = {"bytes_read": "B", "bytes_written": "B", "rows_read": "count", "rows_written": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
            if name in PER_CALL:
                units[f"{layer}.{name}.p50_us"] = "us"
                units[f"{layer}.{name}.p99_us"] = "us"
    units.update({
        "graph.load_edge_list.lines": "count",
        "partition.ldg_restream.unit_visits": "count",
        "partition.ldg_restream.visits_per_s": "1/s",
        "partition.rebalance.moves": "count",
        "partition.rebalance.rho_c_before": "frac",
        "partition.rebalance.rho_c_after": "frac",
        "sim.replications": "count",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.s"] = "s"
        units[f"cli.{command}.self_s"] = "s"
        for key, unit in IO_COUNTS.items():
            units[f"cli.{command}.{key}"] = unit
    units["trace.overhead_frac"] = "frac"
    units["trace.accounted_frac"] = "frac"
    return units


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _rho_c(graph, assignment) -> float:
    degree = np.diff(graph.adjacency_indptr)
    src = np.repeat(np.arange(graph.num_units), degree)
    same = np.bincount(src, weights=assignment[src] == assignment[graph.adjacency_indices], minlength=graph.num_units)
    return float(np.divide(same, degree, out=np.zeros(graph.num_units), where=degree > 0).mean())


def per_layer(tracer: Tracer, passes: int, wall_s: float, overhead_frac: float,
              replications: int, io: dict[str, dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics of ``passes`` identical traced passes that took
    ``wall_s`` seconds in all. Totals and counts are per pass."""
    values: dict[str, float] = dict.fromkeys(metric_units(), 0)
    durations: dict[str, list[float]] = {}
    roots = 0.0
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        layer, rest = span.name.split(".", 1)
        values[f"{layer}.self_s"] += own
        if layer == "cli":
            values[f"cli.{rest}.self_s"] += own
        if span.parent < 0:
            roots += span.seconds
        durations.setdefault(span.name, []).append(span.seconds)
    for name, secs in durations.items():
        if f"{name}.s" in values:
            values[f"{name}.s"] = sum(secs)
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = len(secs)
        if f"{name}.p50_us" in values:
            values[f"{name}.p50_us"] = _nearest_rank(secs, 0.50) * 1e6
            values[f"{name}.p99_us"] = _nearest_rank(secs, 0.99) * 1e6

    for name, args, result in tracer.kept:
        if name == "graph.load_edge_list":
            with open(args["path"], "rb") as fh:
                values["graph.load_edge_list.lines"] += sum(c.count(b"\n") for c in iter(lambda: fh.read(1 << 20), b""))
        elif name == "partition.ldg_restream":
            values["partition.ldg_restream.unit_visits"] += args["graph"].num_units * args["iterations"]
        elif name == "partition.rebalance":
            before = args["clustering"].assignment
            values["partition.rebalance.moves"] += int(np.count_nonzero(before != result.assignment))
            values["partition.rebalance.rho_c_before"] = _rho_c(args["graph"], before)
            values["partition.rebalance.rho_c_after"] = _rho_c(args["graph"], result.assignment)
    for command, counts in io.items():
        for key, count in counts.items():
            values[f"cli.{command}.{key}"] = count
    for name, unit in metric_units().items():
        if unit in ("s", "count", "B"):
            values[name] /= passes
        if unit in ("count", "B") and float(values[name]).is_integer():
            values[name] = int(values[name])
    if values["partition.ldg_restream.s"] > 0:
        values["partition.ldg_restream.visits_per_s"] = (
            values["partition.ldg_restream.unit_visits"] / values["partition.ldg_restream.s"]
        )
    values["sim.replications"] = replications
    values["trace.overhead_frac"] = overhead_frac
    values["trace.accounted_frac"] = roots / wall_s
    return values
