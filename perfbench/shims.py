"""Timing shims installed around the package's functions for the traced run.

A shim replaces a module attribute with a wrapper that records a span
(layer, parent span, operation, start, end, count) and then calls the
original.  Modules import each other's functions by name, so each shim goes
on the attribute the caller actually looks up, e.g.
`mayerbounds.ursell.simplex_integral_from_diffs`, not on the defining module.
Spans stay in memory; `write_jsonl` writes them out when the run ends and
`layer_metrics` reduces them to the per-layer metrics of BENCHMARK.json.
A target attribute that does not exist is an error: a renamed or moved
function must break the traced run, not read as a layer that is not reached.
"""

from __future__ import annotations

import importlib
import json
import resource
import time
from collections import defaultdict
from functools import wraps

import numpy as np

# (module, attribute, layer, kind); kind selects how the shim counts work:
#   call      one span per call, count 1
#   generator one span per item pulled from the returned iterator
#   masks     cached by n (first argument): cold/warm, count = masks returned
#   partition cached tables by matrix.n: cold/warm, count = Bell(n), RSS growth
#   integrand count = integrand points evaluated (array sizes passed to f)
TARGETS = (
    ("mayerbounds.ursell", "simplex_integral_from_diffs", "simplex", "call"),
    ("mayerbounds.ursell", "ursell_tree_integral", "ursell.tree_integral", "call"),
    ("mayerbounds.ursell", "merge_sequence_expansion", "ursell.merge_expansion", "call"),
    ("mayerbounds.ursell", "enumerate_labeled_trees", "combinatorics.labeled_trees", "generator"),
    ("mayerbounds.ursell", "ursell_graph_sum", "ursell.graph_sum", "call"),
    ("mayerbounds.ursell", "connected_edge_masks", "combinatorics.connected_edge_masks", "masks"),
    ("mayerbounds.ursell", "ursell_partition_sum", "ursell.partition_sum", "partition"),
    ("mayerbounds.quadrature", "integrate_adaptive", "quadrature.integrate_adaptive", "integrand"),
    ("mayerbounds.bounds", "compare_report", "bounds.compare_report", "call"),
    ("mayerbounds.bounds", "split", "potentials.split", "call"),
    ("mayerbounds.stability", "find_max_a", "stability.find_max_a", "call"),
    ("mayerbounds.reference", "find_max_a", "stability.find_max_a", "call"),
    ("mayerbounds.stability", "criterion_holds", "stability.mu_bound", "call"),
    ("mayerbounds.reference", "reproduction_rows", "reference.reproduction_rows", "call"),
)

# span fields
LAYER, PARENT, OP, START, END, COUNT, PHASE, RSS = range(8)


def bell(n: int) -> int:
    """Number of set partitions of an n-set (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Installs the shims, holds the spans, and reduces them to metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.installed: list[str] = []
        self.integrand_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._seen: set[tuple[str, int]] = set()

    # -- install / uninstall ------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target attribute; raise AttributeError, with nothing
        installed, if any of them does not exist."""
        factories = {
            "call": self._call_shim,
            "generator": self._generator_shim,
            "masks": self._masks_shim,
            "partition": self._partition_shim,
            "integrand": self._integrand_shim,
        }
        modules = [importlib.import_module(target[0]) for target in targets]
        missing = [f"{m}.{a}" for (m, a, _, _), module in zip(targets, modules)
                   if not hasattr(module, a)]
        if missing:
            raise AttributeError(f"shim targets not found: {', '.join(missing)}")
        for (module_name, attr, layer, kind), module in zip(targets, modules):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, factories[kind](layer, original))
            self.installed.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.installed = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str) -> list:
        span = [layer, self._stack[-1] if self._stack else -1, self.op, 0.0, 0.0, 1, "", 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _phase(self, span: list, layer: str, key: int) -> None:
        span[PHASE] = "warm" if (layer, key) in self._seen else "cold"
        self._seen.add((layer, key))

    def _call_shim(self, layer, fn):
        @wraps(fn)
        def shim(*args, **kwargs):
            span = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return shim

    def _generator_shim(self, layer, fn):
        @wraps(fn)
        def shim(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                span = self._open(layer)
                try:
                    item = next(items)
                except StopIteration:
                    span[COUNT] = 0
                    return
                finally:
                    self._close(span)
                yield item
        return shim

    def _masks_shim(self, layer, fn):
        @wraps(fn)
        def shim(n, *args, **kwargs):
            span = self._open(layer)
            self._phase(span, layer, n)
            try:
                masks = fn(n, *args, **kwargs)
            finally:
                self._close(span)
            span[COUNT] = len(masks)
            return masks
        return shim

    def _partition_shim(self, layer, fn):
        @wraps(fn)
        def shim(matrix, *args, **kwargs):
            span = self._open(layer)
            self._phase(span, layer, matrix.n)
            span[COUNT] = bell(matrix.n)
            rss_before = peak_rss_mb()
            try:
                return fn(matrix, *args, **kwargs)
            finally:
                self._close(span)
                span[RSS] = peak_rss_mb() - rss_before
        return shim

    def _integrand_shim(self, layer, fn):
        @wraps(fn)
        def shim(f, *args, **kwargs):
            span = self._open(layer)
            span[COUNT] = 0

            def counted(x):
                self.integrand_calls += 1
                span[COUNT] += int(np.size(x))
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(span)
        return shim

    # -- overhead ------------------------------------------------------------

    def overhead_s(self, calls: int = 20000, repeats: int = 5) -> float:
        """Estimated time the shims added to the run: spans times the cost of
        one span, plus counted integrand calls times the cost of counting.

        Both costs are measured here on a no-op, best of `repeats` loops of
        `calls` calls, so the estimate does not depend on how the speed of
        the host drifts during the run.
        """
        probe = Tracer()
        x = np.zeros(8)

        def best(fn) -> float:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - start)
            return min(times) / calls

        def noop(*_):
            return None

        def integrate(f):
            return f(x)

        shimmed_call = probe._call_shim("probe", noop)
        shimmed_integrate = probe._integrand_shim("probe", integrate)
        span_cost = max(0.0, best(shimmed_call) - best(noop))
        counted_cost = max(
            0.0,
            best(lambda: shimmed_integrate(noop)) - best(lambda: integrate(noop)) - span_cost,
        )
        return len(self.spans) * span_cost + self.integrand_calls * counted_cost

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        keys = ("layer", "parent", "op", "start", "end", "count", "phase", "rss_growth_mb")
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps(dict(zip(keys, span), id=index)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; every time comes with the count it was spent on.

        Self time of a route is its time minus its simplex calls (what is
        left is enumeration and coefficient building); self time of
        compare_report is its time minus its quadrature and split calls.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        child = defaultdict(float)  # (parent layer, child layer) -> seconds
        child_count = defaultdict(int)
        phase_time = defaultdict(float)
        phase_calls = defaultdict(int)
        phase_count = defaultdict(int)
        rss = 0.0
        for span in self.spans:
            layer = span[LAYER]
            duration = span[END] - span[START]
            total[layer] += duration
            calls[layer] += 1
            counts[layer] += span[COUNT]
            if span[PARENT] >= 0:
                parent_layer = self.spans[span[PARENT]][LAYER]
                child[parent_layer, layer] += duration
                child_count[parent_layer, layer] += span[COUNT]
            if span[PHASE]:
                phase_time[layer, span[PHASE]] += duration
                phase_calls[layer, span[PHASE]] += 1
                phase_count[layer, span[PHASE]] += span[COUNT]
            rss += span[RSS]

        def per(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        masks = "combinatorics.connected_edge_masks"
        part = "ursell.partition_sum"
        quad = "quadrature.integrate_adaptive"
        report = "bounds.compare_report"
        metrics = {
            "simplex.calls": calls["simplex"],
            "simplex.time_s": total["simplex"],
            "simplex.us_per_call": per(total["simplex"], calls["simplex"], 1e6),
            "combinatorics.labeled_trees.count": counts["combinatorics.labeled_trees"],
            "combinatorics.labeled_trees.time_s": total["combinatorics.labeled_trees"],
            "ursell.graph_sum.calls": calls["ursell.graph_sum"],
            "ursell.graph_sum.time_s": total["ursell.graph_sum"],
            f"{masks}.cold_calls": phase_calls[masks, "cold"],
            f"{masks}.cold_s": phase_time[masks, "cold"],
            f"{masks}.masks": phase_count[masks, "cold"],
            f"{masks}.warm_calls": phase_calls[masks, "warm"],
            f"{masks}.warm_us": per(phase_time[masks, "warm"], phase_calls[masks, "warm"], 1e6),
            f"{part}.calls": calls[part],
            f"{part}.cold_calls": phase_calls[part, "cold"],
            f"{part}.cold_s": phase_time[part, "cold"],
            f"{part}.warm_calls": phase_calls[part, "warm"],
            f"{part}.warm_ms": per(phase_time[part, "warm"], phase_calls[part, "warm"], 1e3),
            f"{part}.partitions": counts[part],
            f"{part}.rss_growth_mb": rss,
            f"{quad}.calls": calls[quad],
            f"{quad}.evals": counts[quad],
            f"{quad}.time_s": total[quad],
            f"{quad}.us_per_eval": per(total[quad], counts[quad], 1e6),
            f"{report}.calls": calls[report],
            f"{report}.time_s": total[report],
            f"{report}.self_s": total[report]
            - child[report, quad]
            - child[report, "potentials.split"],
            f"{report}.evals_per_call": per(child_count[report, quad], calls[report]),
            "potentials.split.calls": calls["potentials.split"],
            "potentials.split.time_s": total["potentials.split"],
            "stability.find_max_a.calls": calls["stability.find_max_a"],
            "stability.find_max_a.time_s": total["stability.find_max_a"],
            "stability.mu_bound.calls": calls["stability.mu_bound"],
            "reference.reproduction_rows.calls": calls["reference.reproduction_rows"],
            "reference.reproduction_rows.time_s": total["reference.reproduction_rows"],
        }
        for route in ("ursell.tree_integral", "ursell.merge_expansion"):
            metrics[f"{route}.calls"] = calls[route]
            metrics[f"{route}.time_s"] = total[route]
            metrics[f"{route}.self_s"] = total[route] - child[route, "simplex"]
        return metrics
