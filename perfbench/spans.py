"""In-memory span tracing from outside the library.

A traced run replaces each layer's public function, in the module where its
caller looks the name up, with a wrapper that records a span (name, start,
end, parent).  Objective evaluations are only counted, because they are far
too many to span.  Every replaced name is restored when the ``patched``
block exits, even on error.  A layer's self time is its spans' duration
minus the duration of their direct children; spans nest strictly because
the solve runs in one thread.
"""
from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Optional

# (module, attribute) -> layer name.  Each entry is the module the caller
# resolves the name in, so the wrapper sees every call on the solve path.
LAYERS = {
    ("mkcp_kit.solver", "residual_instance"): "solver.residual",
    ("mkcp_kit.solver", "structure_in_blocks"): "structuring.structure",
    ("mkcp_kit.solver", "solve_restricted"): "solver.restricted",
    ("mkcp_kit.solver", "greedy_instance_point"): "rounding.ascent",
    ("mkcp_kit.solver", "sample_set"): "rounding.sample",
    ("mkcp_kit.solver", "purge"): "objectives.purge",
    ("mkcp_kit.solver", "block_associate"): "association.associate",
    ("mkcp_kit.solver", "check_compliance"): "solver.compliance",
    ("mkcp_kit.solver", "ffd_bin_pack"): "grouping.ffd",
    ("mkcp_kit.solver", "validate_solution"): "model.validate",
    ("mkcp_kit.rounding", "instance_lp_optimize"): "lp.master",
    ("mkcp_kit.rounding", "estimate_gradient"): "rounding.gradient",
    ("mkcp_kit.lp", "knapsack_fptas"): "lp.pricing",
    ("mkcp_kit.lp", "linprog"): "lp.highs",
    ("mkcp_kit.lp", "verify_fractional_point"): "lp.audit",
}

# Concrete objective classes whose ``evaluate`` calls are counted.
OBJECTIVE_CLASSES = (
    "CoverageObjective",
    "CutObjective",
    "ModularObjective",
    "TableObjective",
)

# Counts read off a layer's return value.
OBSERVERS: dict[str, Callable[[object], dict[str, int]]] = {
    "solver.restricted": lambda run: {"solver.collapsed_runs": int(not run.packed)},
    "solver.compliance": lambda reports: {
        "solver.noncompliant_blocks": sum(not r.compliant for r in reports)
    },
    "association.associate": lambda assoc: {"association.iterations": assoc.iterations},
}

ROOT = "solver.enum"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        observe = OBSERVERS.get(name)
        if observe is not None:
            self.counts.update(observe(result))
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self):
        """Install every wrapper; restore every original name on exit."""
        originals = []
        try:
            for (module_name, attr), layer in LAYERS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original))
            objectives = importlib.import_module("mkcp_kit.objectives")
            for class_name in OBJECTIVE_CLASSES:
                cls = getattr(objectives, class_name)
                original = cls.__dict__["evaluate"]
                originals.append((cls, "evaluate", original))
                setattr(cls, "evaluate", self.count("objectives.evals", original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def self_times(spans: Iterable[tuple[str, float, float, int]]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    spans = list(spans)
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, _, _, _), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def call_counts(spans: Iterable[tuple[str, float, float, int]]) -> Counter:
    return Counter(name for name, _, _, _ in spans)


def write_spans(spans, path) -> None:
    """One tab-separated line per span: name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("name\tstart\tend\tparent\n")
        for name, start, end, parent in spans:
            out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
