"""In-memory span recorder and the wrappers that attach it to dockopt.

Spans are recorded only from the benchmark's side of the public names
that one dockopt module imports from another; nothing inside ``src/``
changes.  Each span keeps its name, start and end (perf_counter_ns), the
index of the span that was open when it began (its parent) and a request
id.  A new request starts at every solve (a ``multi_start_solve`` call,
so every calibration evaluation too) and at every screening round.
``dockopt.cli.load_config`` runs only in the fresh set-up processes, which
time it themselves (setup_probe.py).

A layer's self time is the duration of its spans minus the part covered
by their direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import dockopt.oracle
import dockopt.scenarios
import dockopt.solver

# Span names that open a new request id.
REQUEST_SPANS = ("solver.multi_start_solve", "screen.round")


class Tracer:
    """Spans and counts of one run, held in memory until ``dump``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request = -1
        self._next_request = 0

    def begin(self, name: str) -> int:
        index = len(self.names)
        if name in REQUEST_SPANS:
            self._request = self._next_request
            self._next_request += 1
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()
        if self.names[index] in REQUEST_SPANS:
            self._request = -1

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child_ns[i]
        return dict(totals)

    def total_ns(self, name: str) -> int:
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends)
                   if n == name)

    def outer_ns(self, prefix: str) -> int:
        """Time in spans named ``prefix*`` that are not nested in another
        such span, so nested calls of one layer count once."""
        total = 0
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            if name.startswith(prefix) and not (
                    parent >= 0 and self.names[parent].startswith(prefix)):
                total += self.ends[i] - self.starts[i]
        return total

    def calls(self, name: str) -> int:
        return self.names.count(name)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start_ns, end_ns,
        parent index (-1 for none) and request id (-1 for none)."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.requests):
                handle.write(json.dumps(row) + "\n")


class _QmcProxy:
    """Stands in for ``dockopt.solver.qmc`` so that Latin-hypercube
    sampling is spanned without patching scipy itself."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        base = module.LatinHypercube

        class TracedLatinHypercube(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("solver.lhs"):
                    super().__init__(*args, **kwargs)

            def random(self, n=1, **kwargs):
                tracer.counts["solver.starts"] += n
                with tracer.span("solver.lhs"):
                    return super().random(n, **kwargs)

        self.LatinHypercube = TracedLatinHypercube

    def __getattr__(self, name):
        return getattr(self._module, name)


# (module, attribute, span name) for every cross-module call the trace
# covers.  The solver's objective calls all run on 5-element inputs.
_WRAPPED = (
    (dockopt.solver, "gradient_at", "objective.gradient_at"),
    (dockopt.solver, "total_cost_arrays", "objective.total_cost_arrays"),
    (dockopt.solver, "total_cost", "objective.total_cost"),
    (dockopt.scenarios, "multi_start_solve", "solver.multi_start_solve"),
    (dockopt.scenarios, "minimize", "scenarios.minimize"),
    (dockopt.oracle, "simulate_docking", "oracle.simulate_docking"),
)


@contextmanager
def patched(tracer: Tracer):
    """Route the wrapped public names through ``tracer`` for the duration
    of the block, then restore the originals."""
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in _WRAPPED]
    saved.append((dockopt.solver, "qmc", dockopt.solver.qmc))
    try:
        for module, attr, name in _WRAPPED:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        dockopt.solver.qmc = _QmcProxy(dockopt.solver.qmc, tracer)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
