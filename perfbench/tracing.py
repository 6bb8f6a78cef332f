"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and the operation it
belongs to; counts are recorded at the same boundaries.  Both stay in memory
until the run ends.  The untraced run uses ``NULL`` instead, whose spans cost
one attribute lookup and a no-op context manager.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Optional


class NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self, op: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    """Records spans as ``(name, start, end, parent, op)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int], int]] = []
        self.counts: list[tuple[str, int, int]] = []  # (name, value, op)
        self._open: list[int] = []
        self._op = -1

    def begin_op(self, op: int) -> None:
        self._op = op

    def count(self, name: str, value: int) -> None:
        self.counts.append((name, value, self._op))

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        # reserve the slot now so children get higher indices than parents
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``counts(result)`` yields (name, value) pairs
        recorded before the span closes, so a parent's self time excludes them."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if counts is not None:
                    for key, value in counts(result):
                        self.count(key, value)
            return result

        return traced

    def op_times(self) -> dict[int, dict[str, float]]:
        """Per operation and span name: busy seconds, and self seconds (busy
        minus the time its child spans cover) under ``<name>.self``."""
        child_time: dict[int, float] = {}
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        table: dict[int, dict[str, float]] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            row = table.setdefault(op, {})
            duration = end - start
            row[name] = row.get(name, 0.0) + duration
            row[name + ".self"] = row.get(name + ".self", 0.0) + duration - child_time.get(index, 0.0)
        return table

    def op_counts(self) -> dict[int, dict[str, int]]:
        """Per operation: recorded counts, and span calls as ``<name>.calls``."""
        table: dict[int, dict[str, int]] = {}
        for name, _start, _end, _parent, op in self.spans:
            row = table.setdefault(op, {})
            row[name + ".calls"] = row.get(name + ".calls", 0) + 1
        for name, value, op in self.counts:
            row = table.setdefault(op, {})
            row[name] = row.get(name, 0) + value
        return table

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counts": [{"name": n, "value": v, "op": o} for n, v, o in self.counts],
        }


def instrument(demoflow, tracer: Tracer) -> Callable[[], None]:
    """Wrap the module attributes ``check_network_conformance`` reaches
    through; returns a function that restores the originals."""
    sim, compiler = demoflow.simulator, demoflow.compiler
    originals = [
        (sim, "check_conformance", sim.check_conformance),
        (sim, "simulate_exhaustive", sim.simulate_exhaustive),
        (sim, "enumerate_language", sim.enumerate_language),
        (sim, "check_compensation_order", sim.check_compensation_order),
        (compiler, "compile_network", compiler.compile_network),
    ]
    sim.check_conformance = tracer.wrap("simulator.compare", sim.check_conformance)
    sim.simulate_exhaustive = tracer.wrap(
        "simulator.explore",
        sim.simulate_exhaustive,
        lambda r: (
            ("simulator.states", r.states),
            ("simulator.traces", len(r.traces)),
            ("simulator.trace_events", sum(len(t.events) for t in r.traces)),
        ),
    )
    sim.enumerate_language = tracer.wrap(
        "engine.enumerate_language",
        sim.enumerate_language,
        lambda r: (("engine.language_traces", len(r)),),
    )
    sim.check_compensation_order = tracer.wrap(
        "simulator.compensation_check", sim.check_compensation_order
    )
    compiler.compile_network = tracer.wrap("compiler.compile", compiler.compile_network, model_counts)

    def restore() -> None:
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return restore


def model_counts(model) -> tuple[tuple[str, int], ...]:
    return (
        ("compiler.nodes", len(model.all_nodes())),
        ("compiler.flows", sum(len(pool.flows) for pool in model.pools)),
        ("compiler.message_flows", len(model.message_flows)),
    )
