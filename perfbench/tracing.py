"""Spans around calls into solis's public functions, taken from outside.

The library is not modified: the tracer replaces names in the namespaces of
the modules that import them, records (name, start, end, parent) for every
call in memory, and puts the originals back when it is closed.  A function
that returns a generator is charged for the call and for every item drawn
from the generator, each as its own span under whoever drew it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

#: (importing module, name) -> layer.function span name
WRAPPED = (
    ("solis.cli", "parse_sequence_file", "formats.parse_sequence_file"),
    ("solis.cli", "parse_system_file", "formats.parse_system_file"),
    ("solis.cli", "build_objective", "optimal_system.build_objective"),
    ("solis.cli", "maximize", "optimal_system.maximize"),
    ("solis.cli", "assemble_system", "optimal_system.assemble_system"),
    ("solis.cli", "sequence_probability", "derivations.sequence_probability"),
    ("solis.cli", "best_derivation", "optimal_derivation.best_derivation"),
    ("solis.optimal_system", "build_free_system", "free_system.build_free_system"),
    ("solis.optimal_system", "step_gradients", "derivations.step_gradients"),
    ("solis.optimal_system", "sequence_probability", "derivations.sequence_probability"),
    ("solis.optimal_derivation", "build_free_system", "free_system.build_free_system"),
    ("solis.optimal_derivation", "enumerate_derivations", "derivations.enumerate_derivations"),
    ("solis.free_system", "candidate_productions", "compositions.candidate_productions"),
)

#: span names whose return values the benchmark reads counts from
KEEP_RESULTS = {"optimal_system.maximize", "optimal_system.assemble_system"}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.results: dict[str, list] = defaultdict(list)
        self.items: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # wrapped names the program no longer has
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span called name and return its result."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if name in KEEP_RESULTS:
                self.results[name].append(result)
            if inspect.isgenerator(result):
                return self._drain(name, result)
            return result

        return wrapper

    def _drain(self, name: str, iterator):
        while True:
            try:
                item = self.span(name, next, iterator)
            except StopIteration:
                return
            self.items[name] += 1
            yield item

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total duration, total self time, span count).

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, since calls nest.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for span_id, name, start, end, _ in self.spans:
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - covered[span_id]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in totals.items()}
