"""In-memory spans for the traced benchmark run.

``Tracer.span`` times a block; ``instrument`` wraps every tampnet function
that ``tampnet.planner`` and ``tampnet.cli`` look up in their module
globals, so calls made through those names open a span named after the
function's own module (``planner.select_target``, ``basis_graph.save_cache``).
Functions tampnet calls by other routes (calls inside the defining module,
or names imported inside a function body) are not wrapped; their time is
self time of the nearest wrapped caller.

Each span accumulates, per (name, parent name): call count, total time and
self time (total minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("tampnet.planner", "tampnet.cli")


class Tracer:
    """Span statistics plus, for the names in ``observe``, one value per
    call computed from the wrapped function's return value."""

    def __init__(self, observe: Optional[Dict[str, Callable]] = None):
        self.stats: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.observe = observe or {}
        self.observed: Dict[str, list] = {}
        self._stack: List[list] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += elapsed
            row = self.stats.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        probe = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if probe is not None:
                self.observed.setdefault(name, []).append(probe(result))
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(int(row[0]) for (n, _), row in self.stats.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(row[2] for (n, _), row in self.stats.items() if n == name)

    def total_time(self, name: str) -> float:
        return sum(row[1] for (n, _), row in self.stats.items() if n == name)

    def names(self) -> set:
        return {n for n, _ in self.stats}

    def table(self) -> List[dict]:
        return [{"name": n, "parent": p, "calls": int(row[0]),
                 "total_s": row[1], "self_s": row[2]}
                for (n, p), row in sorted(self.stats.items(), key=lambda kv: -kv[1][2])]


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the tampnet functions in the globals of MODULES for the
    duration of the block, then restore the originals."""
    wrappers: Dict[Callable, Callable] = {}
    patched = []
    try:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("tampnet"):
                    continue
                if value not in wrappers:
                    span_name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = tracer.wrap(span_name, value)
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
