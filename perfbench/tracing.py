"""Spans around the public functions of roughwave, recorded from outside the
package.

``Tracer.install`` wraps every public function, and the constructor and
public methods of every public class, of the traced modules.  The modules
bind each other's names with ``from .x import y``, so after wrapping a
function the tracer also rebinds every module attribute that still points
at the original (``sensitivity.solve_causal``, ``cli.solve_causal``,
``evolution.energy`` ...); otherwise those calls would be missed.
Methods are wrapped in place on their class, which every binding shares.
``scipy.sparse.linalg.splu`` is wrapped as well, to count factorizations.

A span records its id, its parent's id, its name, start and end, and the
id of the benchmark call it belongs to.  Spans stay in memory until
``write`` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

TRACED_MODULES = ("fields", "operators", "evolution", "physics", "forward", "sensitivity",
                  "experiments", "cli")
SPLU = "scipy.sparse.linalg.splu"
# Spans whose tracemalloc growth is recorded when tracemalloc is running.
MEMORY_SPANS = frozenset({"sensitivity.misfit_gradient"})


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    call: str

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.memory_growth: list[tuple[str, int]] = []
        self.call: str | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.call is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            watch = name in MEMORY_SPANS and tracemalloc.is_tracing()
            if watch:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, self.call))
                if watch:
                    self.memory_growth.append((self.call, tracemalloc.get_traced_memory()[1] - base))

        return traced

    def install(self) -> None:
        """Wrap the traced modules' public callables and rebind every alias."""
        replaced = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"roughwave.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            label = f"{short}.{attr}" + ("" if meth == "__init__" else f".{meth}")
                            setattr(obj, meth, self.wrap(label, fn))
        splu_module = importlib.import_module("scipy.sparse.linalg")
        replaced[id(splu_module.splu)] = self.wrap(SPLU, splu_module.splu)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "roughwave" or n.startswith("roughwave."))]
        for module in (*modules, splu_module):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "call": s.call}) + "\n")


class CallTrace:
    """Queries over the spans of one benchmark call."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._by_id = {s.id: s for s in spans}
        covered = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        self.self_time = {s.id: s.duration - covered[s.id] for s in spans}

    def count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def inclusive(self, *names: str) -> float:
        """Wall time inside the named spans, counting nested ones once."""
        total = 0.0
        for s in self.spans:
            if s.name in names and not self._inside(s, names):
                total += s.duration
        return total

    def self_of(self, *names: str) -> float:
        return sum(self.self_time[s.id] for s in self.spans if s.name in names)

    def module_self(self, module: str) -> float:
        return sum(self.self_time[s.id] for s in self.spans if s.module == module)

    def _inside(self, span: Span, names) -> bool:
        parent = span.parent
        while parent is not None:
            p = self._by_id[parent]
            if p.name in names:
                return True
            parent = p.parent
        return False
