"""Span tracing and summary statistics for the benchmark.

The tracer wraps library functions at run time: every module attribute that
is bound to a wrapped function is replaced, so calls between modules (for
example ``bcrb.imaging.bmax`` or ``bcrb.optimal.divergence_matrix``) are
traced as well, and nested calls become parent and child spans.  Spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    case: str | None
    end: float = math.nan
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "thread": self.thread,
                "case": self.case, **({"meta": self.meta} if self.meta else {})}


class Tracer:
    """Collects spans from wrapped functions while ``enabled`` is true.

    A span opened in a thread with no open span of its own takes as parent
    the innermost open span that was opened with ``adopt=True``; that is how
    work done by a function's worker threads is attributed to the function.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.case: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, adopt: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._adopters:
            parent = self._adopters[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident(), self.case)
        stack.append(span)
        if adopt:
            self._adopters.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if self._adopters and self._adopters[-1] is span:
            self._adopters.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None,
             adopt: bool = False, alloc: bool = False) -> Callable:
        """Traced version of ``fn``.

        ``after(args, kwargs, result)`` returns a dict stored on the span; it
        runs in a child span of the caller named ``harness`` so that its cost
        is excluded from every library span's self time.  ``alloc`` records
        the peak traced allocation during the call (tracemalloc).  A direct
        recursive call of the same function adds no nested span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            measure = alloc and not tracemalloc.is_tracing()
            span = tracer.open(name, adopt)
            if measure:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if measure:
                    span.meta["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.close(span)
            if after is not None:
                with tracer.span("harness"):
                    span.meta.update(after(args, kwargs, out))
            return out

        return wrapper

    def install(self, package: str, targets: dict[str, dict]) -> None:
        """Wrap ``package.<module>.<function>`` for every key of ``targets``.

        Each value holds keyword arguments for :meth:`wrap`.  Every module of
        the package that binds the original function gets the wrapper.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, options in targets.items():
            mod_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(name, original, **options)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans.

    Children may run in other threads and overlap each other; the covered
    part is the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear interpolation between order statistics."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail_percentile(count: int, beyond: int = 10) -> float | None:
    """Highest percentile with at least ``beyond`` samples above it, if any."""
    q = math.floor(100.0 * (1.0 - beyond / count)) if count else 0
    return q if q > 50 else None
