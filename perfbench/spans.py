"""In-memory span tracer that wraps the public calls of each chbound layer.

The tracer patches functions and methods from outside the program: every
module attribute that *is* a target function is replaced by a wrapper that
records a span (name, start, end, parent, job) and, where the layer has
one, a work count derived from the call's return value.
Nothing inside the program changes, and ``uninstall`` restores every
original object.

Generator-returning methods (``support_chunks``) are timed per ``next()``
call, so the span covers the work the generator does rather than the
near-free call that creates it.  Spans opened on a worker thread with no
open span of their own take the innermost open span of the installing
thread as parent: that thread is blocked in the call that scheduled them.

A layer's self time is its span's duration minus the union of the
intervals its children cover (children on several threads may overlap).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    job: str | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``owner`` is a module name (``chbound.dist_models``) or ``module:Class``
    for methods.  ``count`` maps the call's result to a dict of counts;
    it is applied only when the span has no ancestor of the same name, so a
    call that delegates to another wrapped call of its layer counts once.
    For ``generator`` targets ``count`` maps each yielded item instead, and
    the creation of an outermost generator counts one ``passes``.
    """

    owner: str
    attr: str
    span: str
    count: Callable | None = None
    generator: bool = False


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: str | None = None
        self.missing: list[str] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._root_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else None
        span = Span(name, self.clock(), parent, self.job)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def reset(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- patching ------------------------------------------------------
    def install(self, targets, package: str) -> None:
        """Wrap every target; a target that no longer exists is recorded in
        ``missing`` and simply produces no spans."""
        for target in targets:
            original, holder = _resolve(target)
            if original is None:
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            wrapper = (self._wrap_generator if target.generator else self._wrap_call)(
                original, target
            )
            if holder is not None:  # a method: patch the class that defines it
                self._patch(holder, target.attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "") or ""
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def _wrap_call(self, original, target: Target):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(target.span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.count is not None and not span.has_ancestor(target.span):
                span.counts.update(target.count(result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_generator(self, original, target: Target):
        tracer = self

        def timed(it, outermost: bool):
            while True:
                span = tracer.open(target.span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                if outermost and target.count is not None:
                    span.counts.update(target.count(item))
                yield item

        def wrapper(*args, **kwargs):
            span = tracer.open(target.span)
            try:
                it = iter(original(*args, **kwargs))
            finally:
                tracer.close(span)
            outermost = not span.has_ancestor(target.span)
            if outermost:
                span.counts["passes"] = 1
            return timed(it, outermost)

        wrapper.__wrapped__ = original
        return wrapper


def _resolve(target: Target):
    """(original callable, defining class or None); (None, None) if gone."""
    module_name, _, class_name = target.owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        return None, None
    if not class_name:
        return getattr(module, target.attr, None), None
    cls = getattr(module, class_name, None)
    if cls is None or target.attr not in vars(cls):
        return None, None
    return vars(cls)[target.attr], cls


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        lo, hi = None, None
        for start, end in sorted(children.get(id(span), ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        out[id(span)] = (span.end - span.start) - covered
    return out


@dataclass
class LayerTotals:
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def aggregate(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: summed self time, number of spans, summed counts."""
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.self_s += selfs[id(span)]
        entry.calls += 1
        for key, value in span.counts.items():
            entry.counts[key] = entry.counts.get(key, 0) + value
    return totals
