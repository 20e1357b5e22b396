"""Self-test of the span tracer on synthetic calls with a hand-driven clock.

Run standalone with ``python3 perfbench/selftest.py``; every traced
benchmark run also runs it and fails when it does.
"""

from __future__ import annotations

import sys
import types

from spans import Span, Target, Tracer, aggregate, self_times


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _synthetic_module(clock: _Clock) -> types.ModuleType:
    mod = types.ModuleType("perfbench_synthetic")

    def inner():
        clock.now += 5.0

    def chunks():
        clock.now += 4.0
        yield ("v", [0, 1])
        clock.now += 6.0
        yield ("v", [0, 1, 2])
        clock.now += 7.0

    def wrapped_chunks():
        # delegates to another generator of the same layer, as the
        # planted model does with its inner factored model
        return mod.chunks()

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 2.0
        for _ in mod.wrapped_chunks():
            clock.now += 1.0

    mod.inner, mod.chunks, mod.wrapped_chunks, mod.outer = inner, chunks, wrapped_chunks, outer
    return mod


def _atoms(item) -> dict:
    return {"atoms": len(item[1])}


def check_nested_calls() -> list[str]:
    clock = _Clock()
    mod = _synthetic_module(clock)
    sys.modules[mod.__name__] = mod
    tracer = Tracer(clock)
    try:
        tracer.install(
            [
                Target(mod.__name__, "outer", "outer"),
                Target(mod.__name__, "inner", "inner"),
                Target(mod.__name__, "chunks", "enum", count=_atoms, generator=True),
                Target(mod.__name__, "wrapped_chunks", "enum", count=_atoms, generator=True),
                Target(mod.__name__, "removed_by_a_refactor", "gone"),
                Target("perfbench_no_such_module", "f", "gone"),
            ],
            mod.__name__,
        )
        mod.outer()
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    totals = aggregate(tracer.reset())
    errors = []
    # outer: 1 + 2 before iterating, plus 1 per consumed item
    expected = {"outer": 5.0, "inner": 5.0, "enum": 17.0}
    for name, value in expected.items():
        got = totals[name].self_s
        if got != value:
            errors.append(f"self time of {name}: {got} != {value}")
    if totals["enum"].counts != {"passes": 1, "atoms": 5}:
        errors.append(f"nested generator counted {totals['enum'].counts}, not one pass of 5")
    if "gone" in totals:
        errors.append("a missing target recorded calls")
    if len(tracer.missing) != 2:
        errors.append(f"missing targets not reported: {tracer.missing}")
    if mod.outer.__name__ != "outer" or hasattr(mod.outer, "__wrapped__"):
        errors.append("uninstall did not restore the original function")
    return errors


def check_overlapping_children() -> list[str]:
    parent = Span("estimate", 0.0, None, None, end=10.0)
    children = [
        Span("sample", 1.0, parent, None, end=4.0),  # two worker threads overlap
        Span("sample", 2.0, parent, None, end=6.0),
        Span("sample", 8.0, parent, None, end=12.0),  # runs past the parent's end
    ]
    selfs = self_times([parent, *children])
    errors = []
    if selfs[id(parent)] != 10.0 - 5.0 - 2.0:
        errors.append(f"overlapping children: parent self {selfs[id(parent)]} != 3.0")
    if [selfs[id(c)] for c in children] != [3.0, 4.0, 4.0]:
        errors.append("leaf self time differs from its duration")
    return errors


def run() -> list[str]:
    return check_nested_calls() + check_overlapping_children()


if __name__ == "__main__":
    failures = run()
    for failure in failures:
        print(f"FAIL {failure}")
    print("tracer self-test:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
