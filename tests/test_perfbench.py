"""The benchmark's span tracer still finds every call it wraps.

``perfbench/layers.py`` names its targets by module, class and attribute; a
refactor that renames or moves one of them leaves the tracer silently
recording nothing for that layer.  This test loads the benchmark's own
modules unedited and fails on any target the tracer cannot resolve.
"""

import importlib
from pathlib import Path

import chbound as cb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = ("chbound.cli", "chbound.entropy_core", "chbound.dist_models",
          "chbound.mc_engine", "chbound.witness")


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in LAYERS:
        importlib.import_module(name)
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")

    tracer = spans.Tracer()
    targets = layers.targets()
    tracer.install(targets, layers.PACKAGE)
    try:
        assert tracer.missing == []
        wrapped = {(t.owner, t.attr) for t in targets}
        for attr in ("sum_support", "sample_many"):
            assert ("chbound.dist_models:JointModel", attr) in wrapped
            assert hasattr(vars(cb.JointModel)[attr], "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(vars(cb.JointModel)["sum_support"], "__wrapped__")
