"""Which chbound calls are wrapped, under which span names, and how the
per-layer metrics of ``BENCHMARK.json`` are read off the recorded spans.

Every count comes from a wrapped call's return value (or a generator's
yielded item), never from state inside the program.
"""

from __future__ import annotations

import sys

from spans import LayerTotals, Span, Target

PACKAGE = "chbound"
_DM = "chbound.dist_models"


def _model_classes(attr: str) -> list[str]:
    """Every class of dist_models that defines ``attr`` itself."""
    module = sys.modules[_DM]
    return [
        name for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == _DM and attr in vars(obj)
    ]


def _rows(result) -> dict:
    return {"rows": len(result)}


def _atoms(item) -> dict:
    return {"atoms": len(item[1])}


def _subsets(result) -> dict:
    return {"subsets": len(result)}


def _estimate(result) -> dict:
    return {"rounds": int(result.n_samples)}


def _witness(report) -> dict:
    return {
        "rounds": int(report.samples_used),
        "candidates": int(report.candidates),
        "found": int(report.verdict == "found"),
    }


ENTROPY_FUNCTIONS = (
    "kl_div", "normalize", "proof_case", "g_objective",
    "optimize_lambda", "grid_search_lambda", "chernoff_bound",
)


def targets() -> list[Target]:
    """The wrapped calls; model methods are found on the imported classes."""
    return [
        Target("chbound.cli", "main", "cli"),
        *(Target("chbound.entropy_core", name, "entropy_core") for name in ENTROPY_FUNCTIONS),
        Target(_DM, "model_from_spec", "dist_models.spec"),
        Target(_DM, "check_support_range", "dist_models.range_check"),
        Target(_DM, "certify_moments", "dist_models.certify", count=_subsets),
        Target(_DM, "exact_moment", "dist_models.exact_moment"),
        Target(_DM, "exact_tail", "dist_models.sum_support"),
        Target(f"{_DM}:JointModel", "sum_support", "dist_models.sum_support"),
        *(Target(f"{_DM}:{cls}", "support_chunks", "dist_models.enum", count=_atoms,
                 generator=True) for cls in _model_classes("support_chunks")),
        *(Target(f"{_DM}:{cls}", "sample_many", "dist_models.sample", count=_rows)
          for cls in _model_classes("sample_many")),
        Target("chbound.mc_engine", "verify_chain", "mc_engine.verify_chain"),
        Target("chbound.mc_engine", "estimate_product", "mc_engine.estimate", count=_estimate),
        Target("chbound.witness", "find_dependent_set", "witness.detect", count=_witness),
    ]


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "dist_models.enum.self_s": ("s", "lower"),
    "dist_models.enum.atoms": ("count", "lower"),
    "dist_models.enum.passes": ("count", "lower"),
    "dist_models.exact_moment.self_s": ("s", "lower"),
    "dist_models.exact_moment.calls": ("count", "lower"),
    "dist_models.certify.self_s": ("s", "lower"),
    "dist_models.certify.subsets": ("count", "lower"),
    "dist_models.range_check.self_s": ("s", "lower"),
    "dist_models.sum_support.self_s": ("s", "lower"),
    "dist_models.spec.self_s": ("s", "lower"),
    "dist_models.sample.self_s": ("s", "lower"),
    "dist_models.sample.rows": ("count", "lower"),
    "entropy_core.self_s": ("s", "lower"),
    "entropy_core.calls": ("count", "lower"),
    "mc_engine.verify_chain.self_s": ("s", "lower"),
    "mc_engine.estimate.self_s": ("s", "lower"),
    "mc_engine.estimate.rounds": ("count", "higher"),
    "mc_engine.estimate.proposals": ("count", "lower"),
    "mc_engine.accept_ratio": ("ratio", "higher"),
    "witness.detect.self_s": ("s", "lower"),
    "witness.rounds": ("count", "lower"),
    "witness.candidates": ("count", "lower"),
    "witness.found": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

COUNT_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")


def layer_metrics(spans: list[Span], totals: dict[str, LayerTotals]) -> dict[str, float]:
    """Every PER_LAYER metric except ``trace.overhead_frac``; idle layers read 0."""

    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def self_s(name: str) -> float:
        return get(name).self_s

    def count(name: str, key: str) -> int:
        return int(get(name).counts.get(key, 0))

    proposals = sum(
        span.counts.get("rows", 0)
        for span in spans
        if span.name == "dist_models.sample" and span.has_ancestor("mc_engine.estimate")
    )
    rounds = count("mc_engine.estimate", "rounds")
    return {
        "dist_models.enum.self_s": self_s("dist_models.enum"),
        "dist_models.enum.atoms": count("dist_models.enum", "atoms"),
        "dist_models.enum.passes": count("dist_models.enum", "passes"),
        "dist_models.exact_moment.self_s": self_s("dist_models.exact_moment"),
        "dist_models.exact_moment.calls": get("dist_models.exact_moment").calls,
        "dist_models.certify.self_s": self_s("dist_models.certify"),
        "dist_models.certify.subsets": count("dist_models.certify", "subsets"),
        "dist_models.range_check.self_s": self_s("dist_models.range_check"),
        "dist_models.sum_support.self_s": self_s("dist_models.sum_support"),
        "dist_models.spec.self_s": self_s("dist_models.spec"),
        "dist_models.sample.self_s": self_s("dist_models.sample"),
        "dist_models.sample.rows": count("dist_models.sample", "rows"),
        "entropy_core.self_s": self_s("entropy_core"),
        "entropy_core.calls": get("entropy_core").calls,
        "mc_engine.verify_chain.self_s": self_s("mc_engine.verify_chain"),
        "mc_engine.estimate.self_s": self_s("mc_engine.estimate"),
        "mc_engine.estimate.rounds": rounds,
        "mc_engine.estimate.proposals": proposals,
        "mc_engine.accept_ratio": rounds / proposals if proposals else 0.0,
        "witness.detect.self_s": self_s("witness.detect"),
        "witness.rounds": count("witness.detect", "rounds"),
        "witness.candidates": count("witness.detect", "candidates"),
        "witness.found": count("witness.detect", "found"),
        "cli.self_s": self_s("cli"),
    }
