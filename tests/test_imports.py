"""Import structure: each layer loads on first use, and the lazy package
exposes the same public API and the same CLI defaults as the library."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chbound
from chbound.cli import build_parser

# numpy.ma is about a megabyte of peak RSS: plain ``np.unique(x)`` imports it
# (NumPy 2.x), the forms that return indices do not.  Only a CSV report needs csv.
HEAVY = ("numpy", "numpy.random", "numpy.ma", "chbound.dist_models", "chbound.mc_engine",
         "chbound.witness", "concurrent.futures", "csv")

# Run ``python -m chbound.cli`` in this process, then list which of HEAVY it loaded.
CHILD = """
import json, runpy, sys
heavy, argv = json.loads(sys.argv[1])
sys.argv = ["chbound", *argv]
code = None
try:
    runpy.run_module("chbound.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules]}))
"""


def loaded_by(tmp_path, *argv):
    """(exit code, modules of HEAVY loaded) for one CLI run in a fresh interpreter."""
    src = str(Path(chbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps([HEAVY, argv])],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    return result["code"], set(result["loaded"])


class TestImportFootprint:
    def test_bound_loads_no_numpy_and_no_sampling_layer(self, tmp_path):
        code, loaded = loaded_by(tmp_path, "bound", "--n", "20", "--c", "0.5", "--t", "0.2")
        assert code == 0
        assert loaded == set()
        assert json.loads((tmp_path / "report.json").read_text())["command"] == "bound"

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--samples", "1000", "--workers", "1"],
    ])
    def test_exact_and_single_worker_runs_load_no_witness_and_no_pool(self, tmp_path, command):
        # Only a run that samples loads numpy.random.
        sampler = {"numpy.random"} if command[0] == "simulate" else set()
        spec = tmp_path / "b4.json"
        spec.write_text(json.dumps({"kind": "boolean_iid", "n": 4, "params": {"p": 0.5}}))
        code, loaded = loaded_by(tmp_path, command[0], "--spec", str(spec),
                                 "--c", "0.5", "--t", "0.25", *command[1:])
        assert code == 0
        assert loaded == {"numpy", "chbound.dist_models", "chbound.mc_engine"} | sampler

    @pytest.mark.parametrize("command,exit_code", [
        (["simulate", "--samples", "20000"], 0),
        (["detect", "--alpha", "0.1", "--m-search", "2000"], 3),
    ])
    def test_two_worker_runs_start_no_thread_pool(self, tmp_path, command, exit_code):
        spec = tmp_path / "b4.json"
        spec.write_text(json.dumps({"kind": "boolean_iid", "n": 4, "params": {"p": 0.5}}))
        code, loaded = loaded_by(tmp_path, command[0], "--spec", str(spec), "--c", "0.5",
                                 "--t", "0.25", "--block-size", "1000", "--workers", "2",
                                 *command[1:])
        assert code == exit_code
        assert "numpy.random" in loaded and "concurrent.futures" not in loaded
        assert "numpy.ma" not in loaded


# chbound.__all__ before the package loaded its layers lazily.
PUBLIC_API = [
    "__version__",
    "BoundParams", "NormalizedParams", "LambdaChoice", "kl_div", "normalize",
    "proof_case", "g_objective", "optimize_lambda", "grid_search_lambda",
    "chernoff_bound",
    "JointModel", "IndependentModel", "BooleanIIDModel", "PlantedCliqueModel",
    "ExchangeableMixtureModel", "ExplicitTableModel", "MomentCertificate",
    "model_from_spec", "sample", "exact_moment", "exact_tail",
    "certify_moments", "check_support_range",
    "SamplingRound", "Estimate", "ChainLink", "ChainReport", "draw_round",
    "estimate_product", "exact_product_expectation", "verify_chain",
    "WitnessParams", "WitnessReport", "default_budgets", "find_dependent_set",
    "ChboundError", "ValidationError", "BudgetError", "SupportTooLargeError",
    "SubsetBudgetError", "RejectionBudgetError", "BudgetOverflowError",
]


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert chbound.__all__ == PUBLIC_API

    @pytest.mark.parametrize("name", [n for n in PUBLIC_API if n != "__version__"])
    def test_name_is_the_defining_modules_object(self, name):
        obj = getattr(chbound, name)
        assert obj.__module__.startswith("chbound.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_dir_lists_every_public_name(self):
        assert set(chbound.__all__) <= set(dir(chbound))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from chbound import *", namespace)
        assert set(PUBLIC_API) <= set(namespace)
        assert all(namespace[name] is getattr(chbound, name) for name in PUBLIC_API)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chbound.no_such_name  # noqa: B018
        assert not hasattr(chbound, "check_table")


class TestDefaultParity:
    """The parser's defaults are the library's defaults, and both are pinned."""

    def test_cli_defaults_match_the_library(self):
        from chbound import mc_engine, witness

        parser = build_parser()
        sim = parser.parse_args(["simulate", "--spec", "s.json", "--c", "0.5", "--t", "0.1",
                                 "--samples", "10"])
        det = parser.parse_args(["detect", "--spec", "s.json", "--c", "0.5", "--t", "0.1",
                                 "--alpha", "0.1"])
        assert sim.block_size == det.block_size == mc_engine.DEFAULT_BLOCK_SIZE == 8192
        assert sim.max_proposals == mc_engine.DEFAULT_MAX_PROPOSALS == 10_000_000
        assert det.min_rounds == witness.DEFAULT_MIN_ROUNDS == 5

        estimate = inspect.signature(mc_engine.estimate_product).parameters
        detect = inspect.signature(witness.find_dependent_set).parameters
        assert estimate["block_size"].default == sim.block_size
        assert estimate["max_proposals"].default == sim.max_proposals
        assert detect["block_size"].default == det.block_size
        assert detect["min_rounds_per_subset"].default == det.min_rounds

        # detect takes the bound flags of every other subcommand, verify's among them
        subs = parser._subparsers._group_actions[0].choices

        def bound_flags(command):
            return {a.dest: (a.option_strings, a.default, a.required)
                    for a in subs[command]._actions if a.dest in ("n", "a", "b", "c", "t")}

        assert len(bound_flags("detect")) == 5
        assert bound_flags("detect") == bound_flags("verify")
