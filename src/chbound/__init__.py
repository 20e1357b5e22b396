"""Generalized Chernoff-Hoeffding tail bounds for dependent bounded variables.

The bound: if X_1..X_n take values in [a_i, a_i + b] with a_i <= 0 and every
subset S satisfies E[prod_{i in S} X_i] <= prod_{i in S} c_i, then

    P(sum X_i >= (cbar + t) n) <= exp(-n D((cbar - abar + t)/b || (cbar - abar)/b))

with D the binary relative entropy.  Alongside the closed form, the package
ships exact enumeration of small joint models, an executable version of the
coupled sampling process whose inequality chain proves the bound, and a
randomized detector that recovers a moment-violating subset from sample
access alone.

Each layer loads on first use: ``import chbound`` imports no submodule, and
``chbound.<name>`` imports the module that defines ``<name>``.  The closed
form (``entropy_core``) needs no NumPy.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule, in the order of ``__all__``
_ORIGIN = {
    name: module
    for module, names in (
        ("entropy_core", ("BoundParams", "NormalizedParams", "LambdaChoice", "kl_div",
                          "normalize", "proof_case", "g_objective", "optimize_lambda",
                          "grid_search_lambda", "chernoff_bound")),
        ("dist_models", ("JointModel", "IndependentModel", "BooleanIIDModel",
                         "PlantedCliqueModel", "ExchangeableMixtureModel",
                         "ExplicitTableModel", "MomentCertificate", "model_from_spec",
                         "sample", "exact_moment", "exact_tail", "certify_moments",
                         "check_support_range")),
        ("mc_engine", ("SamplingRound", "Estimate", "ChainLink", "ChainReport", "draw_round",
                       "estimate_product", "exact_product_expectation", "verify_chain")),
        ("witness", ("WitnessParams", "WitnessReport", "default_budgets",
                     "find_dependent_set")),
        ("errors", ("ChboundError", "ValidationError", "BudgetError", "SupportTooLargeError",
                    "SubsetBudgetError", "RejectionBudgetError", "BudgetOverflowError")),
    )
    for name in names
}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
