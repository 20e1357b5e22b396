"""Shared fixtures: the model zoo used across the exact and Monte Carlo tests,
the brute-force atom enumerator the exact tests compare against, and the
row-major reference sampler the sampling and estimator tests pin against."""

import itertools
import math

import numpy as np
import pytest

import chbound as cb


def make_zoo():
    """Enumerable (name, model, params) triples whose certificates all hold.

    Chosen to cover every model kind, a negative lower endpoint, a shared
    factor, and a near-tight mixture certificate:

    * boolean_iid_half / boolean_iid_rare: plain i.i.d. Bernoulli.
    * independent_mixed: independent two-point marginals on [-0.25, 0.75]
      with c_i equal to the means, so every certificate holds with equality.
    * planted_pair_certified: a correlated pair inside n=4 with c_i =
      sqrt(p), the smallest symmetric bound that covers the pair moment.
    * exchangeable: rho-mixture of a shared Bernoulli(0.3) draw; c = 0.51
      sits just above the binding size-4 moment (0.06648^(1/4) ~ 0.5078).
    * anti_correlated: explicit two-atom table with X1 + X2 = 1.
    """
    sqrt_half = math.sqrt(0.5)
    return [
        (
            "boolean_iid_half",
            cb.BooleanIIDModel(4, 0.5),
            cb.BoundParams.boolean(4, 0.5, 0.25),
        ),
        (
            "boolean_iid_rare",
            cb.BooleanIIDModel(3, 0.25),
            cb.BoundParams.boolean(3, 0.25, 0.25),
        ),
        (
            "independent_mixed",
            cb.IndependentModel(
                [
                    [(-0.25, 0.2), (0.75, 0.8)],
                    [(-0.1, 0.5), (0.65, 0.5)],
                    [(0.0, 0.5), (0.5, 0.5)],
                ]
            ),
            cb.BoundParams(
                n=3,
                a=(-0.25, -0.25, -0.25),
                b=1.0,
                c=(0.55, 0.275, 0.25),
                t=0.2,
            ),
        ),
        (
            "planted_pair_certified",
            cb.PlantedCliqueModel(4, 0.5, k=2),
            cb.BoundParams.boolean(4, sqrt_half, 0.15),
        ),
        (
            "exchangeable",
            cb.ExchangeableMixtureModel.bernoulli(4, 0.2, 0.3),
            cb.BoundParams.boolean(4, 0.51, 0.2),
        ),
        (
            "anti_correlated",
            cb.ExplicitTableModel([([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)]),
            cb.BoundParams.boolean(2, 0.5, 0.25),
        ),
    ]


def make_violating_pair():
    """n=2 identical coins with c_i = 0.5: E[X1 X2] = 0.5 > 0.25."""
    return cb.PlantedCliqueModel(2, 0.5, k=2), cb.BoundParams.boolean(2, 0.5, 0.25)


def enumerate_atoms(model):
    """Every atom of the model, brute force: one per combination of factor
    rows in each weighted part, factor 0 most significant.  Returns the
    C-ordered (m, n) float64 atom rows and their probabilities."""
    rows, probs = [], []
    for weight, part in model._parts():
        for combo in itertools.product(*(range(len(fp)) for fp in part._fprobs)):
            rows.append([part._fvals[j][combo[j], c] for j, c in part._reads])
            probs.append(weight * math.prod(fp[k] for fp, k in zip(part._fprobs, combo)))
    return np.array(rows, dtype=np.float64).reshape(len(rows), model.n), np.array(probs)


def reference_sample_many(model, rng, size):
    """Row-major sampling as each model kind drew it before ``_draw``: the
    same generator calls, shapes and order, gathered into (size, n) rows."""
    if model.kind == "boolean_iid":
        return (rng.random((size, model.n)) < model.p).astype(np.float64)
    if model.kind == "planted_clique":
        # every row's block coin, then the free coins row by row
        factors = len(model._fvals)
        coins = np.empty((size, factors), dtype=bool)
        np.less(rng.random(size), model.p, out=coins[:, 0])
        np.less(rng.random((size, factors - 1)), model.p, out=coins[:, 1:])
        return coins.take(model._vmap, axis=1).astype(np.float64)
    if model.kind == "exchangeable_mixture":
        values, probs = model._values, model._probs
        mix = rng.random(size) < model.rho
        shared = rng.choice(len(values), size=size, p=probs)
        indep = rng.choice(len(values), size=(size, model.n), p=probs)
        return np.where(mix[:, None], values[shared][:, None], values[indep]).astype(np.float64)
    # independent and explicit_table: one categorical draw per factor
    atoms = [rng.choice(len(fv), size=size, p=fp) for fv, fp in zip(model._fvals, model._fprobs)]
    blocks = [fv[a] for fv, a in zip(model._fvals, atoms)]
    return np.stack([blocks[j][:, c] for j, c in model._reads], axis=1)


@pytest.fixture(scope="session")
def zoo():
    return make_zoo()


@pytest.fixture(scope="session")
def violating_pair():
    return make_violating_pair()


# One line per shipped acceptance check, echoed after the test summary so the
# verdicts are visible even when everything passes.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
