"""Shared fixtures: the model zoo used across the exact and Monte Carlo tests,
the brute-force atom enumerator the exact tests compare against, and the
row-major reference sampler the sampling and estimator tests pin against."""

import itertools
import math
from fractions import Fraction

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


def distinct_sums_model(n, **kwargs):
    """Independent {0, 2^-i} coins: all 2^n atom sums are distinct and exact
    in float64 (n <= 53), so the exact fold keeps one state per atom and its
    last step forms 2^(n-1) sums x 2 rows."""
    return cb.IndependentModel([[(0.0, 0.5), (2.0**-i, 0.5)] for i in range(n)], **kwargs)


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


def reference_coins(rng, p, count):
    """``count`` Bernoulli(p) coins in the order the 0/1 models draw them,
    each decided as k < ceil(p 2^53) on its 53-bit integer k: coin i's top
    byte is byte i % 8 (least significant first) of raw word i // 8, and a
    coin whose top byte equals the threshold's takes its low 45 bits from
    the top of one more raw word, in coin order, after all the byte words.
    Draws the words through Generator.integers, not the bit generator."""
    if p in (0.0, 1.0):
        return np.full(count, p == 1.0)
    threshold = math.ceil(Fraction(p) * 2**53)
    words = rng.integers(0, 2**64, size=-(-count // 8), dtype=np.uint64)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    top = ((words[:, None] >> shifts) & np.uint64(0xFF)).reshape(-1)[:count]
    k = top << np.uint64(45)
    tied = np.flatnonzero(top == threshold >> 45)
    k[tied] |= rng.integers(0, 2**64, size=len(tied), dtype=np.uint64) >> np.uint64(19)
    return k < np.uint64(threshold)


def reference_sample_many(model, rng, size):
    """Row-major sampling in each model's stream order, gathered into
    (size, n) rows: the 0/1 models through ``reference_coins``, the others
    with the generator calls, shapes and order they have always used."""
    if model.kind == "boolean_iid":
        coins = reference_coins(rng, model.p, size * model.n)
        return coins.reshape(size, model.n).astype(np.float64)
    if model.kind == "planted_clique":
        # every row's block coin, then the free coins row by row
        factors = len(model._fvals)
        coins = np.empty((size, factors), dtype=bool)
        coins[:, 0] = reference_coins(rng, model.p, size)
        coins[:, 1:] = reference_coins(rng, model.p, size * (factors - 1)).reshape(size, -1)
        return coins.take(model._vmap, axis=1).astype(np.float64)
    if model.kind == "exchangeable_mixture":
        values, probs = model._fvals[0][:, 0], model._fprobs[0]
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
