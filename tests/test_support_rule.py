"""Rows of probability 0: a model keeps only the rows it can draw.

A row of probability 0 is dropped when the model is built, so a model with
such rows is the same model as one built without them: the same law of the
sum, moments, weighted fold, range check and random streams.  The stream
pins were frozen from models that still carried those rows, so they hold
the draws to the positive rows alone."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chbound as cb

# A float-kernel lambda: (lam * 1.0 + 1.0) - lam is not 1.0, so the 0/1
# models' estimates do not take the count kernel.
FLOAT_LAM = 0.6666666666666666


def _pinned_models():
    """(name, model, params): models with rows of probability 0 (some of
    them far outside [a_i, a_i + b]) and coins of p = 0 and p = 1."""
    yield ("table",
           cb.ExplicitTableModel([([0.25, 0.75, 0.5], 0.5), ([9.0, -9.0, 9.0], 0.0),
                                  ([1.0, 0.0, 0.25], 0.375), ([0.5, 0.5, 1.0], 0.125),
                                  ([0.0, 0.0, 0.0], 0.0)]),
           cb.BoundParams.boolean(3, 0.45, 0.05))
    yield ("independent",
           cb.IndependentModel([[(0.0, 0.0), (0.25, 0.5), (1.0, 0.5)],
                                [(0.5, 1.0), (7.0, 0.0)],
                                [(-3.0, 0.0), (-0.25, 0.3), (1.25, 0.7)]]),
           cb.BoundParams(n=3, a=(-0.25,) * 3, b=1.5, c=(0.5,) * 3, t=0.1))
    yield ("mixture",
           cb.ExchangeableMixtureModel(4, 0.3, [(0.0, 0.5), (2.0, 0.0), (0.5, 0.2), (1.0, 0.3)]),
           cb.BoundParams.boolean(4, 0.5, 0.1))
    yield "boolean_p0", cb.BooleanIIDModel(5, 0.0), cb.BoundParams.boolean(5, 0.5, 0.1)
    yield "boolean_p1", cb.BooleanIIDModel(5, 1.0), cb.BoundParams.boolean(5, 0.5, 0.1)
    yield ("planted_p1", cb.PlantedCliqueModel(6, 1.0, indices=[1, 4]),
           cb.BoundParams.boolean(6, 0.5, 0.1))
    yield ("mixture_coin_p0", cb.ExchangeableMixtureModel.bernoulli(3, 0.5, 0.0),
           cb.BoundParams.boolean(3, 0.5, 0.1))


def _round_bytes(r) -> bytes:
    return b"".join([r.x.tobytes(), r.xtilde.tobytes(), r.y.tobytes(),
                     repr((r.subset, r.product, r.sum_exceeds)).encode()])


def _streams(model, params):
    """sha256 of 500 ``sample_many`` rows, of a float-kernel estimate and of
    300 ``draw_round`` rounds."""
    rows = model.sample_many(np.random.default_rng(5), 500).tobytes()
    est = cb.estimate_product(model, params, FLOAT_LAM, 3000, seed=7, block_size=1000)
    rng = np.random.default_rng(9)
    rounds = b"".join(_round_bytes(cb.draw_round(model, params, 0.4, rng)) for _ in range(300))
    estimate = f"{est.mean.hex()} {est.std_error.hex()}".encode()
    return [hashlib.sha256(blob).hexdigest() for blob in (rows, estimate, rounds)]


# Frozen from models that still kept their rows of probability 0, before
# the constructor dropped them.
STREAM_PINS = {
    "table": ["f53ff74e8d2f0f2069007899b1dfc94e6f7125cf8f71bbc563841452ce011a07",
              "2f843d37a8b7aadff965fd6ccdd3f14a5358a641588e49411bece0e26ce5e66d",
              "b8c5ed1f6e7f45da4504ce0a4034b9d940167b5bf51d976699f57e84addb0b83"],
    "independent": ["315b55a8b2bff86cbd3b6b2ce7c6d71ba13166ed292fdb81cfaadf537921fba9",
                    "6feb3c6eff97efbf5c770c4b9e0855b8e48921e234589114857e555d4236a889",
                    "5cc0fa757ef9a17d8fd9600e6179b47973e91aed30ca21e0db1698a1c7a409bd"],
    "mixture": ["e9736ac735adaf92ef9847e9968307c19334cce60b7dd115f2effc928f4ddc64",
                "b4f1860a02c63cbdfbce3ec24ad33d4367aa24af5b37d842aeb03e7d3c86fb07",
                "8e6553c4bf43658aada434e974eaca9095dd12bfe364a7c8fdfa66c666aa5cdb"],
    "boolean_p0": ["28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85",
                   "0da46d8c982aa92136276768e6c6cb4f6ba075b9147e8daa27461ad3268f5b49",
                   "232f74d886517ab64bffa79db90beb9781121925976cf68c5cab2a9d47ec49d9"],
    "boolean_p1": ["7457a791033ecdac844da8cdd92ae0815687e7d319b4c6ad2f5c10158ed579be",
                   "9b8a49473ede12cf9744e906712b5c740c87c9f022cda284d621c390cd66f1cc",
                   "e88c8c33ae7175bd34d52ce1ef886d5d4e823a1b6c15f66f563c1c729ede0f26"],
    "planted_p1": ["bf92e28edd3af5c14ac29cbcd4313b3c9ffa9e35e4038e377d994d62467617ed",
                   "99132e533f3beea875b5fdf0cc2dc1b7a41194b0044e1e7c03928bd546cb5bf7",
                   "b6da99281e2f517498cde60744efacbffdaa69df426f1a791c4895304c852bde"],
    "mixture_coin_p0": ["ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4",
                        "28eb03c7154575aede2d0bba211a361dcbb00592243f482f4970ddcd888a498e",
                        "e7aad5c46859e0cba840e640005af060d3e4e866c5e6486173e56ba761d70146"],
}


@pytest.mark.parametrize("name", [name for name, _, _ in _pinned_models()])
def test_streams_keep_their_parent_bits(name):
    model, params = {n: (m, p) for n, m, p in _pinned_models()}[name]
    assert _streams(model, params) == STREAM_PINS[name]


def _outcome(call):
    """(result, None), or (None, the message) of a ValidationError."""
    try:
        return call(), None
    except cb.ValidationError as exc:
        return None, str(exc)


# where a value sits in [a, a + b], in units of b: inside, at the ends, in
# the slack band (slack(b) / b = 1e-12 on either side), and beyond it
UNITS = (0.0, 1.0, 0.5, 0.25, -1e-13, 1.0 + 1e-13) * 6 + (-0.5, 1.5)


@st.composite
def support_cases(draw):
    """(model with rows of probability 0, the same model without them,
    params, whether it is a 0/1 model of p in {0, 1}).  The rows go in at
    random places of explicit tables, independent marginals and mixture
    atoms, with values anywhere; a 0/1 model of p in {0, 1} is compared
    with the factor table of its one drawable value."""
    a, b = draw(st.sampled_from([0.0, -0.25, -1.0])), draw(st.sampled_from([0.5, 1.0, 1.5]))
    live = st.sampled_from(UNITS).map(lambda u: a + b * u)
    dead = st.one_of(live, st.sampled_from([9.0, 1e200, -1e200]))
    n = draw(st.integers(1, 4))

    def table(width):
        """(rows, probs) of the drawable rows, then with rows of probability 0."""
        weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        rows = [draw(st.lists(live, min_size=width, max_size=width)) for _ in weights]
        probs = [w / sum(weights) for w in weights]
        full_rows, full_probs = list(rows), list(probs)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(full_rows)))
            full_rows.insert(at, draw(st.lists(dead, min_size=width, max_size=width)))
            full_probs.insert(at, 0.0)
        return (rows, probs), (full_rows, full_probs)

    def atoms(rows, probs):
        return [(row[0], p) for row, p in zip(rows, probs)]

    kind = draw(st.sampled_from(["table", "independent", "mixture", "coins"]))
    if kind == "table":
        clean, full = table(n)
        models = [cb.ExplicitTableModel(list(zip(*t))) for t in (full, clean)]
    elif kind == "independent":
        tables = [table(1) for _ in range(n)]
        models = [cb.IndependentModel([atoms(*t[side]) for t in tables]) for side in (1, 0)]
    elif kind == "mixture":
        rho = draw(st.sampled_from([0.0, 0.3, 1.0]))
        clean, full = table(1)
        models = [cb.ExchangeableMixtureModel(n, rho, atoms(*t)) for t in (full, clean)]
    else:
        p = draw(st.sampled_from([0.0, 1.0]))
        if draw(st.booleans()):
            coins = cb.BooleanIIDModel(n, p)
        else:
            coins = cb.PlantedCliqueModel(n, p, k=draw(st.integers(1, n)))
        factors = len(coins._fvals)
        models = [coins, cb.JointModel(n, [np.array([p])] * factors, [np.array([1.0])] * factors,
                                       coins._vmap)]
    params = cb.BoundParams(n=n, a=(a,) * n, b=b, c=(a + b / 2,) * n, t=0.0)
    return (*models, params, kind == "coins")


class TestSupportRule:
    @settings(max_examples=300, deadline=None)
    @given(support_cases(), st.sampled_from([0.3, FLOAT_LAM]), st.integers(0, 2**32 - 1))
    def test_rows_of_probability_zero_change_nothing(self, case, lam, seed):
        model, clean, params, coins = case
        assert ([x.tobytes() for x in model.sum_support()]
                == [x.tobytes() for x in clean.sum_support()])
        assert ([(c.subset, c.exact_moment.hex(), c.bound_product.hex())
                 for c in cb.certify_moments(model, params)]
                == [(c.subset, c.exact_moment.hex(), c.bound_product.hex())
                    for c in cb.certify_moments(clean, params)])
        checked = _outcome(lambda: model._check_range(params))
        assert checked == _outcome(lambda: clean._check_range(params))
        if checked[1] is not None:
            return
        assert ([x.tobytes() for x in model._fold(params, lam)]
                == [x.tobytes() for x in clean._fold(params, lam)])
        assert (model.sample_many(np.random.default_rng(seed), 64).tobytes()
                == clean.sample_many(np.random.default_rng(seed), 64).tobytes())
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got, want = (cb.draw_round(m, params, lam, rng) for m, rng in zip((model, clean), rngs))
            if coins:
                # The 0/1 models draw no random number at p in {0, 1}, and the
                # factor table does, so only the round's X side can agree.
                assert ((got.x.tobytes(), got.xtilde.tobytes(), got.sum_exceeds)
                        == (want.x.tobytes(), want.xtilde.tobytes(), want.sum_exceeds))
            else:
                assert _round_bytes(got) == _round_bytes(want)
