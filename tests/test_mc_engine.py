"""Coupled-process sampling, estimators, and exact chain verification."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound import mc_engine
from chbound.cli import main
from chbound.dist_models import _row_weights, tail_cutoff
from chbound.entropy_core import TOL, normalize
from chbound.mc_engine import ChainLink
from conftest import (
    distinct_sums_model, enumerate_atoms, make_violating_pair, make_zoo, reference_sample_many,
)

ZOO = make_zoo()
ZOO_IDS = [name for name, _, _ in ZOO]
LAMBDA_GRID = [i / 10 for i in range(10)] + [0.99]


def _normalized_exact_moment(model, params, subset):
    """E[prod_{i in S} (X_i - a_i)/b] by direct enumeration."""
    if not subset:
        return 1.0
    cols = list(subset)
    a = np.array([params.a[i] for i in cols])
    values, probs = enumerate_atoms(model)
    return float(probs @ np.prod((values[:, cols] - a) / params.b, axis=1))


class TestDrawRound:
    def test_fields_are_consistent(self):
        model = cb.BooleanIIDModel(6, 0.5)
        params = cb.BoundParams.boolean(6, 0.5, 0.25)
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = cb.draw_round(model, params, 0.4, rng)
            assert r.x.shape == r.xtilde.shape == r.y.shape == (6,)
            assert set(r.y.tolist()) <= {0, 1}
            assert all(0 <= i < 6 for i in r.subset)
            expected = int(all(r.y[i] == 1 for i in r.subset))
            assert r.product == expected
            assert r.sum_exceeds == (r.x.sum() >= params.threshold - 1e-12)

    def test_lambda_extremes(self):
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        rng = np.random.default_rng(0)
        empty = cb.draw_round(model, params, 0.0, rng)
        assert empty.subset == () and empty.product == 1
        full = cb.draw_round(model, params, 1.0, rng)
        assert full.subset == (0, 1, 2, 3)

    def test_normalization_applied(self):
        model = cb.IndependentModel([[(-0.25, 0.5), (0.75, 0.5)]])
        params = cb.BoundParams(n=1, a=(-0.25,), b=1.0, c=(0.25,), t=0.0)
        r = cb.draw_round(model, params, 0.5, np.random.default_rng(1))
        assert r.xtilde[0] in (0.0, 1.0)

    def test_rejects_bad_lambda(self):
        model = cb.BooleanIIDModel(2, 0.5)
        params = cb.BoundParams.boolean(2, 0.5, 0.25)
        with pytest.raises(cb.ValidationError):
            cb.draw_round(model, params, 1.2, np.random.default_rng(0))


class TestDrawRoundRangeCheck:
    def test_checks_the_model_not_its_row(self):
        # 7.0 is drawn once in 1e9 rounds, but it is an atom of the model, so
        # the first call raises with estimate_product's message.
        model = cb.IndependentModel([[(0.5, 1 - 1e-9), (7.0, 1e-9)], [(0.5, 1.0)]])
        params = cb.BoundParams.boolean(2, 0.5, 0.1)
        message = re.escape("variable 0 takes value 7.0 outside [0.0, 1.0]")
        with pytest.raises(cb.ValidationError, match=message):
            cb.estimate_product(model, params, 0.5, 10, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(cb.ValidationError, match=message):
            cb.draw_round(model, params, 0.5, rng)
        assert rng.random() == np.random.default_rng(0).random()  # before any draw


class TestEstimateProduct:
    def test_matches_closed_form_for_iid(self):
        # E[prod Y over I] = (lam q + 1 - lam)^n for independent Bernoulli(q)
        q, lam, n = 0.5, 0.5, 4
        model = cb.BooleanIIDModel(n, q)
        params = cb.BoundParams.boolean(n, q, 0.25)
        est = cb.estimate_product(model, params, lam, 100_000, seed=1)
        closed = (lam * q + 1 - lam) ** n
        assert est.std_error > 0.0
        assert abs(est.mean - closed) < 4 * est.std_error

    def test_lambda_one_recovers_full_product(self):
        model, params = make_violating_pair()
        est = cb.estimate_product(model, params, 1.0, 50_000, seed=2)
        exact = cb.exact_product_expectation(model, 1.0, params)
        assert exact == pytest.approx(0.5, rel=1e-12)
        assert abs(est.mean - exact) < 4 * est.std_error

    def test_lambda_zero_is_deterministically_one(self):
        model = cb.BooleanIIDModel(3, 0.5)
        params = cb.BoundParams.boolean(3, 0.5, 0.25)
        est = cb.estimate_product(model, params, 0.0, 1000, seed=0)
        assert est.mean == 1.0 and est.std_error == 0.0

    @pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
    def test_consistent_with_exact_on_zoo(self, name, model, params):
        lam = 0.5
        est = cb.estimate_product(model, params, lam, 50_000, seed=3)
        exact = cb.exact_product_expectation(model, lam, params)
        if est.std_error == 0.0:
            assert est.mean == pytest.approx(exact, abs=1e-9)
        else:
            assert abs(est.mean - exact) < 4 * est.std_error

    def test_worker_count_never_changes_result(self):
        model = cb.BooleanIIDModel(5, 0.4)
        params = cb.BoundParams.boolean(5, 0.4, 0.2)
        runs = [
            cb.estimate_product(model, params, 0.3, 30_000, seed=9, workers=w)
            for w in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_consumer_at_its_limit_draws_no_further_block(self):
        drawn = []

        def block(rng, m):
            drawn.append(m)
            return np.full(m, 0.5)

        blocks = mc_engine._run_blocks(0, mc_engine.PRODUCT_STREAM_TAG, 1000, 300, block)
        assert mc_engine._mean_and_se(blocks, 450) == (450, 0.5, 0.0)
        assert drawn == [300, 300]  # of blocks 300, 300, 300, 100

    def test_seed_changes_result(self):
        model = cb.BooleanIIDModel(5, 0.4)
        params = cb.BoundParams.boolean(5, 0.4, 0.2)
        a = cb.estimate_product(model, params, 0.3, 10_000, seed=0)
        b = cb.estimate_product(model, params, 0.3, 10_000, seed=1)
        assert a.mean != b.mean

    def test_input_validation(self):
        model = cb.BooleanIIDModel(2, 0.5)
        params = cb.BoundParams.boolean(2, 0.5, 0.25)
        with pytest.raises(cb.ValidationError):
            cb.estimate_product(model, params, 0.5, 0)
        with pytest.raises(cb.ValidationError):
            cb.estimate_product(model, params, -0.1, 100)
        with pytest.raises(cb.ValidationError):
            cb.estimate_product(model, params, 0.5, 100, workers=0)
        with pytest.raises(cb.ValidationError):
            cb.estimate_product(model, params, 0.5, 100, seed=-1)


class TestConditionalEstimate:
    def test_matches_exact_conditional(self):
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        lam = 0.5
        report = cb.verify_chain(model, params, lam)
        exact_cond = report.expected_product_on_tail / report.tail_probability
        est = cb.estimate_product(model, params, lam, 20_000, conditional=True, seed=4)
        assert est.conditional_on_tail
        assert est.n_samples == 20_000
        assert abs(est.mean - exact_cond) < 4 * est.std_error

    def test_worker_invariance(self):
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        runs = [
            cb.estimate_product(
                model, params, 0.5, 5_000, conditional=True, seed=5, workers=w
            )
            for w in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_zero_tail_exhausts_budget(self):
        # X1 + X2 = 1 always, threshold 1.5: no acceptances can ever occur
        model = cb.ExplicitTableModel([([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)])
        params = cb.BoundParams.boolean(2, 0.5, 0.25)
        with pytest.raises(cb.RejectionBudgetError, match="0 acceptances"):
            cb.estimate_product(
                model, params, 0.5, 100, conditional=True, seed=0, max_proposals=20_000
            )

    def test_impossible_tail_fails_before_any_draw(self, monkeypatch):
        # X1 + X2 = 1 always, threshold 1.4: no budget can help, so none is spent
        model = cb.ExplicitTableModel([([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)])
        params = cb.BoundParams.boolean(2, 0.4, 0.3)
        monkeypatch.setattr(model, "_draw", lambda rng, out: pytest.fail("drew a row"))
        with pytest.raises(cb.RejectionBudgetError,
                           match="No atom the model can draw reaches the threshold 1.4: "
                                 "the largest atom sum is 1.0"):
            cb.estimate_product(model, params, 0.5, 100, conditional=True, seed=0)

    @pytest.mark.parametrize("model,params", [
        (cb.ExplicitTableModel([([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)]),
         cb.BoundParams.boolean(2, 0.25, 0.25)),
        (cb.BooleanIIDModel(3, 0.5), cb.BoundParams.boolean(3, 0.5, 0.5)),  # the count kernel
    ], ids=["table", "boolean"])
    def test_largest_sum_at_the_threshold_is_drawn(self, model, params):
        assert model._max_sum()[0] == params.threshold
        est = cb.estimate_product(model, params, 0.5, 100, conditional=True, seed=0)
        assert est.n_samples == 100

    @pytest.mark.parametrize("model", [model for _, model, _ in ZOO] + [
        cb.PlantedCliqueModel(6, 0.3, indices=[1, 4]),
        cb.ExchangeableMixtureModel(3, 0.0, [(-0.5, 0.5), (0.75, 0.5)]),
        cb.ExchangeableMixtureModel(3, 1.0, [(-0.5, 0.5), (0.75, 0.5)]),
    ], ids=ZOO_IDS + ["planted_scattered", "mixture_rho0", "mixture_rho1"])
    def test_largest_sum_is_that_of_the_atoms(self, model):
        values, probs = enumerate_atoms(model)
        largest, rounding = model._max_sum()
        assert largest == pytest.approx(values[probs > 0].sum(axis=1).max(), abs=rounding)

    def test_rounding_covers_an_interleaved_order(self):
        # Factor 0 is read by variables 0 and 2, factor 1 by variable 1: the
        # kernel adds 0.03 + 0.84 + 0.43 to 1.3, the factor order to 1.2999999999999998.
        model = cb.JointModel(3, [[[0.03, 0.43]], [[0.84]]], [[1.0], [1.0]], [0, 2, 1])
        row = model.sample_many(np.random.default_rng(0), 1)[0]
        largest, rounding = model._max_sum()
        assert largest < (row[0] + row[1]) + row[2] == 1.3 <= largest + rounding

    def test_a_row_at_the_cutoff_in_the_kernel_order_is_drawn(self):
        # The kernel adds x0 + x1 + x2 to the cutoff itself; _max_sum adds
        # factor 0's readers first, to one ulp below it, so only the rounding
        # allowance keeps the estimate from refusing.
        params = cb.BoundParams.boolean(3, 0.3, 0.13)
        x0, x1, x2 = 0.07, 0.71, 0.5099999999987098
        assert (x0 + x1) + x2 == tail_cutoff(params.threshold) > (x0 + x2) + x1
        model = cb.JointModel(3, [[[x0, x2]], [[x1]]], [[1.0], [1.0]], [0, 2, 1])
        est = cb.estimate_product(model, params, 0.5, 10, conditional=True, seed=0)
        assert est.n_samples == 10

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12),
                    min_size=1, max_size=4))
    def test_largest_sum_bounds_every_left_to_right_sum(self, rows):
        # the kernel adds each row left to right; the bound must cover every
        # such sum, whatever order _max_sum added in
        model = cb.ExplicitTableModel([(row, 1.0 / len(rows)) for row in rows])
        largest, rounding = model._max_sum()
        for row in model._fvals[0]:
            total = 0.0
            for v in row:
                total += v
            assert total <= largest + rounding


def _unit(x, params):
    """x -> (x - a_i) / b, clipped to [0, 1], written out."""
    return np.clip((x - np.asarray(params.a)) / params.b, 0.0, 1.0)


def _exact_conditional_product(model, params, lam):
    """E[prod (lam xtilde + 1 - lam) | sum X >= threshold] by enumeration."""
    values, probs = enumerate_atoms(model)
    tail = values.sum(axis=1) >= tail_cutoff(params.threshold)
    weights = np.prod(lam * _unit(values, params) + 1.0 - lam, axis=1)
    return math.fsum(probs[tail] * weights[tail]) / math.fsum(probs[tail])


@st.composite
def _small_models(draw):
    """An explicit table or an independent model on [a, a + b]^n, every table
    atom or marginal value at probability >= 1/31, and params whose tail
    threshold is an atom sum with tail mass >= 1/20."""
    n = draw(st.integers(1, 4))
    a = draw(st.sampled_from([0.0, -0.25]))
    b = draw(st.sampled_from([1.0, 2.0]))
    value = st.integers(0, 4).map(lambda k: a + b * k / 4)
    weight = st.integers(1, 10)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                             min_size=1, max_size=4, unique_by=tuple))
        w = draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
        model = cb.ExplicitTableModel([(r, wi / sum(w)) for r, wi in zip(rows, w)])
    else:
        marginals = []
        for _ in range(n):
            vals = draw(st.lists(value, min_size=1, max_size=3, unique=True))
            w = draw(st.lists(weight, min_size=len(vals), max_size=len(vals)))
            marginals.append([(v, wi / sum(w)) for v, wi in zip(vals, w)])
        model = cb.IndependentModel(marginals)
    values, probs = enumerate_atoms(model)
    sums = values.sum(axis=1)
    levels = sorted(s for s in set(sums.tolist()) if probs[sums >= s].sum() >= 1 / 20)
    level = float(draw(st.sampled_from(levels)))
    params = cb.BoundParams(n=n, a=(a,) * n, b=b, c=(level / n,) * n, t=0.0)
    return model, params


def _block_weights(model, params, lam, seed, block_size, total):
    """Per-block row weights rebuilt from block_rng and chunked sample_many."""
    rows = max(1, mc_engine.ESTIMATE_CHUNK // model.n)
    blocks = []
    for b in range(-(-total // block_size)):
        rng = mc_engine.block_rng(seed, mc_engine.PRODUCT_STREAM_TAG, b)
        m = min(block_size, total - b * block_size)
        chunks = [model.sample_many(rng, min(rows, m - s)) for s in range(0, m, rows)]
        blocks.append(np.concatenate(
            [np.prod(lam * _unit(x, params) + 1.0 - lam, axis=1) for x in chunks]
        ))
    return blocks


class TestRaoBlackwellEstimate:
    """estimate_product averages the row weight prod (lam xtilde + 1 - lam)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_small_models(), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**20))
    def test_agrees_with_enumeration(self, case, lam, conditional, seed):
        model, params = case
        est = cb.estimate_product(
            model, params, lam, 4000, conditional=conditional, seed=seed, block_size=1500
        )
        if conditional:
            exact = _exact_conditional_product(model, params, lam)
        else:
            exact = cb.exact_product_expectation(model, lam, params)
        assert abs(est.mean - exact) <= 5 * est.std_error + 1e-12, (est, exact)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rebuilt_by_hand_from_block_streams(self, workers):
        # 21 rows per chunk, so blocks of 50 end in a partial chunk, and the
        # last block holds only 30 rows.
        model = cb.PlantedCliqueModel(3000, 0.5, k=40)
        params = cb.BoundParams.boolean(3000, 0.5, 0.1)
        assert mc_engine.ESTIMATE_CHUNK // model.n == 21
        lam = 1e-3
        count, mean, m2 = 0, 0.0, 0.0
        for w in _block_weights(model, params, lam, 4, 50, 130):
            k, k_mean = len(w), float(w.mean())
            delta = k_mean - mean
            mean = (count * mean + k * k_mean) / (count + k)
            m2 += float(np.sum(np.square(w - k_mean))) + delta * delta * (count * k / (count + k))
            count += k
        est = cb.estimate_product(model, params, lam, 130, seed=4, block_size=50, workers=workers)
        assert est == cb.Estimate(mean, math.sqrt(m2 / (count - 1) / count), 130, False)

    def test_std_error_survives_nearly_equal_weights(self):
        # At lam = 1e-6 every weight lies within 2e-5 of 1, so
        # sum w^2 - (sum w)^2 / N cancels almost every digit.
        model = cb.BooleanIIDModel(20, 0.5)
        params = cb.BoundParams.boolean(20, 0.5, 0.1)
        lam, total = 1e-6, 20_000
        w = np.concatenate(_block_weights(model, params, lam, 8, 8192, total)).tolist()
        ref_mean = math.fsum(w) / total
        ref_se = math.sqrt(math.fsum((v - ref_mean) ** 2 for v in w) / (total - 1) / total)
        est = cb.estimate_product(model, params, lam, total, seed=8)
        assert est.mean == pytest.approx(ref_mean, rel=1e-15, abs=0.0)
        assert est.std_error == pytest.approx(ref_se, rel=1e-11, abs=0.0)
        arr = np.array(w)
        naive = np.sum(arr * arr) - np.sum(arr) ** 2 / total
        assert abs(math.sqrt(naive / (total - 1) / total) / ref_se - 1.0) > 1e-6


def _reference_estimate(model, params, lam, n_samples, *, conditional, seed, block_size,
                        max_proposals):
    """estimate_product with the row-major chunk kernel it had before the
    variable-major workspace: pre-_draw samplers, a range check and map per
    chunk, np.prod row weights, and tail sums that add each row's values in
    index order.  None when the proposal budget runs out."""
    total = n_samples
    if conditional:
        total = max(1, math.ceil(max_proposals / block_size)) * block_size
    cutoff = tail_cutoff(params.threshold)
    rows = max(1, mc_engine.ESTIMATE_CHUNK // model.n)

    def block(rng, m):
        kept = []
        for start in range(0, m, rows):
            x = reference_sample_many(model, rng, min(rows, m - start))
            w = np.prod(lam * _unit(x, params) + 1.0 - lam, axis=1)
            kept.append(w[np.cumsum(x, axis=1)[:, -1] >= cutoff] if conditional else w)
        return np.concatenate(kept)

    count, mean, m2 = 0, 0.0, 0.0
    blocks = mc_engine._run_blocks(seed, mc_engine.PRODUCT_STREAM_TAG, total, block_size, block)
    for weights in blocks:
        kept = weights[: n_samples - count]
        if len(kept):
            k, k_mean = len(kept), float(kept.mean())
            k_m2 = float(np.sum(np.square(kept - k_mean)))
            merged = count + k
            delta = k_mean - mean
            mean = (count * mean + k * k_mean) / merged
            m2 += k_m2 + delta * delta * (count * k / merged)
            count = merged
        if count == n_samples:
            break
    else:
        return None
    se = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return cb.Estimate(mean, se, n_samples, bool(conditional))


@st.composite
def _kernel_cases(draw):
    """A zoo model with its params, or a model of any kind with n in 1..70
    on [a, a + b] for identity or shifted (a = -0.2) params."""
    kind = draw(st.sampled_from(
        ["zoo", "boolean", "planted", "mixture", "independent", "table"]
    ))
    if kind == "zoo":
        _, model, params = draw(st.sampled_from(ZOO))
        return model, params
    a, b = draw(st.sampled_from([(0.0, 1.0), (-0.2, 1.2)]))
    n = draw(st.integers(1, 70))
    p = draw(st.sampled_from([0.1, 0.5, 0.8]))
    grid = st.integers(0, 4).map(lambda k: a + b * k / 4)
    weight = st.integers(1, 10)
    if kind == "boolean":
        model = cb.BooleanIIDModel(n, p)
    elif kind == "planted":
        order = draw(st.permutations(range(n)))
        model = cb.PlantedCliqueModel(n, p, indices=order[: draw(st.integers(1, n))])
    elif kind == "mixture":
        w = draw(st.lists(weight, min_size=3, max_size=3))
        atoms = [(v, wi / sum(w)) for v, wi in zip((0.0, 0.5, 1.0), w)]
        model = cb.ExchangeableMixtureModel(n, draw(st.sampled_from([0.0, 0.3, 1.0])), atoms)
    elif kind == "independent":
        marginals = []
        for _ in range(n):
            vals = draw(st.lists(grid, min_size=1, max_size=3, unique=True))
            w = draw(st.lists(weight, min_size=len(vals), max_size=len(vals)))
            marginals.append([(v, wi / sum(w)) for v, wi in zip(vals, w)])
        model = cb.IndependentModel(marginals)
    else:
        table = draw(st.lists(st.lists(grid, min_size=n, max_size=n),
                              min_size=1, max_size=6, unique_by=tuple))
        w = draw(st.lists(weight, min_size=len(table), max_size=len(table)))
        model = cb.ExplicitTableModel([(r, wi / sum(w)) for r, wi in zip(table, w)])
    params = cb.BoundParams(n=n, a=(a,) * n, b=b, c=(a + 0.4 * b,) * n, t=0.1 * b)
    return model, params


class TestChunkKernel:
    """The variable-major chunk kernel gives the row-major kernel's bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        _kernel_cases(), st.floats(0.0, 1.0), st.booleans(), st.integers(1, 5000),
        st.integers(100, 3000), st.sampled_from([1, 2]), st.integers(0, 2**20),
    )
    def test_matches_row_major_reference(
        self, case, lam, conditional, n_samples, block_size, workers, seed
    ):
        model, params = case
        kwargs = dict(conditional=conditional, seed=seed, block_size=block_size,
                      max_proposals=20_000)
        want = _reference_estimate(model, params, lam, n_samples, **kwargs)
        if want is None:
            with pytest.raises(cb.RejectionBudgetError):
                cb.estimate_product(model, params, lam, n_samples, workers=workers, **kwargs)
        else:
            got = cb.estimate_product(model, params, lam, n_samples, workers=workers, **kwargs)
            assert got == want

    def test_numpy_reduction_orders(self):
        # The kernel's row product reduces the variable-major (n, rows)
        # chunk over axis 0; the reference multiplies along each C-ordered
        # row.  Both must fold left to right.  The tail sums reduce the chunk
        # over axis 0 too, which adds the variables left to right, as a
        # running sum along the row does.  A one-row chunk is the exception:
        # it is one contiguous run, which NumPy sums pairwise like a row, so
        # the kernel takes a running sum there.  If a NumPy release changes
        # any of these orders, reported bits move: this says so.
        rng = np.random.default_rng(2024)
        for n in range(1, 131):
            for rows in (1, 7, 1310):
                w = rng.uniform(0.5, 1.5, (rows, n))
                chunk = w.T.copy()
                product = np.empty(rows)
                np.multiply.reduce(chunk, axis=0, out=product)
                assert product.tobytes() == np.prod(w, axis=1).tobytes(), (n, rows)
                fold = np.add.reduce(chunk, axis=0).tobytes()
                in_order = np.cumsum(w, axis=1)[:, -1].tobytes()
                assert fold == (w.sum(axis=1).tobytes() if rows == 1 else in_order), (n, rows)

    def test_identity_chunk_allocates_only_the_workspace(self):
        # One block of planted n=50 under the identity map: the (n, rows)
        # workspace, the block's weights and byte-sized coin tables (an
        # eighth of a chunk each), but no second chunk-sized float array.
        # At lam = 0.4 a one's factor is not 1.0, so this is the float kernel.
        model = cb.PlantedCliqueModel(50, 0.5, k=5)
        params = cb.BoundParams.boolean(50, 0.5, 0.1)
        rows = mc_engine.ESTIMATE_CHUNK // model.n
        chunk_bytes = 8 * model.n * rows
        assert (0.4 * 1.0 + 1.0) - 0.4 != 1.0
        cb.estimate_product(model, params, 0.4, 100, seed=1)
        tracemalloc.start()
        try:
            cb.estimate_product(model, params, 0.4, 8192, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunk_bytes <= peak < 2 * chunk_bytes, (peak, chunk_bytes)


def _float_kernel_estimate(model, params, lam, n_samples, *, conditional, seed, block_size,
                           max_proposals):
    """estimate_product through the float kernel alone: the rows of _kernel,
    tail sums added left to right, and _row_weights.  None when the proposal
    budget runs out."""
    total = n_samples
    if conditional:
        total = max(1, math.ceil(max_proposals / block_size)) * block_size
    cutoff = tail_cutoff(params.threshold)
    _, chunks = mc_engine._kernel(model, params, min(block_size, total))

    def block(rng, m):
        kept = []
        for _, x, xt in chunks(rng, m):
            w = _row_weights(xt.T, lam)
            kept.append(w[np.cumsum(x.T, axis=1)[:, -1] >= cutoff] if conditional else w)
        return np.concatenate(kept)

    blocks = mc_engine._run_blocks(seed, mc_engine.PRODUCT_STREAM_TAG, total, block_size, block)
    count, mean, se = mc_engine._mean_and_se(blocks, n_samples)
    return cb.Estimate(mean, se, n_samples, conditional) if count == n_samples else None


@st.composite
def _coin_models(draw):
    """A Boolean or planted model, n in 1..80, p including 0 and 1."""
    n = draw(st.integers(1, 80))
    p = draw(st.sampled_from([0.0, 0.1, 0.37, 0.5, 0.8, 1.0]))
    if draw(st.booleans()):
        return cb.BooleanIIDModel(n, p)
    if draw(st.booleans()):
        return cb.PlantedCliqueModel(n, p, k=draw(st.integers(1, n)))
    order = draw(st.permutations(range(n)))
    return cb.PlantedCliqueModel(n, p, indices=order[: draw(st.integers(1, n))])


# a one's factor (lam * 1.0 + 1.0) - lam is 1.0 at the first four, not at the last two
COUNT_LAMBDAS = [0.0, 0.3, 0.33333333333333337, 1.0, 0.4, 0.9]


class TestCountKernel:
    """The count kernel of the 0/1 models gives the float kernel's bits."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        _coin_models(), st.one_of(st.sampled_from(COUNT_LAMBDAS), st.floats(0.0, 1.0)),
        st.booleans(), st.integers(1, 4000), st.integers(100, 2500),
        st.floats(0.05, 0.95), st.integers(0, 2**20),
    )
    def test_matches_float_kernel(self, model, lam, conditional, n_samples, block_size, c,
                                  seed):
        params = cb.BoundParams.boolean(model.n, c, min(0.1, 1.0 - c))
        kwargs = dict(conditional=conditional, seed=seed, block_size=block_size,
                      max_proposals=20_000)
        want = _float_kernel_estimate(model, params, lam, n_samples, **kwargs)
        if want is None:
            with pytest.raises(cb.RejectionBudgetError):
                cb.estimate_product(model, params, lam, n_samples, **kwargs)
        else:
            got = cb.estimate_product(model, params, lam, n_samples, **kwargs)
            assert (got.mean.hex(), got.std_error.hex()) == (want.mean.hex(), want.std_error.hex())
            assert got == want

    @pytest.mark.parametrize("model", [
        cb.BooleanIIDModel(20, 0.5), cb.BooleanIIDModel(300, 0.3),
        cb.PlantedCliqueModel(50, 0.5, k=5), cb.PlantedCliqueModel(600, 0.4, indices=[3, 1, 7]),
        cb.PlantedCliqueModel(4, 0.6, k=4),
    ], ids=["boolean20", "boolean300", "planted50", "planted600", "planted_all"])
    def test_one_chunk_leaves_the_generator_where_draw_does(self, model):
        rows = max(1, mc_engine.ESTIMATE_CHUNK // model.n)
        drawn, counted = np.random.default_rng(7), np.random.default_rng(7)
        x = np.empty((model.n, rows))
        model._draw(drawn, x)
        ones = model._ones(counted, rows)
        assert drawn.bit_generator.state == counted.bit_generator.state
        assert ones.tolist() == np.add.reduce(x, axis=0).tolist()

    def test_count_kernel_allocates_no_float_chunk(self):
        # At lam = 0.3 a one's factor is 1.0: the count kernel weighs each
        # row from byte-sized coin tables and never forms a float chunk.
        model = cb.PlantedCliqueModel(50, 0.5, k=5)
        params = cb.BoundParams.boolean(50, 0.5, 0.1)
        chunk_bytes = 8 * model.n * (mc_engine.ESTIMATE_CHUNK // model.n)
        cb.estimate_product(model, params, 0.3, 100, seed=1)
        tracemalloc.start()
        try:
            cb.estimate_product(model, params, 0.3, 8192, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk_bytes, (peak, chunk_bytes)


class TestRangeCheckBelowTheTail:
    """Conditional mode weighs only tail rows, but checks every drawn row."""

    # threshold 1.5: only [1, 1] is in the tail; -0.5 sits in a row below it
    ATOMS = [([-0.5, 0.0], 0.1), ([1.0, 1.0], 0.45), ([0.0, 1.0], 0.45)]
    MESSAGE = "values leave [a_i, a_i + b]: variable 0 takes value -0.5 outside [0.0, 1.0]"

    @pytest.mark.parametrize("conditional", [False, True])
    def test_estimate_raises(self, conditional):
        model = cb.ExplicitTableModel(self.ATOMS)
        params = cb.BoundParams.boolean(2, 0.5, 0.25)
        with pytest.raises(cb.ValidationError, match=re.escape(self.MESSAGE)):
            cb.estimate_product(model, params, 0.5, 1000, conditional=conditional, seed=0)

    @pytest.mark.parametrize("conditional", [False, True])
    def test_simulate_exits_2(self, conditional, tmp_path, capsys):
        spec = tmp_path / "table.json"
        spec.write_text(json.dumps({"kind": "explicit_table", "params": {
            "support": [{"x": x, "p": p} for x, p in self.ATOMS]}}))
        argv = ["simulate", "--spec", str(spec), "--c", "0.5", "--t", "0.25",
                "--samples", "1000"] + (["--conditional"] if conditional else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and self.MESSAGE in captured.err


class TestTailSumOrder:
    """Conditional mode, draw_round and the exact fold all add each row's
    values left to right, in variable order, before they compare the sum
    with tail_cutoff."""

    # Atoms of 12 values whose pairwise sum (NumPy's sum of a contiguous
    # row) and left-to-right sum straddle the cutoff of (c, t) = (C, 0).
    KEPT = ([0.04, 0.53, 0.48, 0.83, 0.02, 0.56, 0.49, 0.6, 0.73, 0.52, 0.56, 0.49],
            0.48750000000048754)
    DROPPED = ([0.89, 0.15, 0.81, 0.04, 0.84, 0.7, 0.47, 0.48, 0.22, 0.93, 0.27, 0.26],
               0.5050000000005049)

    @staticmethod
    def _case(atom, c):
        model = cb.ExplicitTableModel([(atom, 0.5), ([0.0] * 12, 0.5)])
        params = cb.BoundParams.uniform(12, 0.0, 1.0, c, 0.0)
        cutoff = tail_cutoff(params.threshold)
        pairwise = float(np.array([atom]).sum(axis=1)[0])
        in_order = 0.0
        for v in atom:
            in_order += v
        return model, params, cutoff, pairwise, in_order

    @pytest.mark.parametrize("block_size", [1, 1000])
    def test_atom_kept_by_the_left_to_right_sum(self, block_size):
        model, params, cutoff, pairwise, in_order = self._case(*self.KEPT)
        assert pairwise < cutoff <= in_order
        lam = 0.5
        est = cb.estimate_product(model, params, lam, 50, conditional=True, seed=3,
                                  block_size=block_size, max_proposals=2000)
        weight = math.prod(lam * v + 1.0 - lam for v in self.KEPT[0])
        assert est.mean == pytest.approx(weight, rel=1e-12) and est.n_samples == 50

    @pytest.mark.parametrize("block_size", [1, 1000])
    def test_atom_dropped_by_the_left_to_right_sum(self, block_size):
        model, params, cutoff, pairwise, in_order = self._case(*self.DROPPED)
        assert in_order < cutoff <= pairwise
        with pytest.raises(cb.RejectionBudgetError, match="got 0 acceptances"):
            cb.estimate_product(model, params, 0.5, 50, conditional=True, seed=3,
                                block_size=block_size, max_proposals=2000)

    @pytest.mark.parametrize("case,kept", [(KEPT, True), (DROPPED, False)], ids=["kept", "dropped"])
    def test_exact_and_single_rounds_agree(self, case, kept):
        model, params, *_ = self._case(*case)
        assert cb.exact_tail(model, params.threshold) == (0.5 if kept else 0.0)
        assert cb.verify_chain(model, params, 0.5).tail_probability == (0.5 if kept else 0.0)
        rng = np.random.default_rng(5)
        rounds = [cb.draw_round(model, params, 0.5, rng) for _ in range(40)]
        on_atom = [r.sum_exceeds for r in rounds if r.x.any()]
        assert on_atom and set(on_atom) == {kept}
        assert not any(r.sum_exceeds for r in rounds if not r.x.any())


class TestRangeCheckedOncePerCall:
    """estimate_product and find_dependent_set check the model's factor rows
    before they draw anything; the kernel itself checks nothing."""

    # Variable 1 reaches 1.5 with probability 1e-9: never drawn, still refused.
    BAD = [[(0.0, 0.5), (1.0, 0.5)], [(0.0, 1.0 - 1e-9), (1.5, 1e-9)], [(0.25, 1.0)]]
    # 7.0 has probability 0, so it is never drawn and is accepted.
    ZERO = [[(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.6), (7.0, 0.0), (1.0, 0.4)], [(0.25, 1.0)]]
    WITHOUT_ZERO = [[(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.6), (1.0, 0.4)], [(0.25, 1.0)]]

    @staticmethod
    def _spied(marginals, monkeypatch):
        model = cb.IndependentModel(marginals)
        draws = []
        real = model._draw
        monkeypatch.setattr(model, "_draw", lambda rng, out: draws.append(out.shape) or real(rng, out))
        return model, draws

    @staticmethod
    def _witness_params(n=3):
        return cb.WitnessParams(params=cb.BoundParams.boolean(n, 0.4, 0.3), alpha=0.5, lam=0.7,
                                m_search=2000, m_confirm=2000, margin_threshold=0.01)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("conditional", [False, True])
    def test_estimate_raises_before_any_draw(self, workers, conditional, monkeypatch):
        model, draws = self._spied(self.BAD, monkeypatch)
        params = cb.BoundParams.boolean(3, 0.5, 0.1)
        with pytest.raises(cb.ValidationError, match=re.escape(
                "variable 1 takes value 1.5 outside [0.0, 1.0]")):
            cb.estimate_product(model, params, 0.5, 100, conditional=conditional,
                                seed=0, workers=workers, block_size=10, max_proposals=1000)
        assert draws == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_witness_raises_before_any_draw(self, workers, monkeypatch):
        model, draws = self._spied(self.BAD, monkeypatch)
        with pytest.raises(cb.ValidationError, match=re.escape(
                "variable 1 takes value 1.5 outside [0.0, 1.0]")):
            cb.find_dependent_set(model, self._witness_params(), seed=0, workers=workers,
                                  block_size=100)
        assert draws == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_probability_atom_is_accepted(self, workers):
        params = cb.BoundParams.boolean(3, 0.5, 0.1)
        wp = self._witness_params()
        model, plain = cb.IndependentModel(self.ZERO), cb.IndependentModel(self.WITHOUT_ZERO)
        for conditional in (False, True):
            kwargs = dict(conditional=conditional, seed=2, workers=workers, block_size=300)
            assert (cb.estimate_product(model, params, 0.5, 1000, **kwargs)
                    == cb.estimate_product(plain, params, 0.5, 1000, **kwargs))
        kwargs = dict(seed=2, workers=workers, block_size=100)
        assert (cb.find_dependent_set(model, wp, **kwargs)
                == cb.find_dependent_set(plain, wp, **kwargs))

    # Estimates of models with a value 1e-13 outside [a_i, a_i + b], inside
    # the tolerance: the kernel clips it to the boundary.  The bits are those
    # of the kernel that range-checked and clipped each chunk.
    IN_BAND = [
        ("identity", [(0.0, 0.3), (0.5, 0.2), (1 + 1e-13, 0.5)], (0.0, 1.0), False,
         "0x1.558d2ffecb4cbp-2", "0x1.2bdb7a8a10eadp-8"),
        ("identity", [(0.0, 0.3), (0.5, 0.2), (1 + 1e-13, 0.5)], (0.0, 1.0), True,
         "0x1.30ba1f4b1ee26p-1", "0x1.03a8fab6ab2cdp-8"),
        ("mapped", [(-0.5 - 1e-13, 0.3), (0.5, 0.2), (1.5 + 1e-13, 0.5)], (-0.5, 2.0), False,
         "0x1.558d2ffecb4cbp-2", "0x1.2bdb7a8a10eadp-8"),
        ("mapped", [(-0.5 - 1e-13, 0.3), (0.5, 0.2), (1.5 + 1e-13, 0.5)], (-0.5, 2.0), True,
         "0x1.f4dd2f1a9fbe7p-2", "0x1.103634074c543p-8"),
    ]

    @pytest.mark.parametrize("name,atoms,ab,conditional,mean,std_error", IN_BAND,
                             ids=[f"{c[0]}-{'cond' if c[3] else 'all'}" for c in IN_BAND])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_values_inside_the_tolerance_keep_their_bits(
        self, name, atoms, ab, conditional, mean, std_error, workers
    ):
        model = cb.IndependentModel([atoms] * 4)
        params = cb.BoundParams.uniform(4, ab[0], ab[1], ab[0] + 0.5 * ab[1], 0.25)
        est = cb.estimate_product(model, params, 0.6, 3000, conditional=conditional, seed=5,
                                  block_size=1000, workers=workers)
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)

    def test_detect_clips_values_inside_the_tolerance(self):
        model = cb.IndependentModel([[(0.0, 0.3), (0.5, 0.2), (1 + 1e-13, 0.5)]] * 4)
        report = cb.find_dependent_set(model, self._witness_params(4), seed=3)
        assert (report.empirical_moment.hex(), report.confirm_std_error.hex()) == (
            "0x1.38f5c28f5c28fp-1", "0x1.3b0456f5563f6p-7")


class TestExactProductExpectation:
    def test_identity_scale_default(self):
        model = cb.BooleanIIDModel(3, 0.25)
        lam = 0.6
        expected = (lam * 0.25 + 1 - lam) ** 3
        assert cb.exact_product_expectation(model, lam) == pytest.approx(expected, rel=1e-12)

    def test_lambda_endpoints(self):
        model, params = make_violating_pair()
        assert cb.exact_product_expectation(model, 0.0, params) == pytest.approx(1.0)
        assert cb.exact_product_expectation(model, 1.0, params) == pytest.approx(
            _normalized_exact_moment(model, params, (0, 1)), rel=1e-12
        )

    def test_requires_enumerable(self):
        with pytest.raises(cb.SupportTooLargeError, match="over atom_cap"):
            cb.exact_product_expectation(distinct_sums_model(25), 0.5)


class TestConditionalLayerIdentity:
    @pytest.mark.parametrize("name,model,params", ZOO[:4], ids=ZOO_IDS[:4])
    def test_bernoulli_layer_preserves_subset_moments(self, name, model, params):
        # E[prod_{i in S} Y_i] == E[prod_{i in S} Xtilde_i] for every subset:
        # check the sampled Y layer against exact enumeration.
        rng = np.random.default_rng(17)
        m = 40_000
        a = np.array(params.a)
        x = model.sample_many(rng, m)
        xt = np.clip((x - a) / params.b, 0.0, 1.0)
        y = rng.random((m, model.n)) < xt
        for size in range(1, model.n + 1):
            for subset in itertools.combinations(range(model.n), size):
                exact = _normalized_exact_moment(model, params, subset)
                bits = np.all(y[:, subset], axis=1)
                mean = bits.mean()
                se = max(math.sqrt(mean * (1 - mean) / m), 1e-9)
                assert abs(mean - exact) < 5 * se, (subset, mean, exact)


class TestVerifyChain:
    def test_all_links_pass_at_optimal_lambda(self):
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        lam = cb.optimize_lambda(normalize(params)).lam
        report = cb.verify_chain(model, params, lam)
        assert report.all_passed and report.hypothesis_ok and report.explained
        assert report.tail_probability == pytest.approx(5 / 16, rel=1e-12)
        assert len(report.certificates) == 16

    def test_lambda_zero_degenerates_to_tail_identity(self):
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        report = cb.verify_chain(model, params, 0.0)
        assert report.all_passed
        by_name = {l.name: l for l in report.links}
        assert by_name["product_mean_vs_per_variable"].lhs == 1.0
        assert by_name["certified_moments_vs_process"].rhs == pytest.approx(1.0)
        assert by_name["restrict_to_tail"].rhs == pytest.approx(report.tail_probability)
        assert by_name["tail_mass_envelope"].rhs == pytest.approx(report.tail_probability)

    @pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_chain_holds_across_lambda_grid(self, name, model, params, lam):
        report = cb.verify_chain(model, params, lam)
        assert report.hypothesis_ok
        assert report.all_passed, report.failed_links

    def test_violating_pair_fails_only_the_moment_link(self):
        model, params = make_violating_pair()
        report = cb.verify_chain(model, params, 0.5)
        assert not report.hypothesis_ok
        assert report.failed_links == ("certified_moments_vs_process",)
        assert report.explained
        assert report.expected_product == pytest.approx(0.625, rel=1e-12)
        assert report.tail_probability == pytest.approx(0.5, rel=1e-12)
        bad = [c for c in report.certificates if not c.satisfied]
        assert [c.subset for c in bad] == [(0, 1)]

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_conditional_lower_envelope(self, lam):
        # given a positive tail, the conditional expectation of the product
        # is at least (1 - lam)^(n - (ctilde + ttilde) n)
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        report = cb.verify_chain(model, params, lam)
        assert report.tail_probability > 0
        conditional = report.expected_product_on_tail / report.tail_probability
        norm = normalize(params)
        envelope = (1 - lam) ** (params.n * (1 - norm.ctilde - norm.ttilde))
        assert conditional >= envelope - 1e-10

    def test_lambda_domain_is_half_open(self):
        model = cb.BooleanIIDModel(2, 0.5)
        params = cb.BoundParams.boolean(2, 0.5, 0.25)
        with pytest.raises(cb.ValidationError):
            cb.verify_chain(model, params, 1.0)

    def test_link_lookup_and_tolerance(self):
        link = ChainLink("x", 1.0, 1.0 + TOL / 2)
        assert link.passed
        assert not ChainLink("x", 1.0, 1.0 + 10 * TOL).passed
        model = cb.BooleanIIDModel(2, 0.5)
        report = cb.verify_chain(model, cb.BoundParams.boolean(2, 0.5, 0.25), 0.5)
        assert report.link("restrict_to_tail").name == "restrict_to_tail"
        with pytest.raises(KeyError):
            report.link("nope")


class TestStreamPinning:
    """Exact outputs of the round kernel and block scheduler, frozen from the
    four separate samplers they replaced (the Boolean estimates re-frozen when
    0/1 models moved to one random byte per coin); a changed draw order
    shows here."""

    def test_draw_round_sequence(self):
        model = cb.IndependentModel([[(-0.2, 0.5), (0.7, 0.5)]] * 4)
        params = cb.BoundParams(n=4, a=(-0.2,) * 4, b=1.0, c=(0.25,) * 4, t=0.2)
        hi = 0.8999999999999999
        expected = [
            ([-0.2, -0.2, 0.7, -0.2], [0.0, 0.0, hi, 0.0], [0, 0, 1, 0], (2, 3)),
            ([0.7, -0.2, -0.2, 0.7], [hi, 0.0, 0.0, hi], [1, 0, 0, 1], (1, 2, 3)),
            ([-0.2, 0.7, -0.2, 0.7], [0.0, hi, 0.0, hi], [0, 1, 0, 1], (0, 2, 3)),
            ([0.7, -0.2, 0.7, -0.2], [hi, 0.0, hi, 0.0], [1, 0, 1, 0], (2, 3)),
        ]
        rng = np.random.default_rng(11)
        for x, xtilde, y, subset in expected:
            r = cb.draw_round(model, params, 0.6, rng)
            assert r.x.tolist() == x and r.xtilde.tolist() == xtilde
            assert r.y.tolist() == y and r.y.dtype == np.int8
            assert r.subset == subset and r.product == 0 and r.sum_exceeds is False
        assert rng.random() == 0.15982369410498098

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unconditional_estimate_with_partial_block(self, workers):
        model = cb.BooleanIIDModel(5, 0.4)
        params = cb.BoundParams.boolean(5, 0.4, 0.2)
        est = cb.estimate_product(
            model, params, 0.3, 10_000, seed=9, block_size=3000, workers=workers
        )
        assert est == cb.Estimate(0.369879136, 0.0015190270881589988, 10_000, False)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_conditional_estimate(self, workers):
        model = cb.BooleanIIDModel(4, 0.5)
        params = cb.BoundParams.boolean(4, 0.5, 0.25)
        est = cb.estimate_product(
            model, params, 0.5, 5_000, conditional=True, seed=5, block_size=700,
            workers=workers,
        )
        assert est == cb.Estimate(0.5992, 0.002820188414368534, 5_000, True)

    # The two lambdas of the benchmark's mc jobs, where a one's factor
    # (lam * 1.0 + 1.0) - lam is exactly 1.0.
    def test_planted_estimate_over_blocks(self):
        # 1310 rows per chunk: blocks of 3000 end in a partial chunk, and
        # the last block holds only 1000 rows.
        model = cb.PlantedCliqueModel(50, 0.5, k=5)
        params = cb.BoundParams.boolean(50, 0.5, 0.1)
        est = cb.estimate_product(model, params, 0.33333333333333337, 10_000, seed=3,
                                  block_size=3000)
        assert est.mean.hex() == "0x1.3bf7f9cf9d3b6p-13"
        assert est.std_error.hex() == "0x1.ecefc2c77c4e0p-19"

    def test_boolean_conditional_estimate(self):
        model = cb.BooleanIIDModel(20, 0.5)
        params = cb.BoundParams.boolean(20, 0.5, 0.15)
        est = cb.estimate_product(model, params, 0.4615384615384615, 3000, conditional=True,
                                  seed=6, block_size=2000)
        assert est.mean.hex() == "0x1.7fdd24c70745bp-6"
        assert est.std_error.hex() == "0x1.7ab1e78011bc1p-12"


class TestEstimateType:
    def test_rejects_inconsistent_values(self):
        with pytest.raises(cb.ValidationError):
            cb.Estimate(mean=0.5, std_error=-0.1, n_samples=10, conditional_on_tail=False)
        with pytest.raises(cb.ValidationError):
            cb.Estimate(mean=1.5, std_error=0.1, n_samples=10, conditional_on_tail=False)
        with pytest.raises(cb.ValidationError):
            cb.Estimate(mean=0.5, std_error=0.1, n_samples=0, conditional_on_tail=False)
