"""Budget resolution and the two-phase dependent-subset detector."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound import mc_engine, witness
from chbound.entropy_core import DEFAULT_MIN_ROUNDS, kl_div
from chbound.mc_engine import WITNESS_CONFIRM_TAG, WITNESS_POOL_TAG, WITNESS_SEARCH_TAG
from chbound.witness import CANDIDATES, CONFIRM_Z, LAMBDA_CAP


def _quiet_budgets(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cb.default_budgets(*args, **kwargs)


# alpha pinned to the certified tail ceiling for (n=10, c=0.4, t=0.3);
# a Bernoulli(0.7) tail at threshold 0.7 n meets it with probability ~0.159
ALPHA_10 = math.exp(-10 * kl_div(0.7, 0.4))
WP_10 = cb.default_budgets(10, 0.4, 0.3, ALPHA_10)


class TestDefaultBudgets:
    def test_lambda_is_optimizing_tilt(self):
        wp = cb.default_budgets(4, 0.5, 0.25, 0.9)
        assert wp.lam == pytest.approx(2 / 3, rel=1e-15)

    def test_lambda_is_that_of_the_bound_params(self):
        # the tilt at normalize(params), as simulate and verify resolve it;
        # the mean of 12 copies of 0.4 is not 0.4 in the last bit
        norm = cb.normalize(cb.BoundParams.boolean(12, 0.4, 0.3))
        assert cb.default_budgets(12, 0.4, 0.3, 0.5).lam == cb.optimize_lambda(norm).lam
        assert cb.optimize_lambda(norm).lam == 0.7142857142857144

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_lambda_matches_normalize_on_interior_shapes(self, n, c, share):
        t = share * (1.0 - c)
        norm = cb.normalize(cb.BoundParams.boolean(n, c, t))
        lam = cb.optimize_lambda(norm).lam
        if cb.proof_case(norm) == "interior" and lam < LAMBDA_CAP:
            assert _quiet_budgets(n, c, t, 0.999).lam == lam

    def test_lambda_capped_below_one(self):
        # t = 1 - c makes the raw tilt exactly 1
        wp = cb.default_budgets(2, 0.5, 0.5, 0.9)
        assert wp.lam == LAMBDA_CAP == 1.0 - 1e-6

    def test_margin_closed_form(self):
        assert cb.default_budgets(2, 0.5, 0.5, 0.9).margin_threshold == 0.9**16 / 8
        assert cb.default_budgets(4, 0.5, 0.25, 0.9).margin_threshold == 0.9**32 / 8
        near_one = cb.default_budgets(2, 0.5, 0.5, 1 - 1e-12).margin_threshold
        assert near_one == pytest.approx(1 / 8, rel=1e-9)

    def test_round_budgets_uncapped_region(self):
        wp = cb.default_budgets(1, 0.5, 0.5, 0.999)
        assert wp.m_search == math.ceil(64 * 0.999**-16 * math.log(2.0)) == 46
        assert wp.m_confirm == math.ceil(64 * (0.999**16 / 8) ** -2 * math.log(100.0)) == 19477

    def test_round_budgets_hit_caps(self):
        wp = _quiet_budgets(10, 0.5, 0.5, 0.5)
        assert wp.m_search == 50_000 and wp.m_confirm == 20_000
        small = _quiet_budgets(10, 0.5, 0.5, 0.5, m_search_cap=123, m_confirm_cap=45)
        assert small.m_search == 123 and small.m_confirm == 45

    def test_margin_underflow_raises(self):
        with pytest.raises(cb.BudgetOverflowError):
            cb.default_budgets(2, 0.5, 0.5, 1e-200)

    def test_huge_inverse_power_still_caps(self):
        # the margin is subnormal but positive while alpha^(-4/(c t))
        # overflows a double; budgets must cap, not raise
        wp = _quiet_budgets(2, 0.1, 0.0376, 0.5)
        assert wp.m_search == 50_000 and wp.m_confirm == 20_000
        assert wp.margin_threshold > 0.0

    @pytest.mark.parametrize(
        "n,c,t,alpha",
        [
            (0, 0.5, 0.25, 0.5),
            (2, 0.0, 0.25, 0.5),
            (2, 1.0, 0.25, 0.5),
            (2, 0.5, 0.0, 0.5),
            (2, 0.5, 0.6, 0.5),
            (2, 0.5, 0.25, 0.0),
            (2, 0.5, 0.25, 1.0),
        ],
    )
    def test_rejects_out_of_range_inputs(self, n, c, t, alpha):
        with pytest.raises(cb.ValidationError):
            cb.default_budgets(n, c, t, alpha)


class TestWitnessParams:
    def test_tail_bound_value(self):
        assert WP_10.tail_bound == pytest.approx(ALPHA_10, rel=1e-15)

    def test_warns_when_alpha_below_tail_bound(self):
        with pytest.warns(UserWarning, match="below the certified tail bound") as record:
            cb.default_budgets(10, 0.4, 0.3, ALPHA_10 / 2)
        # the warning names the caller's line, not the dataclass-generated __init__
        assert all(w.filename != "<string>" for w in record)
        # a bound far below the absolute TOL still warns: 0.5^60 = 8.67e-19
        with pytest.warns(UserWarning, match="below the certified tail bound 8.67"):
            cb.default_budgets(60, 0.5, 0.5, 1e-20)

    def test_no_warning_at_or_above_tail_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cb.default_budgets(10, 0.4, 0.3, ALPHA_10)  # equality: guaranteed regime
            cb.default_budgets(10, 0.4, 0.3, 0.5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lam", 0.0),
            ("lam", 1.0),
            ("m_search", 0),
            ("m_confirm", -3),
            ("margin_threshold", 0.0),
        ],
    )
    def test_constructor_validation(self, field, value):
        with pytest.raises(cb.ValidationError):
            dataclasses.replace(WP_10, **{field: value})

    @pytest.mark.parametrize("params,message", [
        (cb.BoundParams.uniform(10, -1.0, 2.0, 0.4, 0.3), "needs a_i = 0 and b = 1"),
        (cb.BoundParams(10, (0.0,) * 10, 1.0, (0.4,) * 9 + (0.5,), 0.3), "one c for every"),
        (cb.BoundParams.boolean(10, 0.0, 0.3), "needs c > 0"),
        (cb.BoundParams.boolean(10, 0.4, 0.0), "needs t > 0"),
    ])
    def test_problems_detection_cannot_take(self, params, message):
        with pytest.raises(cb.ValidationError, match=message):
            dataclasses.replace(WP_10, params=params)

    def test_problem_fields_read_params(self):
        assert WP_10.params == cb.BoundParams.boolean(10, 0.4, 0.3)
        assert (WP_10.n, WP_10.c, WP_10.t, WP_10.alpha) == (10, 0.4, 0.3, ALPHA_10)


class TestWitnessReport:
    def test_found_requires_consistent_fields(self):
        with pytest.raises(cb.ValidationError, match="non-empty subset"):
            cb.WitnessReport("found", (), 0.5, 0.4, 0.01, 10, 1)
        with pytest.raises(cb.ValidationError, match="empirical_moment > threshold"):
            cb.WitnessReport("found", (0,), 0.3, 0.4, 0.01, 10, 1)

    def test_not_found_forbids_subset(self):
        with pytest.raises(cb.ValidationError, match="must not name"):
            cb.WitnessReport("not_found", (1,), 0.5, 0.4, 0.01, 10, 1)

    def test_verdict_vocabulary(self):
        with pytest.raises(cb.ValidationError, match="verdict"):
            cb.WitnessReport("maybe", (), 0.0, 0.0, 0.0, 1, 0)

    def test_subset_coerced_to_ints(self):
        rep = cb.WitnessReport("found", (np.int64(2), np.int64(0)), 0.9, 0.5, 0.01, 10, 1)
        assert rep.subset == (2, 0)
        assert all(type(i) is int for i in rep.subset)


class TestDetectionOnDependentModel:
    def test_fully_shared_bits_are_caught(self):
        # ten copies of one Bernoulli(0.7) bit: every subset product is 0.7,
        # wildly above 0.4^|S| for |S| >= 2
        model = cb.PlantedCliqueModel(10, 0.7, k=10)
        report = cb.find_dependent_set(model, WP_10, seed=0)
        assert report.verdict == "found"
        assert len(report.subset) >= 2
        assert report.note == ""
        assert report.samples_used == WP_10.m_search + WP_10.m_confirm
        assert report.candidates >= 1
        # every subset of identical coordinates has exact moment 0.7
        gap = report.empirical_moment - report.threshold
        assert gap >= CONFIRM_Z * report.confirm_std_error
        assert abs(report.empirical_moment - 0.7) < 5 * report.confirm_std_error

    def test_confirmation_matches_exact_moment(self):
        model = cb.PlantedCliqueModel(10, 0.7, k=10)
        report = cb.find_dependent_set(model, WP_10, seed=0)
        exact = cb.exact_moment(model, report.subset)
        assert exact == pytest.approx(0.7, rel=1e-12)
        assert abs(report.empirical_moment - exact) < 5 * report.confirm_std_error

    def test_single_variable_with_inflated_mean(self):
        wp = cb.default_budgets(1, 0.4, 0.3, 0.9)
        report = cb.find_dependent_set(cb.BooleanIIDModel(1, 0.7), wp, seed=0)
        assert report.verdict == "found"
        assert report.subset == (0,)
        assert report.threshold == pytest.approx(0.4 + wp.margin_threshold)


class TestDetectionOnNullModel:
    @pytest.mark.parametrize("seed", range(5))
    def test_independent_variables_stay_clean(self, seed):
        report = cb.find_dependent_set(cb.BooleanIIDModel(10, 0.4), WP_10, seed=seed)
        assert report.verdict == "not_found"
        assert report.subset == ()
        assert report.candidates > 0

    def test_rejected_candidate_is_described(self):
        wp = cb.default_budgets(3, 0.5, 0.25, 0.9)
        report = cb.find_dependent_set(cb.BooleanIIDModel(3, 0.5), wp, seed=0)
        assert report.verdict == "not_found"
        assert "did not clear" in report.note
        assert report.candidates > 0
        assert report.empirical_moment > 0.0
        assert report.samples_used == wp.m_search + wp.m_confirm


class TestDetectionMechanics:
    def test_same_seed_same_report(self):
        model = cb.PlantedCliqueModel(10, 0.7, k=10)
        assert cb.find_dependent_set(model, WP_10, seed=3) == cb.find_dependent_set(
            model, WP_10, seed=3
        )

    def test_worker_count_never_changes_report(self):
        model = cb.PlantedCliqueModel(10, 0.7, k=10)
        runs = [cb.find_dependent_set(model, WP_10, seed=0, workers=w) for w in (1, 4)]
        assert runs[0] == runs[1]
        null_runs = [
            cb.find_dependent_set(cb.BooleanIIDModel(10, 0.4), WP_10, seed=2, workers=w)
            for w in (1, 4)
        ]
        assert null_runs[0] == null_runs[1]

    def test_seed_moves_the_candidate(self):
        model = cb.PlantedCliqueModel(10, 0.7, k=10)
        a = cb.find_dependent_set(model, WP_10, seed=0)
        b = cb.find_dependent_set(model, WP_10, seed=1)
        assert a.verdict == b.verdict == "found"
        assert a.subset != b.subset or a.empirical_moment != b.empirical_moment

    def test_no_candidate_when_min_rounds_unreachable(self):
        wp = dataclasses.replace(
            cb.default_budgets(3, 0.5, 0.25, 0.9), m_search=50, m_confirm=10
        )
        report = cb.find_dependent_set(
            cb.BooleanIIDModel(3, 0.5), wp, seed=0, min_rounds_per_subset=51
        )
        assert report.verdict == "not_found"
        assert report.candidates == 0
        assert report.samples_used == 50  # confirmation never ran
        assert "no non-empty subset" in report.note

    def test_out_of_range_samples_rejected(self):
        model = cb.ExplicitTableModel([([1.5, 0.5], 1.0)])
        wp = cb.default_budgets(2, 0.5, 0.25, 0.9)
        with pytest.raises(cb.ValidationError, match=r"leave \[a_i, a_i \+ b\]"):
            cb.find_dependent_set(model, wp, seed=0)

    def test_argument_validation(self):
        model = cb.BooleanIIDModel(3, 0.5)
        wp = cb.default_budgets(3, 0.5, 0.25, 0.9)
        with pytest.raises(cb.ValidationError, match="does not match"):
            cb.find_dependent_set(cb.BooleanIIDModel(4, 0.5), wp)
        with pytest.raises(cb.ValidationError):
            cb.find_dependent_set(model, wp, workers=0)
        with pytest.raises(cb.ValidationError):
            cb.find_dependent_set(model, wp, block_size=0)
        with pytest.raises(cb.ValidationError):
            cb.find_dependent_set(model, wp, min_rounds_per_subset=0)


class TestCandidatePool:
    def test_two_word_keys_find_the_planted_block(self):
        # n = 70 with the planted block 60..67.  With c = p only sets holding
        # two block members beat c^|S|; at lam = 2/n about one pool set in
        # forty holds a block pair, and every pool set gets about 400 rounds.
        block = tuple(range(60, 68))
        model = cb.PlantedCliqueModel(70, 0.3, indices=block)
        wp = cb.WitnessParams(params=cb.BoundParams.boolean(70, 0.3, 0.3), alpha=0.5, lam=2 / 70,
                              m_search=200_000, m_confirm=5_000, margin_threshold=0.01)
        runs = [cb.find_dependent_set(model, wp, seed=0, workers=w, min_rounds_per_subset=20)
                for w in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0].verdict == "found"
        assert len(runs[0].subset) >= 2 and set(runs[0].subset) <= set(block)

    @pytest.mark.parametrize("n,lam", [(1, 0.3), (3, 0.05), (8, 0.5), (9, 0.9), (65, 0.02),
                                       (130, 0.003)])
    def test_pool_keeps_first_draws_of_distinct_nonempty_sets(self, n, lam):
        rng = mc_engine.block_rng(4, WITNESS_POOL_TAG, 0)
        want = []
        for row in rng.random((300, n)) < lam:
            if row.any() and not any(np.array_equal(row, kept) for kept in want):
                want.append(row)
        got = witness._pool(4, n, lam, 300)
        assert got.dtype == bool and got.shape == (len(want), n)
        assert np.array_equal(got, np.array(want).reshape(-1, n))

    @pytest.mark.parametrize("m_search,min_rounds,k", [(100, 50, 2), (5000, 5, CANDIDATES),
                                                      (40, 7, 5)])
    def test_pool_leaves_each_candidate_min_rounds(self, m_search, min_rounds, k):
        # At most m_search // min_rounds sets, so rounds r mod K give each
        # candidate at least min_rounds of the m_search rounds.
        wp = dataclasses.replace(WP_10, m_search=m_search, m_confirm=100)
        report = cb.find_dependent_set(cb.BooleanIIDModel(10, 0.4), wp, seed=5,
                                       min_rounds_per_subset=min_rounds)
        assert report.candidates == len(witness._pool(5, 10, wp.lam, k)) <= k
        assert report.candidates * min_rounds <= m_search

    def test_pinned_reports(self):
        # Exact reports frozen from the search that scores a pool of 512
        # lam-law draws (263 and 273 distinct non-empty sets at n = 10) by
        # prod_{i in S} x_i and confirms with the merged mean and standard
        # error of prod_{i in S} x_i, with 0/1 models drawing one random byte
        # per coin; block_size 3000 leaves a partial last block in both phases.
        found = cb.find_dependent_set(
            cb.PlantedCliqueModel(10, 0.7, k=10), WP_10, seed=0, block_size=3000
        )
        assert found == cb.WitnessReport(
            "found", (1, 2, 3, 4, 5, 6, 7, 9), 0.6981, 0.0006553600000000003,
            0.003246281937435636, 70_000, 263,
        )
        null = cb.find_dependent_set(cb.BooleanIIDModel(10, 0.4), WP_10, seed=2, block_size=3000)
        assert null == cb.WitnessReport(
            "not_found", (), 0.02525, 0.025600000000000005, 0.0011093617125042935, 70_000, 273,
            note="best candidate [1, 2, 5, 6] (search excess 0.0235803) did not clear "
            "c^|S| + margin = 0.0256 on fresh samples",
        )


class TestSearchScalesInN:
    """Planted blocks found at n = 30 and 60 under the default budgets of
    the ``detect`` benchmark flags (c = 0.4, t = 0.3, alpha = 0.16), where
    grouping rounds by the index set drawn found them in 0-2 of 20 seeds.
    At p = c only sets with two or more block members have any excess."""

    @pytest.mark.parametrize("n,k,p", [(30, 10, 0.7), (60, 60, 0.7), (30, 30, 0.4),
                                       (60, 60, 0.4)])
    def test_planted_block_is_found(self, n, k, p):
        model = cb.PlantedCliqueModel(n, p, k=k)
        wp = cb.default_budgets(n, 0.4, 0.3, 0.16)
        found = 0
        for seed in range(20):
            report = cb.find_dependent_set(model, wp, seed=seed)
            if report.verdict == "not_found":
                continue
            found += 1
            j = len(set(report.subset) & set(model.indices))
            moment = p ** (1 + len(report.subset) - j) if j else p ** len(report.subset)
            assert cb.exact_moment(model, report.subset) == pytest.approx(moment, rel=1e-12)
            assert moment > wp.c ** len(report.subset) + wp.margin_threshold
            assert j >= 2 or p != wp.c
        assert found >= 18

    def test_independent_null_stays_clean(self):
        wp = cb.default_budgets(30, 0.4, 0.3, 0.16)
        model = cb.BooleanIIDModel(30, 0.4)
        flagged = [seed for seed in range(100)
                   if cb.find_dependent_set(model, wp, seed=seed).verdict == "found"]
        assert len(flagged) <= 5, flagged


def _chunked_rows(model, tag, seed, block_size, total):
    """Per block, the generator and the model rows of each chunk, drawn by
    ``sample_many`` in chunks of ESTIMATE_CHUNK // n rows."""
    rows = max(1, mc_engine.ESTIMATE_CHUNK // model.n)
    for b in range(-(-total // block_size)):
        rng = mc_engine.block_rng(seed, tag, b)
        m = min(block_size, total - b * block_size)
        yield rng, (model.sample_many(rng, min(rows, m - s)) for s in range(0, m, rows))


def _rebuilt_report(model, wp, seed, block_size, min_rounds):
    """find_dependent_set rebuilt by hand from its streams: the pool drawn
    one set per row of uniforms, repeats and empty sets dropped; per block, a
    dict of each pool set's count and explicit products prod_{i in S} x_i
    over the rounds that score it (round r, counted across blocks, scores
    pool set r mod K), added in block order; then the merged mean and
    standard error of prod_{i in S} x_i over fresh rows."""
    rng = mc_engine.block_rng(seed, WITNESS_POOL_TAG, 0)
    pool: list[tuple[int, ...]] = []
    for _ in range(min(CANDIDATES, wp.m_search // min_rounds)):
        key = tuple(int(i) for i in np.flatnonzero(rng.random(model.n) < wp.lam))
        if key and key not in pool:
            pool.append(key)
    totals = {key: [0, 0.0] for key in pool}
    r = 0
    for _, chunks in _chunked_rows(model, WITNESS_SEARCH_TAG, seed, block_size, wp.m_search):
        block = {key: [0, 0.0] for key in pool}
        for x in chunks:
            for row in x:
                key = pool[r % len(pool)]
                mask = np.zeros(model.n, dtype=bool)
                mask[list(key)] = True
                block[key][0] += 1
                block[key][1] += float(np.prod(np.where(mask, row, 1.0)))
                r += 1
        for key, (count, weight) in block.items():
            totals[key][0] += count
            totals[key][1] += weight
    assert all(count >= min_rounds for count, _ in totals.values())
    scored = [(weight / count - wp.c ** len(key), key) for key, (count, weight) in totals.items()]
    score, best = min(scored, key=lambda item: (-item[0], len(item[1]), item[1]))

    count, mean, m2 = 0, 0.0, 0.0
    for _, chunks in _chunked_rows(model, WITNESS_CONFIRM_TAG, seed, block_size, wp.m_confirm):
        w = np.concatenate([np.prod(x[:, list(best)], axis=1) for x in chunks])
        k, k_mean = len(w), float(w.mean())
        delta = k_mean - mean
        mean = (count * mean + k * k_mean) / (count + k)
        m2 += float(np.sum(np.square(w - k_mean))) + delta * delta * (count * k / (count + k))
        count += k
    se = math.sqrt(m2 / (count - 1) / count)
    threshold = wp.c ** len(best) + wp.margin_threshold
    fields = dict(empirical_moment=mean, threshold=threshold, confirm_std_error=se,
                  samples_used=wp.m_search + wp.m_confirm, candidates=len(pool))
    if mean > threshold and mean - threshold >= CONFIRM_Z * se:
        return cb.WitnessReport("found", best, **fields)
    return cb.WitnessReport(
        "not_found", (), **fields,
        note=f"best candidate {list(best)} (search excess {score:.6g}) did not clear "
        f"c^|S| + margin = {threshold:.6g} on fresh samples",
    )


def _real_valued_table(seed, shared):
    """A 4-variable explicit table: with ``shared``, 24 random rows on
    [0, 1] and 8 more whose four values are equal; without, 24 random rows
    on [0, 0.6], whose means lie below c = 0.4."""
    rng = np.random.default_rng(seed)
    rows = rng.random((24, 4)).tolist()
    if shared:
        rows += [[v] * 4 for v in rng.random(8).tolist()]
    else:
        rows = (0.6 * np.array(rows)).tolist()
    weights = rng.random(len(rows))
    return cb.ExplicitTableModel(list(zip(rows, (weights / weights.sum()).tolist())))


def _near_one_table(seed):
    """An 8-variable explicit table of 24 random rows on [0.97, 1]: every
    product mean is close to 1 while c^|S| halves per member at c = 0.5, so
    the search's best sets have five or more members."""
    rng = np.random.default_rng(seed)
    rows = 0.97 + 0.03 * rng.random((24, 8))
    weights = rng.random(len(rows))
    return cb.ExplicitTableModel(list(zip(rows.tolist(), (weights / weights.sum()).tolist())))


class TestRebuiltByHand:
    """The witness on a real-valued table is its streams, integrated over
    the Bernoulli layer: the pool's uniforms, the chunk kernel's rows, and
    explicit per-round products."""

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_rebuilt_from_block_streams(self, workers, shared):
        # Blocks of 17000 rows hold a full chunk (16384 rows at n = 4) and a
        # partial one; the last block of each phase is partial.
        model = _real_valued_table(3, shared)
        wp = cb.WitnessParams(params=cb.BoundParams.boolean(4, 0.4, 0.3), alpha=0.5, lam=0.6,
                              m_search=40_000, m_confirm=20_000, margin_threshold=0.01)
        assert mc_engine.ESTIMATE_CHUNK // model.n == 16384
        got = cb.find_dependent_set(model, wp, seed=7, workers=workers, block_size=17_000)
        assert got == _rebuilt_report(model, wp, 7, 17_000, DEFAULT_MIN_ROUNDS)
        assert got.candidates == 15
        assert got.verdict == ("found" if shared else "not_found")

    def test_long_real_valued_products_rebuilt_from_block_streams(self):
        # Products of five or more values that are not 0/1 depend on the
        # order of their factors, so the confirm phase must multiply the
        # chosen rows left to right, as np.prod does.  Blocks of 17000 rows
        # hold two full chunks (8192 rows at n = 8) and a partial one.
        model = _near_one_table(0)
        wp = cb.WitnessParams(params=cb.BoundParams.boolean(8, 0.5, 0.3), alpha=0.5, lam=0.75,
                              m_search=40_000, m_confirm=20_000, margin_threshold=0.01)
        got = cb.find_dependent_set(model, wp, seed=7, block_size=17_000)
        assert got == _rebuilt_report(model, wp, 7, 17_000, DEFAULT_MIN_ROUNDS)
        assert got.verdict == "found" and len(got.subset) >= 5

    def test_wide_model_rebuilt_from_block_streams(self):
        # n = 70 with the planted block 60..67 and lam = 2/70, so a few pool
        # sets hold a block pair.  Blocks of 7000 rows hold seven full chunks
        # (936 rows at n = 70) and a partial one; the last block is partial.
        model = cb.PlantedCliqueModel(70, 0.3, indices=range(60, 68))
        wp = cb.WitnessParams(params=cb.BoundParams.boolean(70, 0.3, 0.3), alpha=0.5, lam=2 / 70,
                              m_search=30_000, m_confirm=5_000, margin_threshold=0.01)
        got = cb.find_dependent_set(model, wp, seed=1, block_size=7_000, min_rounds_per_subset=3)
        assert got == _rebuilt_report(model, wp, 1, 7_000, 3)
        assert got.verdict == "found" and set(got.subset) <= set(range(60, 68))


def _bernoulli_form(report, m):
    """The standard error of a mean of m 0/1 hits: sqrt((h - h^2/m)/(m-1)/m)."""
    h = report.empirical_moment * m
    return math.sqrt((h - h * h / m) / (m - 1) / m)


class TestConfirmStdError:
    @pytest.mark.parametrize("model,seed", [
        (cb.PlantedCliqueModel(10, 0.7, k=10), 0),
        (cb.BooleanIIDModel(10, 0.4), 2),
        (cb.PlantedCliqueModel(10, 0.5, indices=(1, 4, 8)), 5),
    ])
    def test_boolean_models_give_the_bernoulli_form(self, model, seed):
        report = cb.find_dependent_set(model, WP_10, seed=seed, block_size=3000)
        assert report.candidates > 0
        assert report.confirm_std_error == pytest.approx(
            _bernoulli_form(report, WP_10.m_confirm), rel=1e-12, abs=0.0
        )

    def test_real_valued_model_is_strictly_below_the_bernoulli_form(self):
        model = cb.ExchangeableMixtureModel(10, 0.3, [(0.2, 0.5), (0.9, 0.5)])
        report = cb.find_dependent_set(model, WP_10, seed=1)
        assert report.candidates > 0 and 0.0 < report.confirm_std_error
        assert report.confirm_std_error < _bernoulli_form(report, WP_10.m_confirm)


class TestRealValuedDetection:
    def test_mixture_is_found(self):
        thirds = [(0.0, 1 / 3), (0.5, 1 / 3), (1.0, 1 / 3)]
        model = cb.ExchangeableMixtureModel(10, 0.5, thirds)
        found = 0
        for seed in range(20):
            report = cb.find_dependent_set(model, WP_10, seed=seed)
            if report.verdict == "found":
                found += 1
                exact = cb.exact_moment(model, report.subset)
                assert exact > WP_10.c ** len(report.subset) + WP_10.margin_threshold
        assert found >= 18

    def test_independent_null_stays_clean(self):
        marginal = [(0.0, 0.6), (0.5, 0.2), (1.0, 0.2)]
        model = cb.IndependentModel([marginal] * 10)
        flagged = [seed for seed in range(100)
                   if cb.find_dependent_set(model, WP_10, seed=seed).verdict == "found"]
        assert len(flagged) <= 5, flagged


def _traced_peak_mib(model, wp):
    """The traced heap peak of one ``find_dependent_set`` call, in MiB, after
    a small warm-up call has loaded everything the call uses."""
    cb.find_dependent_set(model, dataclasses.replace(wp, m_search=100, m_confirm=100))
    tracemalloc.start()
    try:
        report = cb.find_dependent_set(model, wp)
        return tracemalloc.get_traced_memory()[1] / 2**20, report
    finally:
        tracemalloc.stop()


class TestSearchMemory:
    """The search holds one pool of at most ``CANDIDATES`` index sets and
    the buffers of one block.  Concatenating every block's tally of drawn
    sets for the cross-block merge peaked at 4.4 MiB and 32.0 MiB on these
    shapes."""

    def test_benchmark_null_shape(self):
        wp = cb.default_budgets(30, 0.4, 0.3, 0.16)
        peak, report = _traced_peak_mib(cb.BooleanIIDModel(30, 0.3), wp)
        assert report.candidates == CANDIDATES
        assert peak <= 3.0

    def test_every_drawn_set_distinct(self):
        # 512 pool sets of about 57 of 80 variables, none repeated, each
        # scored on about 780 of 400,000 search rounds.
        wp = dataclasses.replace(cb.default_budgets(80, 0.4, 0.3, 0.16), m_search=400_000)
        peak, report = _traced_peak_mib(cb.BooleanIIDModel(80, 0.3), wp)
        assert report.candidates == CANDIDATES
        assert peak <= 22.0
