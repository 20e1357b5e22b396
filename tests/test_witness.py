"""Budget resolution and the two-phase dependent-subset detector."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound import mc_engine
from chbound.entropy_core import DEFAULT_MIN_ROUNDS, kl_div
from chbound.mc_engine import WITNESS_CONFIRM_TAG, WITNESS_SEARCH_TAG
from chbound.witness import (CONFIRM_Z, LAMBDA_CAP, _best_candidate, _bits, _bucket_width,
                             _pack, _tally)


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


def _dict_tally_reference(blocks, c, min_rounds):
    """The per-row dict tally that ``_best_candidate`` streams."""
    tally: dict[bytes, list[int]] = {}
    for subsets, counts, hits in blocks:
        for row, cnt, hit in zip(subsets, counts, hits):
            entry = tally.setdefault(row.tobytes(), [0, 0])
            entry[0] += int(cnt)
            entry[1] += int(hit)
    candidates = []
    for key, (count, hit) in tally.items():
        mask = np.frombuffer(key, dtype=np.bool_)
        subset = tuple(int(i) for i in np.nonzero(mask)[0])
        if not subset or count < min_rounds:
            continue
        candidates.append((hit / count - c ** len(subset), subset))
    if not candidates:
        return 0, 0.0, ()
    score, best = min(candidates, key=lambda item: (-item[0], len(item[1]), item[1]))
    return len(candidates), score, best


def _unique_tally_reference(rows, counts, hits):
    """The ``np.unique(axis=0)`` + ``bincount`` tally that ``_tally`` replaces."""
    keys, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n = len(keys)
    return (keys, np.bincount(inverse, weights=counts, minlength=n),
            np.bincount(inverse, weights=hits, minlength=n))


def _keys(rows):
    """The word-major index-set keys of boolean rows, packed by ``_pack``
    from a copy zero-padded to whole bytes."""
    m, n = rows.shape
    bits = np.zeros((m, -(-n // 8) * 8), dtype=bool)
    bits[:, :n] = rows
    pad = np.zeros((m, -(-n // 64) * 8), dtype=np.uint8)
    keys = np.empty((pad.shape[1] // 8, m), dtype=np.uint64)
    _pack(bits, pad, keys)
    return keys


def _key_blocks(blocks):
    """Per-block (rows, counts, hits) with the rows replaced by their keys,
    one block at a time."""
    return ((_keys(rows), counts, hits) for rows, counts, hits in blocks)


def _search_width(blocks):
    """``find_dependent_set``'s bucket width for the blocks' total rounds
    over their n columns."""
    return _bucket_width(int(sum(counts.sum() for _, counts, _ in blocks)), blocks[0][0].shape[1])


@st.composite
def _tally_inputs(draw):
    # Rows are drawn from a small pool of base rows with at most one flipped
    # column each, so equal rows and rows differing in one bit are common at
    # every n up to 130 (three 64-bit key words).
    n = draw(st.integers(min_value=1, max_value=130))
    pool = [
        [bool(key >> j & 1) for j in range(n)]
        for key in draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=4))
    ]
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.integers(min_value=1, max_value=12))
        rows = np.empty((m, n), dtype=bool)
        for i in range(m):
            rows[i] = draw(st.sampled_from(pool))
            flip = draw(st.integers(min_value=-1, max_value=n - 1))
            if flip >= 0:
                rows[i, flip] = not rows[i, flip]
        counts = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        hits = [draw(st.integers(0, cnt)) for cnt in counts]
        blocks.append((rows, np.array(counts, dtype=np.float64), np.array(hits, dtype=np.float64)))
    return blocks


def _boundary_blocks(n):
    """Two blocks at width n of rows that differ from one base row in column
    0, the last column, or columns 7, 8, 63, 64, 127 or 128 (the edges of the
    first byte and of each word), each row drawn three times."""
    rng = np.random.default_rng(n)
    base = rng.random(n) < 0.5
    flips = (0, n - 1, 7, 8, 63, 64, 127, 128)
    rows = [base.copy() for _ in range(len(flips) + 1)]
    for row, col in zip(rows[1:], flips):
        row[min(col, n - 1)] = not row[min(col, n - 1)]
    rows = np.array(rows * 3)
    counts = np.arange(1.0, len(rows) + 1)
    hits = np.minimum(counts, rng.integers(0, 7, len(rows)).astype(np.float64))
    half = len(rows) // 2
    return [(rows[:half], counts[:half], hits[:half]), (rows[half:], counts[half:], hits[half:])]


_TALLY_WIDTHS = (1, 8, 9, 63, 64, 65, 128, 129)
_TALLY_EXAMPLES = [_boundary_blocks(n) for n in _TALLY_WIDTHS]


def _with_boundary_examples(**fixed):
    """Hypothesis ``@example`` decorators for each boundary width."""
    def decorate(test):
        for blocks in _TALLY_EXAMPLES:
            test = example(blocks=blocks, **fixed)(test)
        return test
    return decorate


class TestVectorisedTally:
    @pytest.mark.parametrize("n", _TALLY_WIDTHS)
    def test_keys_put_column_zero_at_the_top(self, n):
        rows = np.random.default_rng(n).random((5, n)) < 0.5
        keys = _keys(rows)
        assert keys.dtype == np.uint64 and keys.shape == (-(-n // 64), 5)
        for w, word in enumerate(keys):
            for i, key in enumerate(word):
                columns = range(64 * w, min(64 * w + 64, n))
                assert int(key) == sum(1 << (63 - j % 64) for j in columns if rows[i, j])
        assert np.array_equal(_bits(keys)[:, :n], rows) and not _bits(keys)[:, n:].any()

    # width None is the search's own; at 1 or 2 bits most sets share a bucket
    # with others, so heavy buckets hold light sets that the merge must drop.
    @pytest.mark.parametrize("width", [None, 1, 2])
    @settings(max_examples=300, deadline=None)
    @_with_boundary_examples(c=0.4, min_rounds=2)
    @given(
        _tally_inputs(),
        st.sampled_from([0.25, 0.4, 0.5, 0.7]),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_dict_tally(self, width, blocks, c, min_rounds):
        got = _best_candidate(_key_blocks(blocks), c, min_rounds, width or _search_width(blocks))
        assert got == _dict_tally_reference(blocks, c, min_rounds)
        assert all(type(i) is int for i in got[2])

    @settings(max_examples=300, deadline=None)
    @_with_boundary_examples()
    @given(_tally_inputs())
    def test_packed_tally_matches_unique_rows(self, blocks):
        rows, counts, hits = (np.concatenate(part) for part in zip(*blocks))
        keys, *sums = _tally(_keys(rows), counts, hits)
        want_rows, *want_sums = _unique_tally_reference(rows, counts, hits)
        assert keys.dtype == np.uint64 and keys.shape == (-(-rows.shape[1] // 64), len(want_rows))
        assert np.array_equal(_bits(keys)[:, : rows.shape[1]], want_rows)
        for g, w in zip(sums, want_sums):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)

    def test_two_word_keys_find_the_planted_block(self):
        # n = 70 packs each index set into two 64-bit words; the planted
        # block straddles the word boundary.  With c = p only sets holding two
        # block members beat c^|S|, and lam = 2/n makes pairs the likeliest
        # index sets, so each block pair is drawn about 23 times.
        block = tuple(range(60, 68))
        model = cb.PlantedCliqueModel(70, 0.3, indices=block)
        wp = cb.WitnessParams(params=cb.BoundParams.boolean(70, 0.3, 0.3), alpha=0.5, lam=2 / 70,
                              m_search=200_000, m_confirm=5_000, margin_threshold=0.01)
        runs = [cb.find_dependent_set(model, wp, seed=0, workers=w, min_rounds_per_subset=20)
                for w in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0].verdict == "found"
        assert len(runs[0].subset) >= 2 and set(runs[0].subset) <= set(block)

    def test_pinned_reports(self):
        # Exact reports frozen from the kernel that scores each search round
        # by prod_{i in I} x_i and confirms with the merged mean and standard
        # error of prod_{i in S} x_i, with 0/1 models drawing one random byte
        # per coin; block_size 3000 leaves a partial last block in both phases.
        found = cb.find_dependent_set(
            cb.PlantedCliqueModel(10, 0.7, k=10), WP_10, seed=0, block_size=3000
        )
        assert found == cb.WitnessReport(
            "found", (2, 3, 4, 5, 7), 0.6981, 0.010240000000000003,
            0.003246281937435636, 70_000, 841,
        )
        null = cb.find_dependent_set(cb.BooleanIIDModel(10, 0.4), WP_10, seed=2, block_size=3000)
        assert null == cb.WitnessReport(
            "not_found", (), 0.02575, 0.025600000000000005, 0.0011200042836881357, 70_000, 836,
            note="best candidate [2, 6, 8, 9] (search excess 0.1744) did not clear "
            "c^|S| + margin = 0.0256 on fresh samples",
        )


def _chunked_rows(model, tag, seed, block_size, total):
    """Per block, the generator and the model rows of each chunk, drawn by
    ``sample_many`` in chunks of ESTIMATE_CHUNK // n rows."""
    rows = max(1, mc_engine.ESTIMATE_CHUNK // model.n)
    for b in range(-(-total // block_size)):
        rng = mc_engine.block_rng(seed, tag, b)
        m = min(block_size, total - b * block_size)
        yield rng, (model.sample_many(rng, min(rows, m - s)) for s in range(0, m, rows))


def _rebuilt_report(model, wp, seed, block_size, min_rounds):
    """find_dependent_set rebuilt from the block streams: a dict tally of
    per-round products prod_{i in I} x_i, then the merged mean and standard
    error of prod_{i in S} x_i over fresh rows."""
    totals: dict[tuple[int, ...], list[float]] = {}
    for rng, chunks in _chunked_rows(model, WITNESS_SEARCH_TAG, seed, block_size, wp.m_search):
        block: dict[tuple[int, ...], list[float]] = {}
        for x in chunks:
            member = rng.random(x.shape) < wp.lam
            for row, mask in zip(x, member):
                key = tuple(int(i) for i in np.flatnonzero(mask))
                entry = block.setdefault(key, [0.0, 0.0])
                entry[0] += 1.0
                entry[1] += float(np.prod(np.where(mask, row, 1.0)))
        for key, (count, weight) in block.items():
            entry = totals.setdefault(key, [0.0, 0.0])
            entry[0] += count
            entry[1] += weight
    scored = [(weight / count - wp.c ** len(key), key)
              for key, (count, weight) in totals.items() if key and count >= min_rounds]
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
                  samples_used=wp.m_search + wp.m_confirm, candidates=len(scored))
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
    """The witness on a real-valued table is its block streams, integrated
    over the Bernoulli layer: the chunk kernel's rows, one uniform per row
    and variable for the index set, and explicit per-round products."""

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

    def test_two_word_keys_rebuilt_from_block_streams(self):
        # n = 70 keys each index set by two 64-bit words.  The planted block
        # 60..67 straddles the word boundary; lam = 2/70 draws each pair a few
        # times in 30000 rounds.  Blocks of 7000 rows hold seven full chunks
        # (936 rows at n = 70) and a partial one; the last block is partial.
        model = cb.PlantedCliqueModel(70, 0.3, indices=range(60, 68))
        wp = cb.WitnessParams(params=cb.BoundParams.boolean(70, 0.3, 0.3), alpha=0.5, lam=2 / 70,
                              m_search=30_000, m_confirm=5_000, margin_threshold=0.01)
        got = cb.find_dependent_set(model, wp, seed=1, block_size=7_000, min_rounds_per_subset=3)
        assert got == _rebuilt_report(model, wp, 1, 7_000, 3)
        assert got.verdict == "found" and set(got.subset) <= set(range(60, 68))
        assert min(got.subset) < 64 <= max(got.subset)


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
    """The search holds each drawn index set once: per-block tallies, bucket
    totals of fixed width, and buffers of whole-byte rows and 128 KB of
    uniforms.  Concatenating every block's tally for the cross-block merge
    peaked at 4.4 MiB and 32.0 MiB on these shapes."""

    def test_benchmark_null_shape(self):
        wp = cb.default_budgets(30, 0.4, 0.3, 0.16)
        peak, report = _traced_peak_mib(cb.BooleanIIDModel(30, 0.3), wp)
        assert report.candidates == 0
        assert peak <= 3.0

    def test_every_drawn_set_distinct(self):
        # 400,000 sets of about 57 of 80 variables: two-word keys, none repeated.
        wp = dataclasses.replace(cb.default_budgets(80, 0.4, 0.3, 0.16), m_search=400_000)
        peak, report = _traced_peak_mib(cb.BooleanIIDModel(80, 0.3), wp)
        assert report.candidates == 0
        assert peak <= 22.0
