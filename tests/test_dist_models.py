"""Exact enumeration, moments, tails, certificates, and spec parsing."""

import inspect
import itertools
import json
import math
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound import dist_models
from chbound.cli import main
from chbound.entropy_core import slack
from conftest import (
    distinct_sums_model,
    enumerate_atoms,
    make_violating_pair,
    make_zoo,
    reference_coins,
    reference_sample_many,
)

ZOO = make_zoo()
ZOO_IDS = [name for name, _, _ in ZOO]


def _enumerated_sum_law(model):
    """The law of the coordinate sum from the enumerated support: distinct
    atom sums (np.unique) and their probabilities, added in atom order."""
    values, probs = enumerate_atoms(model)
    sums, inverse = np.unique(values.sum(axis=1), return_inverse=True)
    return sums, np.bincount(inverse, weights=probs)


@pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
def test_support_probabilities_sum_to_one(name, model, params):
    sums, probs = model.sum_support()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= 0.0)
    assert np.all(np.diff(sums) > 0.0)
    assert len(probs) == len(_enumerated_sum_law(model)[0])


@pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
def test_sum_support_matches_chunked_enumeration(name, model, params):
    sums, probs = model.sum_support()
    ref_sums, ref_probs = _enumerated_sum_law(model)
    assert len(sums) == len(ref_sums)
    np.testing.assert_allclose(sums, ref_sums, rtol=1e-12)
    np.testing.assert_allclose(probs, ref_probs, rtol=1e-12)


class TestExactMoment:
    def test_independent_is_product_of_means(self):
        model = cb.IndependentModel(
            [[(0.0, 0.5), (1.0, 0.5)], [(0.2, 0.25), (0.6, 0.75)], [(1.0, 1.0)]]
        )
        means = [0.5, 0.2 * 0.25 + 0.6 * 0.75, 1.0]
        assert cb.exact_moment(model, (0,)) == pytest.approx(means[0], rel=1e-12)
        assert cb.exact_moment(model, (0, 1)) == pytest.approx(means[0] * means[1], rel=1e-12)
        assert cb.exact_moment(model, (0, 1, 2)) == pytest.approx(
            means[0] * means[1] * means[2], rel=1e-12
        )

    def test_empty_subset_is_one(self):
        assert cb.exact_moment(cb.BooleanIIDModel(3, 0.2), ()) == 1.0

    def test_planted_block_collapses(self):
        model = cb.PlantedCliqueModel(4, 0.5, k=2)
        # both block members copy one coin: E[X0 X1] = p, not p^2
        assert cb.exact_moment(model, (0, 1)) == pytest.approx(0.5, rel=1e-12)
        assert cb.exact_moment(model, (0, 2)) == pytest.approx(0.25, rel=1e-12)
        assert cb.exact_moment(model, (0, 1, 2, 3)) == pytest.approx(0.125, rel=1e-12)

    def test_exchangeable_mixture_formula(self):
        rho, p, n = 0.2, 0.3, 4
        model = cb.ExchangeableMixtureModel.bernoulli(n, rho, p)
        for size in range(1, n + 1):
            expected = rho * p + (1.0 - rho) * p**size
            assert cb.exact_moment(model, tuple(range(size))) == pytest.approx(
                expected, rel=1e-12
            )

    def test_anti_correlated_cross_moment_vanishes(self):
        model = cb.ExplicitTableModel([([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)])
        assert cb.exact_moment(model, (0, 1)) == 0.0
        assert cb.exact_moment(model, (0,)) == pytest.approx(0.5)

    def test_rejects_bad_subsets(self):
        model = cb.BooleanIIDModel(3, 0.5)
        with pytest.raises(cb.ValidationError):
            cb.exact_moment(model, (0, 0))
        with pytest.raises(cb.ValidationError):
            cb.exact_moment(model, (3,))

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=1.0),
                    st.integers(min_value=1, max_value=5),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_independent_moments_factor(self, raw):
        marginals = []
        for atoms in raw:
            total = sum(w for _, w in atoms)
            marginals.append([(v, w / total) for v, w in atoms])
        model = cb.IndependentModel(marginals)
        means = [sum(v * p for v, p in marg) for marg in marginals]
        subset = tuple(range(len(marginals)))
        assert cb.exact_moment(model, subset) == pytest.approx(
            math.prod(means), abs=1e-12
        )


class TestExactTail:
    def test_binomial_20_frozen_fraction(self):
        model = cb.BooleanIIDModel(20, 0.5, atom_cap=1 << 21)
        # sum_{k=14}^{20} C(20, k) = 60460
        expected = sum(math.comb(20, k) for k in range(14, 21)) / 2**20
        assert expected == 60460 / 1048576
        assert cb.exact_tail(model, 14.0) == pytest.approx(expected, rel=1e-14)

    def test_threshold_tie_counted(self):
        model = cb.BooleanIIDModel(4, 0.5)
        assert cb.exact_tail(model, 2.0) == pytest.approx(11 / 16, rel=1e-12)
        assert cb.exact_tail(model, 2.0 * (1 + 1e-13)) == pytest.approx(11 / 16, rel=1e-12)
        assert cb.exact_tail(model, 2.0 + 1e-9) == pytest.approx(5 / 16, rel=1e-12)
        assert cb.exact_tail(model, 2.0 - 1e-9) == pytest.approx(11 / 16, rel=1e-12)
        with pytest.raises(cb.ValidationError, match="threshold must be finite"):
            cb.exact_tail(model, math.nan)

    def test_extremes(self):
        model = cb.BooleanIIDModel(3, 0.25)
        assert cb.exact_tail(model, -1.0) == 1.0
        assert cb.exact_tail(model, 0.0) == 1.0
        assert cb.exact_tail(model, 3.0) == pytest.approx(0.25**3, rel=1e-12)
        assert cb.exact_tail(model, 3.5) == 0.0

    def test_mixture_top_atom(self):
        rho, p, n = 0.2, 0.3, 4
        model = cb.ExchangeableMixtureModel.bernoulli(n, rho, p)
        assert cb.exact_tail(model, float(n)) == pytest.approx(
            rho * p + (1 - rho) * p**n, rel=1e-12
        )


class TestSampling:
    @pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
    def test_shapes_and_support_membership(self, name, model, params):
        rng = np.random.default_rng(0)
        x = model.sample(rng)
        assert x.shape == (model.n,)
        batch = model.sample_many(rng, 128)
        assert batch.shape == (128, model.n)
        atoms = {tuple(row) for row in enumerate_atoms(model)[0]}
        assert all(tuple(row) in atoms for row in batch)

    @pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
    def test_sample_mean_matches_exact(self, name, model, params):
        rng = np.random.default_rng(42)
        m = 20_000
        batch = model.sample_many(rng, m)
        for i in range(model.n):
            exact = cb.exact_moment(model, (i,))
            se = max(batch[:, i].std(ddof=1) / math.sqrt(m), 1e-9)
            assert abs(batch[:, i].mean() - exact) < 5 * se

    def test_planted_block_is_perfectly_correlated(self):
        model = cb.PlantedCliqueModel(5, 0.5, indices=(1, 4))
        batch = model.sample_many(np.random.default_rng(3), 256)
        assert np.all(batch[:, 1] == batch[:, 4])

    def test_sample_helper(self):
        model = cb.BooleanIIDModel(3, 0.5)
        assert cb.sample(model, np.random.default_rng(0)).shape == (3,)
        assert cb.sample(model, np.random.default_rng(0), size=7).shape == (7, 3)


class TestCertify:
    @pytest.mark.parametrize("name,model,params", ZOO, ids=ZOO_IDS)
    def test_zoo_certificates_hold(self, name, model, params):
        certs = cb.certify_moments(model, params)
        assert len(certs) == 2**model.n
        assert all(c.satisfied for c in certs)

    def test_violating_pair_flagged(self):
        model, params = make_violating_pair()
        certs = cb.certify_moments(model, params)
        failing = [c for c in certs if not c.satisfied]
        assert [c.subset for c in failing] == [(0, 1)]
        assert failing[0].exact_moment == pytest.approx(0.5, rel=1e-12)
        assert failing[0].bound_product == pytest.approx(0.25, rel=1e-12)

    def test_enumeration_order_and_sizes(self):
        model = cb.BooleanIIDModel(3, 0.5)
        certs = cb.certify_moments(model, cb.BoundParams.boolean(3, 0.5, 0.1))
        subsets = [c.subset for c in certs]
        assert subsets == [
            (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
        ]

    def test_max_subset_size_truncates(self):
        model = cb.BooleanIIDModel(5, 0.5)
        certs = cb.certify_moments(
            model, cb.BoundParams.boolean(5, 0.5, 0.1), max_subset_size=2
        )
        assert len(certs) == 1 + 5 + 10

    @pytest.mark.parametrize("size", [2.5, True])
    def test_max_subset_size_must_be_an_integer(self, size):
        model, params = cb.BooleanIIDModel(5, 0.5), cb.BoundParams.boolean(5, 0.5, 0.1)
        with pytest.raises(cb.ValidationError, match="max_subset_size must be an integer"):
            cb.certify_moments(model, params, max_subset_size=size)
        with pytest.raises(cb.ValidationError, match="max_subset_size must be an integer"):
            cb.verify_chain(model, params, 0.5, max_subset_size=size)

    @pytest.mark.parametrize("budget", ["10", None, 0])
    def test_subset_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(cb.ValidationError, match="subset_budget"):
            cb.certify_moments(cb.BooleanIIDModel(2, 0.5), cb.BoundParams.boolean(2, 0.5, 0.1),
                               subset_budget=budget)

    def test_subset_budget_guard(self):
        model = cb.BooleanIIDModel(5, 0.5)
        with pytest.raises(cb.SubsetBudgetError):
            cb.certify_moments(model, cb.BoundParams.boolean(5, 0.5, 0.1), subset_budget=10)

    def test_param_model_shape_mismatch(self):
        with pytest.raises(cb.ValidationError):
            cb.certify_moments(cb.BooleanIIDModel(3, 0.5), cb.BoundParams.boolean(4, 0.5, 0.1))

    @staticmethod
    def _assert_matches_per_subset_reference(model, caps):
        """Combinations order, and moments within 1e-14 of exact_moment."""
        n = model.n
        params = cb.BoundParams(n=n, a=(-1.0,) * n, b=2.0, c=(0.5,) * n, t=0.0)
        for cap in caps:
            certs = cb.certify_moments(model, params, max_subset_size=cap)
            expected = [s for size in range(cap + 1) for s in itertools.combinations(range(n), size)]
            assert [c.subset for c in certs] == expected
            for cert in certs:
                reference = cb.exact_moment(model, cert.subset)
                assert cert.exact_moment == pytest.approx(reference, rel=0.0, abs=1e-14)

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n),
                    st.integers(min_value=0, max_value=5),
                ),
                min_size=1,
                max_size=12,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_table_moments_match_brute_force(self, rows):
        weights = np.array([w for _, w in rows], dtype=np.float64)
        if not weights.any():
            weights[0] = 1.0
        probs = weights / weights.sum()
        model = cb.ExplicitTableModel([(x, p) for (x, _), p in zip(rows, probs)])
        self._assert_matches_per_subset_reference(model, range(model.n + 1))

    @pytest.mark.parametrize(
        "model,caps",
        [
            (cb.PlantedCliqueModel(5, 0.3, indices=(1, 3, 4)), range(6)),
            (cb.ExchangeableMixtureModel(4, 0.35, [(-0.5, 0.2), (0.25, 0.5), (1.0, 0.3)]), range(5)),
            (
                cb.IndependentModel(
                    [[(-0.5, 0.25), (0.5, 0.75)], [(0.1, 0.5), (0.3, 0.25), (0.9, 0.25)], [(0.7, 1.0)]]
                ),
                range(4),
            ),
            (cb.BooleanIIDModel(13, 0.3), [2]),  # 8192 atoms: two certification chunks
        ],
        ids=["planted", "mixture", "independent", "boolean_two_chunks"],
    )
    def test_model_moments_match_brute_force(self, model, caps):
        self._assert_matches_per_subset_reference(model, caps)


class TestFactorTables:
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=n, max_size=n),
                    st.integers(min_value=0, max_value=5),
                ),
                min_size=1,
                max_size=40,
            )
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_explicit_table_is_one_factor(self, atoms, seed):
        weights = np.array([w for _, w in atoms], dtype=np.float64)
        if not weights.any():
            weights[0] = 1.0
        probs = weights / weights.sum()
        rows = np.array([x for x, _ in atoms], dtype=np.float64)
        model = cb.ExplicitTableModel(list(zip(rows.tolist(), probs.tolist())))
        sums, sum_probs = model.sum_support()
        live = probs > 0.0  # the law of the sum holds the rows the model can draw
        ref_sums, inverse = np.unique(rows[live].sum(axis=1), return_inverse=True)
        assert sums.tobytes() == ref_sums.tobytes()
        assert sum_probs.tobytes() == np.bincount(inverse, weights=probs[live]).tobytes()
        draws = np.random.default_rng(seed).choice(len(probs), size=33, p=probs)
        sampled = model.sample_many(np.random.default_rng(seed), 33)
        assert sampled.tobytes() == rows[draws].tobytes()

    @pytest.mark.parametrize(
        "model",
        [
            cb.PlantedCliqueModel(12, 0.5, k=4),
            cb.PlantedCliqueModel(10, 0.4, indices=[1, 4, 8]),
            cb.PlantedCliqueModel(6, 0.7, k=6),
            cb.PlantedCliqueModel(1, 0.3, k=1),
            cb.BooleanIIDModel(7, 0.3),
            cb.BooleanIIDModel(1, 0.6),
            cb.ExchangeableMixtureModel(9, 0.3, [(0.0, 0.25), (0.5, 0.25), (1.0, 0.5)]),
            cb.ExchangeableMixtureModel.bernoulli(1, 0.5, 0.4),
            cb.IndependentModel([[(-0.2, 0.3), (0.1, 0.3), (0.8, 0.4)], [(0.5, 1.0)],
                                 [(0.0, 0.5), (0.25, 0.5)]]),
            cb.ExplicitTableModel([([0.1 * i, 0.3, 0.7 - 0.05 * i], 0.1) for i in range(10)]),
        ],
        ids=["k4", "scattered", "all", "n1", "boolean", "boolean_n1", "mixture_half",
             "mixture_n1", "independent", "table"],
    )
    @pytest.mark.parametrize("size", [1, 5, 1310])
    def test_planted_sampling_keeps_its_stream(self, model, size):
        # Every model kind, despite the name: sample_many, the transpose of
        # _draw, must give the bytes of the row-major sampler it replaced
        # and leave the generator where that sampler left it.
        rng, ref = np.random.default_rng(size), np.random.default_rng(size)
        got = model.sample_many(rng, size)
        want = reference_sample_many(model, ref, size)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "model",
        [model for _, model, _ in ZOO] + [cb.PlantedCliqueModel(10, 0.4, indices=[1, 4, 8])],
        ids=ZOO_IDS + ["planted_scattered"],
    )
    def test_values_are_c_ordered_float64(self, model):
        # Row sums over axis 1 depend on the memory order, so sampled rows
        # must come out C-contiguous.
        values = model.sample_many(np.random.default_rng(0), 9)
        assert values.dtype == np.float64 and values.flags["C_CONTIGUOUS"]

    _COIN = (np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "model",
        [
            cb.BooleanIIDModel(7, 0.3),
            cb.PlantedCliqueModel(12, 0.5, indices=(9, 2, 5, 11)),
            cb.ExchangeableMixtureModel(6, 0.3, [(0.2, 0.5), (0.9, 0.5)]),
            cb.IndependentModel([[(0.0, 0.6), (1.0, 0.4)], [(0.5, 1.0)],
                                 [(0.0, 0.6), (1.0, 0.4)]]),
            cb.ExplicitTableModel([([0.0, 1.0, 0.5], 0.5), ([1.0, 0.0, 0.2], 0.5)]),
            # two-column tables shared by three factors, read in a scattered order
            cb.JointModel(7, [np.eye(2)] * 3 + [_COIN[0]], [_COIN[1]] * 4, [5, 0, 2, 3, 6, 1, 4]),
            cb.JointModel(6, [np.eye(2)] * 3, [_COIN[1]] * 3, [1, 0, 2, 5, 4, 3]),
        ],
        ids=["boolean", "planted_scattered", "mixture", "independent", "table",
             "shared_tables", "shared_reordered"],
    )
    def test_reader_structures_match_the_loops(self, model):
        # The per-variable loops that built the reader structures before they
        # were vectorised: (factor, column) per variable, and each factor's
        # readers and their columns.
        starts = np.cumsum([0] + [fv.shape[1] for fv in model._fvals])
        owner = np.searchsorted(starts, model._vmap, side="right") - 1
        reads = list(zip(owner.tolist(), (model._vmap - starts[owner]).tolist()))
        freads = [([], []) for _ in model._fvals]
        for i, (j, c) in enumerate(reads):
            freads[j][0].append(i)
            freads[j][1].append(c)

        assert model._reads == reads
        assert [tuple(part.tolist() for part in model._factor_reads(j))
                for j in range(len(freads))] == freads


class TestEnumerabilityCap:
    """atom_cap bounds one step of the exact fold: the partial sums times the
    rows of the factor folded in, checked before the step is formed."""

    def test_large_support_fails_fast_but_samples(self):
        # 2^25 atoms, but 26 fold states: boolean n = 25 is exact at the default cap
        assert cb.BooleanIIDModel(25, 0.5).enumerable
        model = distinct_sums_model(25)
        assert not model.enumerable
        with pytest.raises(cb.SupportTooLargeError,
                           match=r"524288 sums x 2 rows of factor 19, over atom_cap=1000000"):
            cb.exact_tail(model, 20.0)
        # the moment routines walk factor rows, not the fold: ungated
        assert cb.exact_moment(model, (0, 3)) == 0.5 * 2.0**-4
        cb.check_support_range(model, cb.BoundParams.boolean(25, 0.5, 0.1))
        assert model.sample_many(np.random.default_rng(0), 8).shape == (8, 25)

    def test_cap_is_configurable(self):
        # boolean n = 20: the last step pairs 20 sums with 2 rows
        assert cb.BooleanIIDModel(20, 0.5, atom_cap=40).enumerable
        assert not cb.BooleanIIDModel(20, 0.5, atom_cap=39).enumerable
        assert not distinct_sums_model(20).enumerable
        assert distinct_sums_model(20, atom_cap=1 << 20).enumerable

    def test_failure_is_cached(self, monkeypatch):
        model = distinct_sums_model(21)
        folds = []
        real = model._fold
        monkeypatch.setattr(model, "_fold", lambda *a: folds.append(a) or real(*a))
        for _ in range(3):
            assert not model.enumerable
            with pytest.raises(cb.SupportTooLargeError):
                model.sum_support()
        assert len(folds) == 1

    def test_over_cap_fold_stops_before_it_allocates(self):
        # Without the check, the fold of 2^40 distinct sums would not fit in memory.
        model = distinct_sums_model(40)
        tracemalloc.start()
        try:
            with pytest.raises(cb.SupportTooLargeError):
                cb.exact_tail(model, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_one_site_raises_the_cap(self):
        # The size limit lives in the fold, not in per-routine gates.
        src = Path(cb.__file__).parent
        sites = [f"{path.name}:{i + 1}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines())
                 if re.search(r"(?<!class )\bSupportTooLargeError\(", line)]
        assert len(sites) == 1 and sites[0].startswith("dist_models.py:")
        assert "SupportTooLargeError(" in inspect.getsource(cb.JointModel._fold_factors)
        for name in ("_require_enumerable", "support_size"):
            assert not hasattr(cb.JointModel, name)


RANGE_A = (0.0, -0.25, -0.5)
RANGE_B = (1.0, 1.5, 0.5)
# where a value sits in [a_i, a_i + b]: inside, at the ends, in the slack
# band (slack(b) / b = 1e-12 on either side), and beyond it
INSIDE = (0.0, 1.0, 0.5, 0.25, -1e-13, 1.0 + 1e-13)
BEYOND = (-1e-11, 1.0 + 1e-11, -0.5, 1.5)


@st.composite
def range_cases(draw):
    """(model, params): factor tables, some shared and read through a
    scattered column map, or a mixture with rho in {0, 0.3, 1}; a_i <= 0 and
    b != 1; values inside [a_i, a_i + b], in its slack band and beyond it,
    and rows of probability 0 anywhere, some far outside."""
    b = draw(st.sampled_from(RANGE_B))
    shifts = draw(st.lists(st.sampled_from(RANGE_A), min_size=1, max_size=2, unique=True))

    def value(units):
        return st.builds(lambda a, u: a + b * u, st.sampled_from(shifts), st.sampled_from(units))

    live = value(INSIDE * 8 + BEYOND)
    dead = st.one_of(value(INSIDE + BEYOND), st.sampled_from([1e200, -1e200]))

    def rows(width):
        weights = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=4)
                       .filter(any))
        table = [draw(st.lists(live if w else dead, min_size=width, max_size=width))
                 for w in weights]
        return np.array(table), np.array(weights) / sum(weights)

    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        values, probs = rows(1)
        model = cb.ExchangeableMixtureModel(n, draw(st.sampled_from([0.0, 0.3, 1.0])),
                                            list(zip(values[:, 0], probs)))
    else:
        tables, probs = [], []
        for _ in range(draw(st.integers(1, 4))):
            if tables and draw(st.booleans()):  # share an earlier factor's table
                k = draw(st.integers(0, len(tables) - 1))
                tables.append(tables[k])
                probs.append(probs[k])
            else:
                for got, into in zip(rows(draw(st.integers(1, 3))), (tables, probs)):
                    into.append(got)
        width = sum(t.shape[1] for t in tables)
        extra = draw(st.lists(st.integers(0, width - 1), max_size=3))
        vmap = draw(st.permutations(list(range(width)) + extra))
        n = len(vmap)
        model = cb.JointModel(n, tables, probs, vmap)
    a = tuple(draw(st.lists(st.sampled_from(shifts), min_size=n, max_size=n)))
    return model, cb.BoundParams(n=n, a=a, b=b, c=tuple(ai + b / 2 for ai in a), t=0.0)


def reference_range(model, params):
    """(error message or None, whether clipped), walking every factor row of
    positive probability and every variable reading it, in Python floats:
    parts of positive weight in order, factors in order, rows in order and a
    row's readers ascending.  Clipped: some such row's image leaves [0, 1]."""
    tol = slack(params.b) / params.b
    clipped = False
    for weight, part in model._parts():
        if weight == 0.0:
            continue
        for j, (table, probs) in enumerate(zip(part._fvals, part._fprobs)):
            readers = [(i, c) for i, (f, c) in enumerate(part._reads) if f == j]
            for row, p in zip(table.tolist(), probs.tolist()):
                if p == 0.0:
                    continue
                for i, c in readers:
                    x, a = row[c], params.a[i]
                    xt = (x - a) / params.b
                    if xt < -tol or xt > 1.0 + tol:
                        return (f"values leave [a_i, a_i + b]: variable {i} takes value {x} "
                                f"outside [{a}, {a + params.b}]"), None
                    clipped = clipped or xt < 0.0 or xt > 1.0
    return None, clipped


class TestCheckSupportRange:
    @settings(max_examples=400, deadline=None)
    @given(range_cases())
    def test_bounds_check_matches_the_row_walk(self, case):
        model, params = case
        message, clipped = reference_range(model, params)
        lam = 0.5
        if message is not None:
            for check in (model._check_range, lambda p: cb.exact_product_expectation(model, lam, p)):
                with pytest.raises(cb.ValidationError) as err:
                    check(params)
                assert str(err.value) == message
            return
        assert model._check_range(params) is clipped
        # The fold weighs each atom of positive probability by its clipped
        # image, and every other atom by 0, however far outside it lies.
        values, probs = enumerate_atoms(model)
        xt = np.clip((values - np.array(params.a)) / params.b, 0.0, 1.0)
        want = math.fsum(p * math.prod(lam * v + 1.0 - lam for v in row)
                         for row, p in zip(xt.tolist(), probs.tolist()) if p > 0.0)
        assert cb.exact_product_expectation(model, lam, params) == pytest.approx(want, rel=1e-12)

    def test_passes_on_matching_params(self, zoo):
        for _, model, params in zoo:
            cb.check_support_range(model, params)

    def test_detects_values_off_the_cube(self):
        model = cb.BooleanIIDModel(2, 0.5)
        squeezed = cb.BoundParams(n=2, a=(0.0, 0.0), b=0.5, c=(0.25, 0.25), t=0.0)
        with pytest.raises(cb.ValidationError, match="variable"):
            cb.check_support_range(model, squeezed)

    def test_ignores_zero_probability_atoms(self, tmp_path, capsys):
        atoms = [([0.5, 0.5], 1.0), ([9.0, 9.0], 0.0)]
        model = cb.ExplicitTableModel(atoms)
        params = cb.BoundParams.boolean(2, 0.5, 0.0)
        cb.check_support_range(model, params)
        # the exact passes enumerate the atom too and must not range-check it
        assert cb.verify_chain(model, params, 0.5).all_passed
        assert cb.exact_product_expectation(model, 0.5, params) == 0.75**2
        spec = tmp_path / "table.json"
        spec.write_text(json.dumps({"kind": "explicit_table", "params": {"support": atoms}}))
        assert main(["verify", "--spec", str(spec), "--c", "0.5", "--t", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["all_passed"]

    def test_range_check_maps_only_a_failing_factor(self):
        # Each variable's least and greatest value decide the check; only the
        # first factor that leaves the range is mapped, to word the error.
        assert cb.BooleanIIDModel(1000, 0.5)._check_range(cb.BoundParams.boolean(1000, 0.5, 0.1)) is False
        assert cb.PlantedCliqueModel(6, 0.5, k=3)._check_range(cb.BoundParams.boolean(6, 0.5, 0.1)) is False
        params = cb.BoundParams(n=4, a=(0.0, -1.0, 0.0, -1.0), b=2.0, c=(0.5,) * 4, t=0.1)
        assert cb.BooleanIIDModel(4, 0.5)._check_range(params) is False
        # the planted block (factor 0, read by variables 1 and 4) leaves the
        # range through variable 4, and so does free variable 5 (factor 4)
        params = cb.BoundParams(n=6, a=(0.0,) * 4 + (-0.5, -0.5), b=1.0, c=(0.25,) * 6, t=0.1)
        with pytest.raises(cb.ValidationError, match=re.escape(
                "variable 4 takes value 1.0 outside [-0.5, 0.5]")):
            cb.PlantedCliqueModel(6, 0.5, indices=[1, 4])._check_range(params)

    def test_shared_table_error_names_the_first_bad_variable(self):
        # variables 0-2 read the coin table inside [0, 1]; variable 3's a_i
        # puts its 1 above the range, and the error names it
        params = cb.BoundParams(n=5, a=(0.0, 0.0, 0.0, -0.5, -0.5), b=1.0, c=(0.25,) * 5, t=0.1)
        with pytest.raises(cb.ValidationError, match=re.escape(
                "variable 3 takes value 1.0 outside [-0.5, 0.5]")):
            cb.check_support_range(cb.BooleanIIDModel(5, 0.5), params)


class TestModelFromSpec:
    def test_boolean_round_trip(self):
        model = cb.model_from_spec({"kind": "boolean_iid", "n": 4, "params": {"p": 0.25}})
        assert isinstance(model, cb.BooleanIIDModel)
        assert model.n == 4 and model.p == 0.25

    def test_independent(self):
        doc = {
            "kind": "independent",
            "n": 2,
            "params": {"marginals": [[[0.0, 0.5], [1.0, 0.5]], [[0.3, 1.0]]]},
        }
        model = cb.model_from_spec(doc)
        assert cb.exact_moment(model, (0, 1)) == pytest.approx(0.15, rel=1e-12)

    def test_planted_with_indices(self):
        doc = {"kind": "planted_clique", "n": 5, "params": {"p": 0.5, "indices": [0, 4]}}
        model = cb.model_from_spec(doc)
        assert model.indices == (0, 4)

    def test_exchangeable_bernoulli_shorthand(self):
        doc = {"kind": "exchangeable_mixture", "n": 3, "params": {"rho": 0.5, "p": 0.2}}
        model = cb.model_from_spec(doc)
        assert cb.exact_moment(model, (0, 1, 2)) == pytest.approx(
            0.5 * 0.2 + 0.5 * 0.2**3, rel=1e-12
        )
        # the same coin given as its atoms
        doc["params"] = {"rho": 0.5, "atoms": [[0.0, 0.8], [1.0, 0.2]]}
        shorthand = cb.ExchangeableMixtureModel.bernoulli(3, 0.5, 0.2).sum_support()
        for got, want in zip(cb.model_from_spec(doc).sum_support(), shorthand):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "atoms",
        [
            [([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)],
            [([1, 2], 0.25), ([0.5, 1.0], 0.5), ([1, 2], 0.25)],
            [([0, 1, 1], 0.0), ([1.5, 2, 0], 0.5), ([2, 2, 2], 0), ([1, 1, 1], 0.5)],
            [([1, 0, 2, 3], 0.125), ([2, 2, 2, 2], 0.875)],
            [([3, 4], 1)],
            [([0.25], 0.5), ([0.25], 0.0), ([-0.75], 0.25), ([0.25], 0.25)],
        ],
        ids=["swapped", "duplicates", "zero_rows", "ints", "one_atom", "one_column"],
    )
    def test_explicit_table_both_entry_forms(self, atoms):
        # {"x", "p"} objects and [x, p] pairs from decoded JSON, and the
        # model's own (vector, p) tuples, fill the same arrays: the rows of
        # positive probability, as float64, in input order.
        def decoded(support):
            return json.loads(json.dumps({"kind": "explicit_table", "params": {"support": support}}))

        models = [
            cb.model_from_spec(decoded([{"x": x, "p": p} for x, p in atoms])),
            cb.model_from_spec(decoded([[x, p] for x, p in atoms])),
            cb.ExplicitTableModel(atoms),
        ]
        kept = [(x, p) for x, p in atoms if p > 0]
        values = np.array([[float(v) for v in x] for x, _ in kept])
        probs = np.array([float(p) for _, p in kept])
        # every row product and mass is a dyadic rational, so the sum is exact
        moment = float(sum(Fraction(p) * math.prod(Fraction(v) for v in x[:2]) for x, p in kept))
        for model in models:
            assert len(model._fvals) == len(model._fprobs) == 1
            assert model._fvals[0].dtype == model._fprobs[0].dtype == np.float64
            assert np.array_equal(model._fvals[0], values)
            assert np.array_equal(model._fprobs[0], probs)
            assert cb.exact_moment(model, range(min(2, model.n))) == moment

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({"kind": "mystery", "n": 2}, "unknown model kind"),
            ({"kind": "boolean_iid", "n": 2, "params": {}}, "missing 'p'"),
            ({"kind": "boolean_iid", "params": {"p": 0.5}}, "missing 'n'"),
            ({"kind": "explicit_table", "params": {"support": []}}, "at least one atom"),
            (
                {"kind": "boolean_iid", "n": 0, "params": {"p": 0.5}},
                "positive integer",
            ),
            (
                {
                    "kind": "independent",
                    "n": 3,
                    "params": {"marginals": [[[0.0, 0.5], [1.0, 0.5]]]},
                },
                "does not match",
            ),
            (
                {
                    "kind": "explicit_table",
                    "n": 2,
                    "params": {"support": [{"x": [0.0, 1.0], "p": 0.7}]},
                },
                "sum to",
            ),
            ({"kind": "explicit_table", "params": {"support": [5]}}, "pairs"),
            ({"kind": "explicit_table", "params": {"support": [{"x": [None], "p": 1.0}]}}, "pairs"),
            ([{"kind": "boolean_iid"}], "model spec must be an object, got list"),
            ({"kind": "boolean_iid", "n": 2, "params": [0.5]}, "'params' must be an object"),
            ({"kind": "explicit_table", "params": {}}, "missing 'support'"),
            (
                json.loads('{"kind": "explicit_table", "params": {"support": [[[Infinity], 1]]}}'),
                "explicit_table factor 0 has non-finite values",
            ),
            # a JSON string is no number, wherever an atom's value or probability goes
            ({"kind": "explicit_table", "params": {"support": [{"x": "01", "p": 1.0}]}}, "pairs"),
            ({"kind": "explicit_table", "params": {"support": [{"x": [0, 1], "p": "1"}]}}, "pairs"),
            ({"kind": "explicit_table", "params": {"support": [{"x": ["1.5", 2], "p": 1}]}},
             "pairs"),
            ({"kind": "explicit_table", "params": {"support": [["01", 1.0]]}}, "pairs"),
            ({"kind": "explicit_table", "params": {"support": ["01"]}}, "pairs"),
            (
                {"kind": "independent", "n": 1, "params": {"marginals": [["01"]]}},
                r"marginals\[0\] must be a list of \[value, prob\] pairs",
            ),
            (
                {"kind": "independent", "n": 1, "params": {"marginals": [[[0.0, "1"]]]}},
                r"marginals\[0\] must be a list of \[value, prob\] pairs",
            ),
            (
                {"kind": "exchangeable_mixture", "n": 2,
                 "params": {"rho": 0.5, "atoms": [["1", 1.0]]}},
                r"atoms must be a list of \[value, prob\] pairs",
            ),
        ],
    )
    def test_rejects_malformed_docs(self, doc, match):
        with pytest.raises(cb.ValidationError, match=match):
            cb.model_from_spec(doc)

    def test_declared_n_must_match_table(self):
        doc = {
            "kind": "explicit_table",
            "n": 3,
            "params": {"support": [{"x": [0.0, 1.0], "p": 1.0}]},
        }
        with pytest.raises(cb.ValidationError, match="does not match"):
            cb.model_from_spec(doc)

    def test_atom_cap_override(self):
        doc = {"kind": "boolean_iid", "n": 20, "params": {"p": 0.5}}
        assert cb.model_from_spec(doc).enumerable
        assert not cb.model_from_spec(doc, atom_cap=39).enumerable
        assert cb.model_from_spec(doc, atom_cap=40).enumerable


@pytest.fixture(scope="module")
def decoded_table():
    """A decoded spec of 16384 random 0/1 atoms over 12 variables, the shape
    of the benchmark's explicit table."""
    rng = random.Random(16384)
    weights = [rng.randint(1, 1000) for _ in range(16384)]
    support = [{"x": [rng.randint(0, 1) for _ in range(12)], "p": w / sum(weights)}
               for w in weights]
    return json.loads(json.dumps({"kind": "explicit_table", "params": {"support": support}}))


class TestTableMemory:
    """Peak traced allocations (NumPy reports its buffers to tracemalloc) in
    units of the table's own bytes, its values and probabilities."""

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_building_holds_only_the_table(self, decoded_table):
        # no per-atom tuples and no second table-sized array (2.0x before)
        model, peak = self._peak(lambda: cb.model_from_spec(decoded_table))
        assert peak <= 1.25 * (model._fvals[0].nbytes + model._fprobs[0].nbytes)

    def test_decoding_holds_little_beside_the_table(self, decoded_table):
        # the spec's {"x", "p"} objects are packed as they are decoded; the
        # decoded doc and the table beside it took 4.96x
        text = json.dumps(decoded_table)
        model, peak = self._peak(lambda: dist_models._model_from_json(text))
        assert model._fvals[0].shape == (16384, 12)
        assert peak <= 2.25 * (model._fvals[0].nbytes + model._fprobs[0].nbytes)

    def test_verify_chain_keeps_one_working_copy(self, decoded_table):
        # one copy of the factor per exact routine (2.9x with two)
        model = cb.model_from_spec(decoded_table)
        params = cb.BoundParams(n=12, a=[0.0] * 12, b=1.0, c=[0.5] * 12, t=0.25)
        lam = cb.optimize_lambda(cb.normalize(params)).lam
        report, peak = self._peak(lambda: cb.verify_chain(model, params, lam))
        assert report.explained
        assert peak <= 2.25 * (model._fvals[0].nbytes + model._fprobs[0].nbytes)


def _outcome(build):
    """(table bytes, probability bytes, width) of the model ``build`` returns,
    or the type and message of what it raises."""
    try:
        model = build()
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
    return model._fvals[0].tobytes(), model._fprobs[0].tobytes(), model.n


_NUMBER = st.sampled_from([0, 1, 2, 0.5, -0.25, 1.5, True])
_VALUE = st.one_of(_NUMBER, st.sampled_from([float("nan"), float("inf"), "1", "0.5", "", None,
                                             [1], [[0.5]], {"x": 1}]))
_ENTRY = {  # how each entry is written, from its vector and probability texts
    "xp": '{{"x": {}, "p": {}}}', "px": '{{"p": {1}, "x": {0}}}', "pair": "[{}, {}]",
    "extra": '{{"x": {}, "p": {}, "w": 0}}', "no_p": '{{"x": {}}}', "no_x": '{{"p": {1}}}',
    "dup": '{{"x": {}, "p": 7, "p": {}}}',
}


@st.composite
def _spec_texts(draw):
    """JSON texts of explicit-table specs (and a few others) whose entries
    take every form the decoder sees; half the tables are well-formed, and
    the others have one entry drawn from any form and any values."""
    width, m = draw(st.sampled_from([0, 1, 2, 2, 3])), draw(st.sampled_from([1, 2, 4]))
    bad = draw(st.sampled_from([None, *range(m)]) if draw(st.booleans()) else st.none())
    entries = []
    for i in range(m):
        x = draw(st.lists(_NUMBER, min_size=width, max_size=width))
        p, forms = 1.0 / m, ["xp", "xp", "xp", "px", "pair", "extra"]
        if i == bad:
            x = draw(st.one_of(st.lists(st.one_of(_NUMBER, _VALUE), max_size=4), _VALUE))
            p, forms = draw(st.one_of(st.just(p), _VALUE)), list(_ENTRY)
        entries.append(_ENTRY[draw(st.sampled_from(forms))].format(json.dumps(x), json.dumps(p)))
    support = "[%s]" % ", ".join(entries)
    if not draw(st.integers(0, 9)):  # a packed-looking object in place of the list
        support = '{"x": [1], "p": 1}'
    kind = draw(st.sampled_from(["explicit_table"] * 8 + ["independent", "boolean_iid"]))
    extra = draw(st.sampled_from(["", ', "note": {"x": [1], "p": 1}', ', "n": 2', ', "n": 3']))
    return ('{"kind": "%s", "params": {"support": %s, "marginals": [%s], "p": 0.5}%s}'
            % (kind, support, support, extra))


class TestSpecDecode:
    """The CLI decodes a spec with ``_model_from_json``, which packs the
    {"x", "p"} objects as they are decoded; every outcome must be that of
    ``model_from_spec`` on the plain decode."""

    @settings(max_examples=400, deadline=None)
    @given(_spec_texts(), st.booleans())
    def test_packed_decode_matches_the_plain_decode(self, text, as_bytes):
        packed = _outcome(lambda: dist_models._model_from_json(
            text.encode() if as_bytes else text))
        assert packed == _outcome(lambda: cb.model_from_spec(json.loads(text)))

    @pytest.mark.parametrize("text", [
        '{"kind": "explicit_table", "params": {"support": [{"p": 0.25, "x": [1, 2]}, '
        '{"x": [3.5, -1], "p": 0.75}]}}',
        '{"kind": "explicit_table", "params": {"support": [{"x": [1, 2], "p": 0.5}, '
        '[[3, 4], 0.5]]}}',  # objects and pairs mixed
        '{"kind": "explicit_table", "params": {"support": [{"x": [1], "p": 0.5, "w": 1}, '
        '{"x": [2], "p": 0.5}]}}',  # an extra key
        '{"kind": "explicit_table", "n": 1, "note": {"x": [1, 2, 3], "p": 2}, '
        '"params": {"support": [{"x": [1], "p": 1}]}}',  # a packed object out of place
        '{"kind": "explicit_table", "note": {"x": [5], "p": 0.5}, '
        '"params": {"support": [{"x": [1], "p": 0.5}]}}',  # one of the same width
        '{"kind": "explicit_table", "params": {"support": [{"x": [1], "p": 0.5}]}, '
        '"note": {"x": [5], "p": 0.5}}',
        '{"kind": "explicit_table", "params": {"support": [{"x": [NaN], "p": 1}]}}',
        '{"kind": "explicit_table", "params": {"support": [{"x": [1], "p": 1}, {"x": [1, 2], '
        '"p": 0}]}}',
        '{"kind": "explicit_table", "params": {"support": [{"x": [1], "p": 1}, {"p": 0}]}}',
        '{"kind": "explicit_table", "params": {"support": [{"x": [1], "p": 1}, '
        '{"x": "1", "p": 0}]}}',
        '{"kind": "independent", "n": 1, "params": {"marginals": [{"x": [1], "p": 1}]}}',
        '{"x": [1], "p": 1}',
    ])
    def test_cases(self, text):
        assert _outcome(lambda: dist_models._model_from_json(text)) == \
            _outcome(lambda: cb.model_from_spec(json.loads(text)))

    def test_the_text_is_dropped_before_a_build_with_nothing_packed(self, monkeypatch):
        # nothing to decode again, so a caller that passes the text as its
        # only reference frees it before the model is built
        class Text(bytearray):  # unlike bytes and str, weakly referable
            pass

        refs, build = [], cb.model_from_spec

        def text():
            spec = Text(b'{"kind": "explicit_table", "params": {"support": [[[1, 2], 1]]}}')
            refs.append(weakref.ref(spec))
            return spec

        def checked(doc, atom_cap):
            assert refs[0]() is None
            return build(doc, atom_cap)

        monkeypatch.setattr(dist_models, "model_from_spec", checked)
        model = dist_models._model_from_json(text())  # not in an assert, which keeps operands
        assert model.n == 2

    def test_objects_fill_the_table_as_decoded(self, monkeypatch):
        # in either key order, with one decode: no fallback to the plain one
        decodes, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: decodes.append(k) or loads(*a, **k))
        model = dist_models._model_from_json(
            '{"kind": "explicit_table", "params": {"support": [{"p": 0.25, "x": [1, 2]}, '
            '{"x": [3.5, -1], "p": 0.75}]}}')
        assert np.array_equal(model._fvals[0], [[1.0, 2.0], [3.5, -1.0]])
        assert np.array_equal(model._fprobs[0], [0.25, 0.75])
        assert model._fvals[0].dtype == model._fprobs[0].dtype == np.float64
        assert len(decodes) == 1


class TestPackBlocks:
    """Entries in memory are packed PACK_BLOCK at a time into arrays
    allocated once; every block checks and words its faults as one table."""

    M = 2 * dist_models.PACK_BLOCK + 5

    def _entries(self):
        return [([i % 7, 0.5], 1.0 / self.M) for i in range(self.M)]

    def test_blocks_fill_one_table(self):
        model = cb.ExplicitTableModel(iter(self._entries()))  # any iterable
        assert np.array_equal(model._fvals[0], [[i % 7, 0.5] for i in range(self.M)])
        assert np.array_equal(model._fprobs[0], [1.0 / self.M] * self.M)

    @pytest.mark.parametrize("bad,match", [
        (([1.0], 0.0), r"inconsistent lengths \[1, 2\]"),
        ((["1", 0.5], 0.0), "pairs"),
        ({"x": [1.0, 0.5]}, "missing 'p'"),
    ])
    def test_a_fault_in_a_later_block(self, bad, match):
        entries = self._entries()
        entries[-2] = bad
        with pytest.raises(cb.ValidationError, match=match):
            cb.ExplicitTableModel(entries)

    def test_a_later_block_of_another_width(self):
        entries = self._entries()
        entries[2 * dist_models.PACK_BLOCK:] = [([1.0], 0.0)] * 5
        with pytest.raises(cb.ValidationError, match=r"inconsistent lengths \[1, 2\]"):
            cb.ExplicitTableModel(entries)


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(cb.ValidationError):
            cb.IndependentModel([[(0.0, 0.5), (1.0, 0.4)]])

    def test_negative_probability_rejected(self):
        with pytest.raises(cb.ValidationError):
            cb.ExplicitTableModel([([0.0], 1.5), ([1.0], -0.5)])

    def test_rho_and_p_ranges(self):
        with pytest.raises(cb.ValidationError):
            cb.ExchangeableMixtureModel.bernoulli(3, 1.5, 0.5)
        with pytest.raises(cb.ValidationError):
            cb.BooleanIIDModel(3, -0.1)

    def test_planted_indices_checked(self):
        with pytest.raises(cb.ValidationError):
            cb.PlantedCliqueModel(3, 0.5, indices=(0, 0))
        with pytest.raises(cb.ValidationError):
            cb.PlantedCliqueModel(3, 0.5, indices=(5,))
        with pytest.raises(cb.ValidationError):
            cb.PlantedCliqueModel(3, 0.5)  # neither k nor indices

    def test_ragged_table_rejected(self):
        with pytest.raises(cb.ValidationError):
            cb.ExplicitTableModel([([0.0, 1.0], 0.5), ([1.0], 0.5)])


class TestJointModelValidation:
    """Direct construction checks its tables, its column map and its reads."""

    def test_probabilities_of_a_factor_must_sum_to_one(self):
        with pytest.raises(cb.ValidationError, match="sum to 1.2"):
            cb.JointModel(2, [[0.0, 1.0]], [[0.5, 0.7]], [0, 0])
        # rows of an array are checked one by one, the bad second one too
        with pytest.raises(cb.ValidationError, match="factor 1 probabilities sum to 1.2"):
            cb.JointModel(2, np.array([[0.0, 1.0]] * 2), np.array([[0.5, 0.5], [0.5, 0.7]]), [0, 1])

    def test_column_map_must_stay_in_range(self):
        with pytest.raises(cb.ValidationError, match=r"integer column in \[0, 1\)"):
            cb.JointModel(2, [[0.0, 1.0]], [[0.5, 0.5]], [0, 3])
        with pytest.raises(cb.ValidationError, match="integer column"):
            cb.JointModel(2, [[0.0, 1.0]], [[0.5, 0.5]], [0.0, 0.0])

    def test_every_factor_must_be_read(self):
        with pytest.raises(cb.ValidationError, match=r"factors \[1\] are read by no variable"):
            cb.JointModel(2, [[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]], [0, 0])

    def test_one_probability_per_value_row(self):
        with pytest.raises(cb.ValidationError, match="2 value rows"):
            cb.JointModel(1, [[0.0, 1.0]], [[0.5, 0.25, 0.25]], [0])
        with pytest.raises(cb.ValidationError, match="at least one value row"):
            cb.JointModel(1, [[]], [[]], [0])
        with pytest.raises(cb.ValidationError, match="same factors"):
            cb.JointModel(1, [[0.0, 1.0]], [], [0])

    def test_each_marginal_is_checked_once(self, monkeypatch):
        calls = []
        real = dist_models.check_table

        def counting(values, probs, name):
            calls.append(name)
            real(values, probs, name)

        monkeypatch.setattr(dist_models, "check_table", counting)
        cb.IndependentModel([[(0.0, 0.6), (1.0, 0.4)], [(0.0, 0.5), (0.5, 0.5)], [(0.25, 1.0)]])
        assert calls == ["marginals[0]", "marginals[1]", "marginals[2]"]
        with pytest.raises(cb.ValidationError, match=r"^marginals\[1\] probabilities sum to 1.1"):
            cb.IndependentModel([[(0.0, 0.6), (1.0, 0.4)], [(0.0, 0.5), (1.0, 0.6)]])
        # every marginal is parsed before any table is checked
        with pytest.raises(cb.ValidationError, match=r"^marginals\[1\] must be a list"):
            cb.IndependentModel([[(0.0, 0.5), (1.0, 0.6)], "junk"])
        with pytest.raises(cb.ValidationError, match="^atoms has negative"):
            cb.ExchangeableMixtureModel(3, 0.2, [(0.0, 1.1), (1.0, -0.1)])

    def test_mixture_atoms_are_checked_as_atoms_first(self, monkeypatch):
        # The atoms are checked once, under their own name, which errors
        # give; the shared-atom table is made from the checked arrays.
        calls = []
        real = dist_models.check_table

        def counting(values, probs, name):
            calls.append(name)
            real(values, probs, name)

        monkeypatch.setattr(dist_models, "check_table", counting)
        model = cb.ExchangeableMixtureModel(30, 0.3, [(0.0, 0.5), (0.5, 0.25), (1.0, 0.25)])
        assert calls == ["atoms"]
        cb.ExchangeableMixtureModel.bernoulli(4, 0.2, 0.3)
        assert calls == ["atoms"] * 2
        # the shared table holds what a checked JointModel of the atoms holds
        built = cb.JointModel(30, model._fvals[:1], model._fprobs[:1], [0] * 30, model.atom_cap)
        shared = vars(model._shared)
        assert type(model._shared) is cb.JointModel and shared.keys() >= vars(built).keys()
        for key, value in vars(built).items():
            if key in ("_fvals", "_fprobs"):  # lists of arrays
                assert len(value) == len(shared[key]) == 1, key
                assert np.array_equal(value[0], shared[key][0]), key
            elif isinstance(value, np.ndarray):
                assert value.dtype == shared[key].dtype and np.array_equal(value, shared[key]), key
            else:
                assert value == shared[key], key
        with pytest.raises(cb.ValidationError, match=r"^atoms probabilities sum to 1.1"):
            cb.ExchangeableMixtureModel(3, 0.2, [(0.0, 0.5), (1.0, 0.6)])
        with pytest.raises(cb.ValidationError, match="^atoms has non-finite values"):
            cb.ExchangeableMixtureModel(3, 0.2, [(float("nan"), 0.5), (1.0, 0.5)])


# p = 0 and 1 draw nothing; 2^-1074 and 1 - 2^-53 are the extreme thresholds
# 1 and 2^53 - 1; on j/256 every coin whose byte is j ties and comes out 0;
# 0.5 -+ 2^-40 tie on bytes 127 and 128 with low bits near the top and bottom.
COIN_EDGES = [0.0, 1.0, 2.0**-1074, 1.0 - 2.0**-53, 1 / 256, 0.5, 179 / 256, 255 / 256,
              0.5 - 2.0**-40, 0.5 + 2.0**-40]
# MT19937's raw outputs are 32-bit, the others' 64-bit.
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
                  np.random.PCG64DXSM]


def _with_examples(examples):
    def decorate(test):
        for args in examples:
            test = example(*args)(test)
        return test
    return decorate


class TestCoins:
    """``dist_models._coins`` against ``conftest.reference_coins``."""

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 40), st.integers(1, 90), st.integers(0, 2**32),
           st.sampled_from(BIT_GENERATORS))
    @_with_examples([(p, 64, 70, 5, bg) for p in COIN_EDGES for bg in BIT_GENERATORS[:2]])
    def test_matches_reference(self, p, rows, cols, seed, bit_generator):
        rng, ref = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        coins = dist_models._coins(rng, p, (rows, cols))
        assert coins.dtype == bool and coins.shape == (rows, cols)
        assert coins.ravel().tolist() == reference_coins(ref, p, rows * cols).tolist()
        # the generator is left where the reference leaves it
        assert rng.integers(0, 2**64, 2, dtype=np.uint64).tolist() == (
            ref.integers(0, 2**64, 2, dtype=np.uint64).tolist())

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(-1, 1))
    def test_threshold_is_the_law_of_a_uniform(self, p, offset):
        # NumPy's uniform is k 2^-53 (see below), so u < p exactly when its
        # 53-bit integer k lies below ceil(p 2^53).
        threshold = math.ceil(Fraction(p) * 2**53)
        k = min(max(threshold + offset, 0), 2**53 - 1)
        assert (k * 2.0**-53 < p) == (k < threshold)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(-1, 1) | st.integers(-2**53, 2**53))
    @_with_examples([(p, offset) for p in COIN_EDGES[2:] for offset in (-1, 0)])
    def test_coin_is_k_below_the_threshold(self, p, offset):
        # Feed one integer k near T = ceil(p 2^53) through words chosen by
        # hand: its top byte in byte 0 of the first word and its low 45 bits
        # at the top of the second, which only a tied coin reads.
        threshold = math.ceil(Fraction(p) * 2**53)
        k = min(max(threshold + offset, 0), 2**53 - 1)
        words = [k >> 45, (k & (1 << 45) - 1) << 19]

        def integers(low, high, size, dtype):
            return np.array([words.pop(0) for _ in range(size)], dtype=dtype)

        rng = SimpleNamespace(bit_generator=None, integers=integers)
        assert dist_models._coins(rng, p, (1,)).tolist() == [k < threshold]
        # a coin whose byte does not tie is decided without its low 45 bits
        assert len(words) == (0 if k >> 45 == threshold >> 45 else 1)

    def test_numpy_draws_are_raw_words(self):
        # The uniform is k 2^-53 with k the top 53 bits of one raw word.
        raw = np.random.default_rng(3).bit_generator.random_raw(64)
        assert np.random.default_rng(3).random(64).tolist() == [
            (int(w) >> 11) * 2.0**-53 for w in raw
        ]

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_words_are_integers_draws(self, bit_generator):
        # ``_words`` reads the raw words only where they are what integers
        # over [0, 2^64) returns; MT19937's would leave bytes 4-7 at zero.
        want = np.random.Generator(bit_generator(3)).integers(0, 2**64, 64, dtype=np.uint64)
        assert dist_models._words(np.random.Generator(bit_generator(3)), 64).tolist() == (
            want.tolist())
        raw = bit_generator(3).random_raw(64)
        assert (raw.tolist() == want.tolist()) == (bit_generator is not np.random.MT19937)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_large_sample_frequency(self, bit_generator):
        p, count = 0.4, 4_000_000
        exact = math.ceil(p * 2**53) / 2**53
        rng = np.random.Generator(bit_generator(11))
        hits = int(np.count_nonzero(dist_models._coins(rng, p, (count,))))
        z = (hits - count * exact) / math.sqrt(count * exact * (1.0 - exact))
        assert abs(z) < 4.0, z
