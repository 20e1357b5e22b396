"""Relative entropy, normalization, the lambda objective, and the bound.

High-precision reference values were computed independently with mpmath at
50 digits and frozen here.
"""

import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound.entropy_core import KL_REL_ERR, proof_case

# mpmath oracles
KL_07_05 = 0.08228287850505185
G_STAR_HALF_QUARTER = 0.8773826753016616  # e^{-D(0.75 || 0.5)}
G_AT_HALF_T0 = 1.0606601717798212  # (0.75) / 0.5^0.5
BOUND_N20_P05_T02 = 0.19288568522336422  # e^{-20 D(0.7 || 0.5)}

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


def _kl_decimal(p: float, q: float) -> decimal.Decimal:
    """D(p || q) at 60 significant digits from the exact binary values of p, q.

    The working precision grows with the smaller exponent of p and q, so that
    (1 - p) / (1 - q) keeps 60 digits of its distance from 1 for tiny p, q.
    """
    with decimal.localcontext() as ctx:
        p_, q_ = decimal.Decimal(p), decimal.Decimal(q)
        ctx.prec = 60 - min(0, q_.adjusted(), p_.adjusted() if p_ else 0)
        total = decimal.Decimal(0)
        if p_ > 0:
            total += p_ * (p_ / q_).ln()
        if p_ < 1:
            total += (1 - p_) * ((1 - p_) / (1 - q_)).ln()
        return total


def _kl_reference(p: float, q: float) -> float:
    return float(_kl_decimal(p, q))


class TestKlDiv:
    def test_frozen_oracle_value(self):
        assert cb.kl_div(0.7, 0.5) == pytest.approx(KL_07_05, rel=1e-13)

    def test_certain_event_gives_log_inverse(self):
        assert cb.kl_div(1.0, 0.25) == pytest.approx(math.log(4.0), rel=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_zero_iff_equal(self, p):
        assert cb.kl_div(p, p) == 0.0

    def test_infinite_when_q_degenerate(self):
        assert cb.kl_div(0.5, 0.0) == math.inf
        assert cb.kl_div(1.0, 0.0) == math.inf
        assert cb.kl_div(0.5, 1.0) == math.inf
        assert cb.kl_div(0.0, 1.0) == math.inf
        # but matching endpoints are fine
        assert cb.kl_div(0.0, 0.0) == 0.0
        assert cb.kl_div(1.0, 1.0) == 0.0

    def test_endpoint_p_uses_0log0_convention(self):
        assert cb.kl_div(0.0, 0.25) == pytest.approx(-math.log(0.75), rel=1e-15)

    @pytest.mark.parametrize("p,q", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, math.nan)])
    def test_domain_enforced(self, p, q):
        with pytest.raises(cb.ValidationError):
            cb.kl_div(p, q)

    @given(unit, unit)
    def test_nonnegative(self, p, q):
        assert cb.kl_div(p, q) >= 0.0

    @given(unit, st.floats(min_value=0.01, max_value=0.99))
    def test_positive_when_separated(self, p, q):
        assume(abs(p - q) > 1e-6)
        assert cb.kl_div(p, q) > 0.0

    @settings(max_examples=300)
    @example(p=9e-225, q=4.5e-225)  # ln p - ln q lost 2.85e-13 relative here
    @example(p=6e-300, q=3e-300)
    @given(unit, interior)
    def test_matches_decimal_reference(self, p, q):
        assert cb.kl_div(p, q) == pytest.approx(_kl_reference(p, q), rel=KL_REL_ERR, abs=0.0)

    @settings(max_examples=300)
    @example(q=0.3, gap=1e-9)  # the naive formula returned 20.7x the true value
    @example(q=0.5, gap=1e-8)  # and 11% too little here
    @example(q=0.7, gap=-1e-12)
    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.builds(
            lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
            st.sampled_from([-1.0, 1.0]),
            st.floats(min_value=1.0, max_value=9.99),
            st.integers(min_value=-12, max_value=-1),
        ),
    )
    def test_matches_decimal_reference_for_p_near_q(self, q, gap):
        p = q + gap
        assume(0.0 <= p <= 1.0)
        assert cb.kl_div(p, q) == pytest.approx(_kl_reference(p, q), rel=KL_REL_ERR, abs=0.0)


class TestBoundParams:
    @pytest.mark.parametrize("build", [
        lambda n: cb.BoundParams.boolean(n, 0.5, 0.25),
        lambda n: cb.BoundParams.uniform(n, -1.0, 2.0, 0.5, 0.25),
        lambda n: cb.default_budgets(n, 0.5, 0.25, 0.5),
    ])
    @pytest.mark.parametrize("n", [2.5, "3", 0])
    def test_shorthands_reject_a_bad_n_before_using_it(self, build, n):
        with pytest.raises(cb.ValidationError, match="n must be a positive integer"):
            build(n)

    def test_basic_properties(self):
        params = cb.BoundParams(n=3, a=(-1.0, 0.0, -0.5), b=2.0, c=(0.0, 1.0, 0.5), t=0.5)
        assert params.a_mean == pytest.approx(-0.5)
        assert params.c_mean == pytest.approx(0.5)
        assert params.t_max == pytest.approx(2.0 - 0.5 - 0.5)
        assert params.threshold == pytest.approx((0.5 + 0.5) * 3)

    def test_boolean_and_uniform_constructors(self):
        b = cb.BoundParams.boolean(4, 0.25, 0.1)
        assert b.a == (0.0,) * 4 and b.b == 1.0 and b.c == (0.25,) * 4
        u = cb.BoundParams.uniform(2, -1.0, 3.0, 0.5, 0.2)
        assert u.a == (-1.0, -1.0) and u.c == (0.5, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, a=(), b=1.0, c=(), t=0.0),
            dict(n=2, a=(0.1, 0.0), b=1.0, c=(0.5, 0.5), t=0.1),  # a > 0
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(1.5, 0.5), t=0.1),  # c > a + b
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(-0.5, 0.5), t=0.1),  # c < a
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(0.5, 0.5), t=-0.1),
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(0.5, 0.5), t=0.6),  # t > t_max
            dict(n=2, a=(0.0, 0.0), b=0.0, c=(0.0, 0.0), t=0.0),  # b = 0
            dict(n=2, a=(0.0,), b=1.0, c=(0.5, 0.5), t=0.1),  # wrong length
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(0.5, "x"), t=0.1),  # c not numbers
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(0.5, math.inf), t=0.1),  # c not finite
            dict(n=2, a=(0.0, 0.0), b=1.0, c=(0.5, 0.5), t=math.nan),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(cb.ValidationError):
            cb.BoundParams(**kwargs)

    def test_boundary_t_accepted(self):
        params = cb.BoundParams.boolean(5, 0.25, 0.75)
        assert params.t == params.t_max


_BOOL_SITES = {
    "BoundParams.n": lambda v: cb.BoundParams(n=v, a=(0.0,), b=1.0, c=(0.5,), t=0.0),
    "model n": lambda v: cb.PlantedCliqueModel(v, 0.5, k=1),
    "atom_cap": lambda v: cb.BooleanIIDModel(1, 0.5, atom_cap=v),
    "sample size": lambda v: cb.sample(cb.BooleanIIDModel(1, 0.5), np.random.default_rng(0), v),
    "estimate_product workers": lambda v: cb.estimate_product(
        cb.BooleanIIDModel(1, 0.5), cb.BoundParams.boolean(1, 0.5, 0.0), 0.5, 1, workers=v
    ),
    "default_budgets n": lambda v: cb.default_budgets(v, 0.5, 0.25, 0.9),
    "subset_budget": lambda v: cb.certify_moments(
        cb.BooleanIIDModel(1, 0.5), cb.BoundParams.boolean(1, 0.5, 0.0), subset_budget=v
    ),
    "WitnessParams.m_search": lambda v: cb.WitnessParams(
        params=cb.BoundParams.boolean(1, 0.5, 0.25), alpha=0.9, lam=0.5, m_search=v,
        m_confirm=1, margin_threshold=0.1
    ),
}


@pytest.mark.parametrize("site", _BOOL_SITES)
def test_positive_integer_sites_reject_bool(site):
    with pytest.raises(cb.ValidationError, match="must be a positive integer, got True"):
        _BOOL_SITES[site](True)


class TestNormalize:
    def test_affine_map(self):
        params = cb.BoundParams(n=2, a=(-1.0, -2.0), b=4.0, c=(1.0, 0.0), t=1.0)
        norm = cb.normalize(params)
        assert norm.ctilde_i == pytest.approx((0.5, 0.5))
        assert norm.ctilde == pytest.approx(0.5)
        assert norm.ttilde == pytest.approx(0.25)
        assert norm.n == 2

    def test_symmetric_constructor(self):
        norm = cb.NormalizedParams.symmetric(0.3, 0.1, n=5)
        assert norm.ctilde_i == (0.3,) * 5

    def test_rejects_inconsistent_mean(self):
        with pytest.raises(cb.ValidationError):
            cb.NormalizedParams(ctilde_i=(0.2, 0.4), ctilde=0.5, ttilde=0.1)
        with pytest.raises(cb.ValidationError, match="ctilde_i must be non-empty"):
            cb.NormalizedParams(ctilde_i=(), ctilde=0.0, ttilde=0.0)
        with pytest.raises(cb.ValidationError, match=r"ctilde_i\[1\]=1.5 outside \[0, 1\]"):
            cb.NormalizedParams(ctilde_i=(0.5, 1.5), ctilde=1.0, ttilde=0.0)
        with pytest.raises(cb.ValidationError, match="ttilde must be >= 0"):
            cb.NormalizedParams(ctilde_i=(0.5,), ctilde=0.5, ttilde=-0.1)

    def test_rejects_excess_ttilde(self):
        with pytest.raises(cb.ValidationError):
            cb.NormalizedParams.symmetric(0.5, 0.6)


class TestProofCase:
    def test_dispatch(self):
        assert proof_case(cb.NormalizedParams.symmetric(0.5, 0.25)) == "interior"
        assert proof_case(cb.NormalizedParams.symmetric(0.5, 0.5)) == "boundary"
        assert proof_case(cb.NormalizedParams.symmetric(0.0, 0.5)) == "degenerate"
        # degenerate wins over boundary when both apply
        assert proof_case(cb.NormalizedParams.symmetric(0.0, 1.0)) == "degenerate"

    def test_t_zero_is_interior(self):
        assert proof_case(cb.NormalizedParams.symmetric(0.5, 0.0)) == "interior"


class TestGObjective:
    def test_frozen_value_at_minimizer(self):
        norm = cb.NormalizedParams.symmetric(0.5, 0.25)
        assert cb.g_objective(2.0 / 3.0, norm) == pytest.approx(
            G_STAR_HALF_QUARTER, rel=1e-12
        )

    def test_frozen_value_off_minimum(self):
        norm = cb.NormalizedParams.symmetric(0.5, 0.0)
        assert cb.g_objective(0.5, norm) == pytest.approx(G_AT_HALF_T0, rel=1e-12)

    def test_lambda_zero_gives_one(self):
        norm = cb.NormalizedParams.symmetric(0.37, 0.21)
        assert cb.g_objective(0.0, norm) == 1.0

    @pytest.mark.parametrize("lam", [-0.1, 1.0, 1.5])
    def test_lambda_domain(self, lam):
        with pytest.raises(cb.ValidationError):
            cb.g_objective(lam, cb.NormalizedParams.symmetric(0.5, 0.25))

    def test_requires_interior(self):
        with pytest.raises(cb.ValidationError):
            cb.g_objective(0.5, cb.NormalizedParams.symmetric(0.0, 0.5))
        with pytest.raises(cb.ValidationError):
            cb.g_objective(0.5, cb.NormalizedParams.symmetric(0.5, 0.5))


class TestOptimizeLambda:
    def test_closed_form_matches_oracle(self):
        choice = cb.optimize_lambda(cb.NormalizedParams.symmetric(0.5, 0.25))
        assert choice.lam == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert choice.g_value == pytest.approx(G_STAR_HALF_QUARTER, rel=1e-12)

    def test_g_value_equals_objective_at_lambda_star(self):
        norm = cb.NormalizedParams.symmetric(0.35, 0.4)
        choice = cb.optimize_lambda(norm)
        assert choice.g_value == pytest.approx(cb.g_objective(choice.lam, norm), rel=1e-10)

    def test_t_zero_gives_lambda_zero_and_unit_g(self):
        choice = cb.optimize_lambda(cb.NormalizedParams.symmetric(0.5, 0.0))
        assert choice.lam == 0.0
        assert choice.g_value == 1.0

    def test_grid_search_agrees(self):
        norm = cb.NormalizedParams.symmetric(0.5, 0.25)
        star = cb.optimize_lambda(norm)
        grid = cb.grid_search_lambda(norm)
        assert star.g_value <= grid.g_value + 1e-9
        assert grid.lam == pytest.approx(star.lam, abs=2e-4)
        with pytest.raises(cb.ValidationError, match="points must be >= 2"):
            cb.grid_search_lambda(norm, points=1)
        for hi in (0.0, 1.0):
            with pytest.raises(cb.ValidationError, match=r"hi must lie in \(0, 1\)"):
                cb.grid_search_lambda(norm, hi=hi)
        with pytest.raises(cb.ValidationError, match=r"lam must lie in \[0, 1\)"):
            cb.LambdaChoice(lam=1.0, g_value=0.5)
        with pytest.raises(cb.ValidationError, match="g_value must be >= 0"):
            cb.LambdaChoice(lam=0.5, g_value=math.nan)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0 - 1e-9),
    )
    @settings(max_examples=200)
    def test_minimizer_beats_random_lambda(self, ctilde, frac, lam):
        ttilde = frac * (1.0 - ctilde) * 0.999
        norm = cb.NormalizedParams.symmetric(ctilde, ttilde)
        choice = cb.optimize_lambda(norm)
        assert choice.g_value <= cb.g_objective(lam, norm) + 1e-9


class TestChernoffBound:
    def test_frozen_boolean_anchor(self):
        params = cb.BoundParams.boolean(20, 0.5, 0.2)
        assert cb.chernoff_bound(params) == pytest.approx(BOUND_N20_P05_T02, rel=1e-12)

    def test_t_zero_gives_one(self):
        assert cb.chernoff_bound(cb.BoundParams.boolean(10, 0.3, 0.0)) == 1.0

    def test_boundary_gives_ctilde_power(self):
        params = cb.BoundParams.boolean(7, 0.25, 0.75)
        assert cb.chernoff_bound(params) == pytest.approx(0.25**7, rel=1e-13)

    def test_degenerate_cases(self):
        at_floor = cb.BoundParams(n=3, a=(0.0,) * 3, b=1.0, c=(0.0,) * 3, t=0.0)
        assert cb.chernoff_bound(at_floor) == 1.0
        off_floor = cb.BoundParams(n=3, a=(0.0,) * 3, b=1.0, c=(0.0,) * 3, t=0.5)
        assert cb.chernoff_bound(off_floor) == 0.0

    def test_scale_invariance(self):
        # mapping everything through x -> (x - a) / b leaves the bound alone
        base = cb.BoundParams.boolean(6, 0.4, 0.3)
        scaled = cb.BoundParams.uniform(6, -2.0, 5.0, -2.0 + 5.0 * 0.4, 5.0 * 0.3)
        assert cb.chernoff_bound(scaled) == pytest.approx(cb.chernoff_bound(base), rel=1e-12)

    @settings(max_examples=300)
    @example(n=40, c=0.2603361161571089, t=0.26493057335184306)  # to nearest: 2.5 ulps low
    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rounds_outward(self, n, c, t):
        assume(t < 1.0 - c)
        params = cb.BoundParams.boolean(n, c, t)
        norm = cb.normalize(params)
        assume(proof_case(norm) == "interior")
        q = norm.ctilde
        exponent = n * _kl_decimal(min(q + norm.ttilde, 1.0), q)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            reference = (-exponent).exp()
            assume(reference >= decimal.Decimal(sys.float_info.min))
            bound = decimal.Decimal(cb.chernoff_bound(params))
            assert bound >= reference
            assert bound <= reference * (1 + decimal.Decimal(1e-12) * max(1, exponent))

    @settings(max_examples=300)
    @example(case=(1, 0.5, 0.4999999999999))
    @example(case=(199, 0.031547962762707216, 0.9684520372371959))
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=1000),
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
            st.floats(min_value=1e-16, max_value=1e-12),
        ).map(lambda v: (v[0], v[1], (1.0 - v[1]) * (1.0 - v[2])))
    )
    def test_rounds_outward_near_boundary(self, case):
        # t within slack() of 1 - c is proof_case's "boundary"; while c + t < 1
        # in floating point the bound still is exp(-n D(c+t || c)), above c^n.
        n, c, t = case
        params = cb.BoundParams.boolean(n, c, t)
        norm = cb.normalize(params)
        q = norm.ctilde
        exponent = n * _kl_decimal(min(q + norm.ttilde, 1.0), q)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            reference = (-exponent).exp()
            assume(reference >= decimal.Decimal(sys.float_info.min))
            bound = decimal.Decimal(cb.chernoff_bound(params))
            assert bound >= reference
            assert bound <= reference * (1 + decimal.Decimal(1e-12) * max(1, exponent))

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.999),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=150)
    def test_monotone_and_bounded(self, p, frac, n):
        t_lo = frac * (1.0 - p) * 0.5
        t_hi = frac * (1.0 - p)
        lo = cb.chernoff_bound(cb.BoundParams.boolean(n, p, t_lo))
        hi = cb.chernoff_bound(cb.BoundParams.boolean(n, p, t_hi))
        assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
        assert hi <= lo + 1e-12


def test_binomial_series_inequality_spot():
    # (1 - lam)^(1 - x) <= 1 - (1 - x) lam on [0,1) x [0,1]
    lams = np.linspace(0.0, 0.999, 101)
    xs = np.linspace(0.0, 1.0, 101)
    L, X = np.meshgrid(lams, xs)
    assert np.all((1.0 - L) ** (1.0 - X) <= 1.0 - (1.0 - X) * L + 1e-12)
