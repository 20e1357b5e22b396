"""Randomized detection of a subset that violates the product-moment bound.

Given only sample access to [0, 1]-valued variables that are supposed to
satisfy E[prod_{i in S} X_i] <= c^|S| for every subset S, the detector
follows Impagliazzo and Kabanets: it draws a fixed pool of candidate index
sets from the lam-law of the coupled process of ``mc_engine``, estimates
each candidate's product mean on rows of its own, and looks for a set whose
empirical product mean sits above c^|S| by a margin.  A search round scores
prod_{i in S} x_i for one candidate S, its Bernoulli layer integrated out
(the same 0/1 value on 0/1 variables).  A fresh batch of rows then
re-estimates the best candidate directly as the mean of prod_{i in S} x_i:
the second phase never reuses search rounds, so the selection bias of
picking the best-looking set cannot manufacture a finding.  A subset is
reported only when the confirmation estimate clears the margin threshold by
at least two standard errors.

The pool holds at most ``CANDIDATES`` sets, drawn from their own stream
(``WITNESS_POOL_TAG``); search round r, counted across blocks, scores pool
set r mod K, so each set's round count follows from K and the budget.
Scores add per set in round order within a block, then in block order.  A
round's score is the plain left-to-right product of its row with the
variables outside the set replaced by 1.0, which has the bits of the
product over the members alone.  The confirm phase multiplies the
candidate's rows only, left to right, in place.  Both phases reuse one set
of buffers, allocated once per call.

Why this works when the variables are dependent enough: if the tail
P(mean >= c + t) carries probability alpha while the certified bound says it
should be below exp(-n D(c+t || c)), a lam-random subset must have an
inflated product mean on average, and the pool draws subsets with exactly
the weights under which that excess is guaranteed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist_models import JointModel, _distinct
from .entropy_core import (DEFAULT_MIN_ROUNDS, LAMBDA_CAP, BoundParams, at_most, check_positive_int,
                           chernoff_bound, normalize, optimize_lambda, proof_case)
from .errors import BudgetOverflowError, ValidationError
from .mc_engine import (
    DEFAULT_BLOCK_SIZE,
    WITNESS_CONFIRM_TAG,
    WITNESS_POOL_TAG,
    WITNESS_SEARCH_TAG,
    _chunk_rows,
    _kernel,
    _mean_and_se,
    _run_blocks,
    block_rng,
)

# Hard ceilings for the closed-form budgets.  The formulas grow like
# alpha^(-4/(c t)) and are astronomically conservative away from toy
# parameters; the caps keep default runs finishable while the margin
# threshold retains its closed form.
DEFAULT_SEARCH_CAP = 50_000
DEFAULT_CONFIRM_CAP = 20_000
CONFIRM_Z = 2.0
# Most index sets the search draws for its candidate pool.
CANDIDATES = 512

__all__ = [
    "DEFAULT_SEARCH_CAP",
    "DEFAULT_CONFIRM_CAP",
    "DEFAULT_MIN_ROUNDS",
    "CONFIRM_Z",
    "WitnessParams",
    "WitnessReport",
    "default_budgets",
    "find_dependent_set",
]


def _check_detectable(params: BoundParams, alpha: float) -> None:
    """What detection adds to the domain of ``BoundParams``: variables in
    [0, 1], one mean bound c > 0 for all of them, t > 0 and alpha in (0, 1)."""
    if params.b != 1.0 or any(params.a):
        raise ValidationError(f"detection needs a_i = 0 and b = 1 (variables in [0, 1]), got "
                              f"a_i in [{min(params.a)}, {max(params.a)}] and b = {params.b}")
    if len(set(params.c)) > 1:
        raise ValidationError(f"detection needs one c for every variable, got c_i in "
                              f"[{min(params.c)}, {max(params.c)}]")
    for name, value in (("c", params.c[0]), ("t", params.t)):
        if not value > 0.0:
            raise ValidationError(f"detection needs {name} > 0, got {value}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class WitnessParams:
    """Fully resolved detection configuration.

    ``params`` is the problem of ``chernoff_bound``, restricted to variables
    in [0, 1] (a_i = 0, b = 1) with one mean bound c > 0 for all of them and
    t > 0; ``wp.n``, ``wp.c`` and ``wp.t`` read it.  alpha is the tail
    probability the caller claims to observe, lam the index inclusion rate,
    and the remaining fields the round budgets and the acceptance margin.
    ``default_budgets`` fills everything from (n, c, t, alpha); use
    ``dataclasses.replace`` to override fields.
    """

    params: BoundParams
    alpha: float
    lam: float
    m_search: int
    m_confirm: int
    margin_threshold: float

    n = property(lambda self: self.params.n)
    c = property(lambda self: self.params.c[0])
    t = property(lambda self: self.params.t)

    def __post_init__(self) -> None:
        _check_detectable(self.params, self.alpha)
        if not 0.0 < self.lam < 1.0:
            raise ValidationError(f"lam must lie in (0, 1), got {self.lam}")
        check_positive_int("m_search", self.m_search)
        check_positive_int("m_confirm", self.m_confirm)
        if not self.margin_threshold > 0.0:
            raise ValidationError(
                f"margin_threshold must be positive, got {self.margin_threshold}"
            )

    @property
    def tail_bound(self) -> float:
        """exp(-n D(c+t || c)), the certified ceiling for the tail, from ``chernoff_bound``."""
        return chernoff_bound(self.params)


def default_budgets(
    n: int,
    c: float,
    t: float,
    alpha: float,
    m_search_cap: int = DEFAULT_SEARCH_CAP,
    m_confirm_cap: int = DEFAULT_CONFIRM_CAP,
) -> WitnessParams:
    """Resolve (n, c, t, alpha) into a full WitnessParams.

    lam is ``optimize_lambda``'s tilt at ``normalize`` of the ``BoundParams``
    that ``tail_bound`` reads (the lam ``simulate`` and ``verify`` resolve),
    capped at LAMBDA_CAP, and LAMBDA_CAP itself unless ``proof_case`` says
    interior; the margin is alpha^(4/(c t)) / 8; the round budgets follow
    the closed forms 64 alpha^(-4/(c t)) n ln(n+1) and 64 margin^-2 ln(100),
    each truncated at its cap.  Raises ``BudgetOverflowError`` when the
    margin underflows to zero.  Warns, once and naming the caller's line,
    unless ``at_most(bound, alpha, n)`` holds for the certified tail bound:
    detection is not guaranteed below it.  Overriding fields with
    ``dataclasses.replace`` afterwards does not warn again.
    """
    c, t, alpha = float(c), float(t), float(alpha)
    params = BoundParams.boolean(n, c, t)
    _check_detectable(params, alpha)
    exponent = 4.0 / (c * t)
    margin = alpha**exponent / 8.0
    if margin <= 0.0 or not math.isfinite(margin):
        raise BudgetOverflowError(
            f"margin alpha^(4/(c t))/8 underflows double precision for "
            f"alpha={alpha}, c={c}, t={t}"
        )

    def capped(raw, cap: int) -> int:
        # A budget that overflows a double is the cap.
        try:
            value = raw()
        except OverflowError:
            return cap
        return min(math.ceil(value), cap) if math.isfinite(value) else cap

    m_search = capped(lambda: 64.0 * alpha**-exponent * n * math.log(n + 1.0), m_search_cap)
    m_confirm = capped(lambda: 64.0 * margin**-2 * math.log(100.0), m_confirm_cap)
    norm = normalize(params)
    interior = proof_case(norm) == "interior"
    lam = min(optimize_lambda(norm).lam, LAMBDA_CAP) if interior else LAMBDA_CAP
    wp = WitnessParams(params, alpha, lam, max(1, m_search), max(1, m_confirm), margin)
    bound = wp.tail_bound
    if not at_most(bound, alpha, n):
        warnings.warn(f"alpha={alpha} is below the certified tail bound {bound}; a dependent "
                      "subset is not guaranteed to exist", stacklevel=2)
    return wp


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one detection run.

    ``subset`` is non-empty exactly when ``verdict == "found"``; a rejected
    or missing candidate is described in ``note`` while ``empirical_moment``
    and ``threshold`` still carry the numbers from the confirmation test
    that was actually performed (zeros when no candidate existed).
    """

    verdict: str
    subset: tuple[int, ...]
    empirical_moment: float
    threshold: float
    confirm_std_error: float
    samples_used: int
    candidates: int
    note: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in ("found", "not_found"):
            raise ValidationError(f"verdict must be found/not_found, got {self.verdict!r}")
        object.__setattr__(self, "subset", tuple(int(i) for i in self.subset))
        if self.verdict == "found":
            if not self.subset:
                raise ValidationError("a found verdict must name a non-empty subset")
            if not self.empirical_moment > self.threshold:
                raise ValidationError(
                    f"found verdict requires empirical_moment > threshold, got "
                    f"{self.empirical_moment} <= {self.threshold}"
                )
        elif self.subset:
            raise ValidationError("a not_found verdict must not name a subset")


def _pool(seed: int, n: int, lam: float, k: int) -> np.ndarray:
    """The search's candidates: k index sets drawn from the lam-law (each
    variable in with probability lam) by ``block_rng(seed, WITNESS_POOL_TAG,
    0)``, less the empty sets and the repeats of a set drawn before.
    Returns their (K, n) bool member rows in draw order."""
    drawn = block_rng(seed, WITNESS_POOL_TAG, 0).random((k, n)) < lam
    drawn = drawn[drawn.any(axis=1)]
    return drawn[_distinct([row.tobytes() for row in np.packbits(drawn, axis=1)])[0]]


def find_dependent_set(
    model: JointModel,
    wp: WitnessParams,
    seed: int = 0,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    min_rounds_per_subset: int = DEFAULT_MIN_ROUNDS,
) -> WitnessReport:
    """Two-phase search for a subset with E[prod_{i in S} X_i] > c^|S|.

    Search phase: min(``CANDIDATES``, m_search // min_rounds_per_subset)
    index sets drawn from the lam-law, less empty sets and repeats, form the
    candidate pool; search round r scores prod_{i in S} X_i for pool set
    r mod K on its own row, so each candidate gets at least
    ``min_rounds_per_subset`` of the ``wp.m_search`` rounds.  Candidates are
    ranked by empirical excess over c^|S| (ties break toward smaller, then
    lexicographically earlier sets).  Confirm phase: ``wp.m_confirm`` fresh
    rows estimate the mean of prod_{i in S} X_i for the single best
    candidate only; the verdict is "found" iff that estimate exceeds
    c^|S| + margin_threshold by at least ``CONFIRM_Z`` standard errors.

    Like ``estimate_product``, the result depends on (seed, block_size);
    ``workers`` is accepted for compatibility and validated, and blocks run
    in order on one thread.
    """
    if model.n != wp.n:
        raise ValidationError(f"wp.n={wp.n} does not match model n={model.n}")
    for name, value in (("workers", workers), ("block_size", block_size),
                        ("min_rounds_per_subset", min_rounds_per_subset)):
        check_positive_int(name, value)
    n = model.n
    # Buffers for one block, shared by every block of both phases.
    block = min(block_size, max(wp.m_search, wp.m_confirm))
    *_, chunks = _kernel(model, wp.params, block)
    members = _pool(seed, n, wp.lam, min(CANDIDATES, wp.m_search // min_rounds_per_subset))
    k = len(members)
    if not k:
        return WitnessReport(
            verdict="not_found",
            subset=(),
            empirical_moment=0.0,
            threshold=0.0,
            confirm_std_error=0.0,
            samples_used=wp.m_search,
            candidates=0,
            note=(
                f"no non-empty subset was drawn into a pool of at most "
                f"{wp.m_search // min_rounds_per_subset} sets ({wp.m_search} search rounds, "
                f"{min_rounds_per_subset} or more each)"
            ),
        )

    outside_pool = np.ascontiguousarray(~members.T)  # (n, k): True off the set
    outside = np.empty(n * _chunk_rows(n, block), dtype=bool)
    weights = np.empty(block)
    done = 0  # search rounds of the blocks before this one

    def search_sums(rng: np.random.Generator, m: int) -> np.ndarray:
        # A variable outside the set scores 1.0: every xtilde lies in [0, 1],
        # so max(xtilde, 1.0) is 1.0, max(xtilde, 0.0) is xtilde (up to the
        # sign of a zero, which sums that start at +0.0 never show), and the
        # plain product keeps the bits of the product over the members alone,
        # since 1.0 x = x.
        nonlocal done
        which = np.arange(done, done + m) % k
        done += m
        for part, _, xt in chunks(rng, m):
            off = outside[: xt.size].reshape(xt.shape)
            np.take(outside_pool, which[part], axis=1, out=off)
            np.maximum(xt, off, out=xt)
            np.multiply.reduce(xt, axis=0, out=weights[part])
        return np.bincount(which, weights=weights[:m], minlength=k)

    hits = sum(_run_blocks(seed, WITNESS_SEARCH_TAG, wp.m_search, block_size, search_sums),
               np.zeros(k))
    counts = wp.m_search // k + (np.arange(k) < wp.m_search % k)
    sizes = members.sum(axis=1)
    scores = hits / counts - np.array([wp.c**j for j in range(n + 1)])[sizes]
    score = scores.max()
    tied = np.flatnonzero(scores == score)
    tied = tied[sizes[tied] == sizes[tied].min()]
    best = min(tuple(np.flatnonzero(members[i]).tolist()) for i in tied)
    first, *rest = best

    def confirm_weights(rng: np.random.Generator, m: int) -> np.ndarray:
        # The product over the chosen rows alone, left to right, in place.
        for part, _, xt in chunks(rng, m):
            product = weights[part]
            np.copyto(product, xt[first])
            for i in rest:
                np.multiply(product, xt[i], out=product)
        return weights[:m]

    blocks = _run_blocks(seed, WITNESS_CONFIRM_TAG, wp.m_confirm, block_size, confirm_weights)
    _, estimate, std_error = _mean_and_se(blocks, wp.m_confirm)
    threshold = wp.c ** len(best) + wp.margin_threshold
    outcome = dict(empirical_moment=estimate, threshold=threshold, confirm_std_error=std_error,
                   samples_used=wp.m_search + wp.m_confirm, candidates=k)
    if estimate > threshold and estimate - threshold >= CONFIRM_Z * std_error:
        return WitnessReport(verdict="found", subset=best, **outcome)
    return WitnessReport(
        verdict="not_found",
        subset=(),
        note=(
            f"best candidate {list(best)} (search excess {score:.6g}) did not "
            f"clear c^|S| + margin = {threshold:.6g} on fresh samples"
        ),
        **outcome,
    )
