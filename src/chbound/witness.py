"""Randomized detection of a subset that violates the product-moment bound.

Given only sample access to [0, 1]-valued variables that are supposed to
satisfy E[prod_{i in S} X_i] <= c^|S| for every subset S, the detector runs
the coupled process of ``mc_engine`` many times, groups rounds by the index
set that was drawn, and looks for a set whose empirical product mean sits
above c^|S| by a margin.  A round scores prod_{i in I} x_i, its Bernoulli
layer integrated out (the same 0/1 value on 0/1 variables).  A fresh batch
of rows then re-estimates that one candidate directly as the mean of
prod_{i in S} x_i: the second phase never reuses search rounds, so the
selection bias of picking the best-looking set cannot manufacture a finding.
A subset is reported only when the confirmation estimate clears the margin
threshold by at least two standard errors.

The search keys each round's index set by its bits, column 0 the top bit of
a native uint64 word (one more word per 64 further variables), packed from a
row of whole bytes, and merges equal keys with one sort of the word per
block.  As each block arrives, its counts add into hash-bucket totals whose
width is fixed before the search from the most sets a call can draw; at the
end only the entries of buckets drawn often enough to hold a candidate are
merged across blocks, so no array spans every block.  Counts and scores add
in round order, then in block order.  A round's score is the plain
left-to-right product of its row with the variables outside the set replaced
by 1.0, which has the bits of the product over the members alone.  The
confirm phase multiplies the candidate's rows only, left to right, in place.
Both phases reuse one set of buffers, allocated once per call; the inclusion
uniforms are drawn in slices of ``UNIFORM_SLICE`` doubles.

Why this works when the variables are dependent enough: if the tail
P(mean >= c + t) carries probability alpha while the certified bound says it
should be below exp(-n D(c+t || c)), some drawn subset must have an inflated
product mean, and the search phase visits subsets with exactly the weights
under which that excess is guaranteed on average.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dist_models import JointModel
from .entropy_core import (DEFAULT_MIN_ROUNDS, LAMBDA_CAP, BoundParams, at_most, check_positive_int,
                           chernoff_bound, normalize, optimize_lambda, proof_case)
from .errors import BudgetOverflowError, ValidationError
from .mc_engine import (
    DEFAULT_BLOCK_SIZE,
    WITNESS_CONFIRM_TAG,
    WITNESS_SEARCH_TAG,
    _chunk_rows,
    _kernel,
    _mean_and_se,
    _run_blocks,
)

# Hard ceilings for the closed-form budgets.  The formulas grow like
# alpha^(-4/(c t)) and are astronomically conservative away from toy
# parameters; the caps keep default runs finishable while the margin
# threshold retains its closed form.
DEFAULT_SEARCH_CAP = 50_000
DEFAULT_CONFIRM_CAP = 20_000
CONFIRM_Z = 2.0
# Doubles of inclusion uniforms the search draws per slice (128 KB).
UNIFORM_SLICE = 2**14

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


def _pack(bits: np.ndarray, pad: np.ndarray, out: np.ndarray) -> None:
    """Write the index-set keys of the rows of ``bits``, a C-ordered (m, 8 k)
    bool array, into the word-major (w, m) uint64 ``out``: column 0 is the
    top bit of word 0, so numeric order, word 0 first, is row order.  One
    flat ``np.packbits`` fills the first k byte columns of ``pad``, a (>= m,
    8 w) uint8 buffer zero in its other columns, read as big-endian words."""
    m, k = bits.shape[0], bits.shape[1] // 8
    pad[:m, :k] = np.packbits(bits.reshape(-1)).reshape(m, k)
    np.copyto(out.T, pad[:m].view(">u8"))


def _bits(keys: np.ndarray) -> np.ndarray:
    """The (m, 64 w) bool rows of word-major (w, m) keys; inverts ``_pack``."""
    return np.unpackbits(keys.T.astype(">u8", order="C").view(np.uint8), axis=1).view(bool)


def _tally(keys: np.ndarray, counts: np.ndarray, hits: np.ndarray) -> tuple:
    """Merge equal index-set keys (word-major (w, m) uint64, from ``_pack``),
    summing their counts and hits.

    Returns the distinct keys in ascending order, which is the lexicographic
    order of their rows, with their summed counts and hits; each sum adds its
    rows in input order.  One native-word sort orders single-word keys; wider
    ones (n > 64) go through ``np.lexsort``, word 0 as the primary key.
    """
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    ordered = keys[:, order]
    start = np.empty(len(order), dtype=bool)
    start[:1] = True
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=start[1:])
    group = np.cumsum(start)
    group -= 1
    inverse = np.empty_like(order)
    inverse[order] = group
    return (ordered[:, start], np.bincount(inverse, weights=counts),
            np.bincount(inverse, weights=hits))


def _bucket_width(m: int, n: int) -> int:
    """Bits of the cross-block hash for m rounds over n variables: about one
    bucket per set that can be drawn, of which there are at most min(m, 2^n),
    and at most 20 bits, 8 MiB of float64 totals.  The width only sets how
    many entries the final merge reads, never what it finds."""
    return max(1, min(m, 2**n, 1 << 20).bit_length() - 1)


def _buckets(keys: np.ndarray, width: int) -> np.ndarray:
    """The hash bucket in [0, 2^width) of each word-major key: Fibonacci
    hashing of its words."""
    bucket = np.zeros(keys.shape[1], dtype=np.uint64)
    for word in keys:
        bucket ^= word
        bucket *= np.uint64(0x9E3779B97F4A7C15)
    bucket >>= np.uint64(64 - width)
    return bucket.view(np.int64)


def _best_candidate(
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], c: float, min_rounds: int,
    width: int,
) -> tuple[int, float, tuple[int, ...]]:
    """Tally per-block (index-set keys, counts, hits); pick the search winner.

    Each block's counts add into 2^width bucket totals as it arrives.  All
    entries of a set share a bucket, so a set drawn min_rounds times lies in
    a bucket drawn at least that often, and only those buckets' entries are
    merged, in block order.  Candidates are the non-empty sets drawn at least
    ``min_rounds`` times.  Returns (candidate count, winner's excess
    hit/count - c^|S|, winner), or (0, 0.0, ()).  Ties break toward smaller,
    lexicographically earlier sets.
    """
    totals, kept = np.zeros(2**width), []
    for keys, counts, hits in blocks:
        np.add.at(totals, _buckets(keys, width), counts)
        kept.append((keys, counts, hits))
    heavy = []
    for keys, counts, hits in kept:
        h = totals[_buckets(keys, width)] >= min_rounds
        heavy.append((keys[:, h], counts[h], hits[h]))
    keys, counts, hits = _tally(*(np.concatenate(part, axis=-1) for part in zip(*heavy)))
    eligible = np.flatnonzero((counts >= min_rounds) & keys.any(axis=0))
    if not len(eligible):
        return 0, 0.0, ()
    keys, rows = keys[:, eligible], _bits(keys[:, eligible])
    sizes = rows.sum(axis=1)
    powers = np.array([c**k for k in range(rows.shape[1] + 1)])
    scores = hits[eligible] / counts[eligible] - powers[sizes]
    top = scores.max()
    tied = np.flatnonzero(scores == top)
    tied = tied[sizes[tied] == sizes[tied].min()]
    # Among equal sizes, the earliest index tuple has the largest key.
    best = tied[np.lexsort(keys[::-1, tied])[-1]]
    return len(eligible), float(top), tuple(int(i) for i in np.flatnonzero(rows[best]))


def find_dependent_set(
    model: JointModel,
    wp: WitnessParams,
    seed: int = 0,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    min_rounds_per_subset: int = DEFAULT_MIN_ROUNDS,
) -> WitnessReport:
    """Two-phase search for a subset with E[prod_{i in S} X_i] > c^|S|.

    Search phase: ``wp.m_search`` rounds of the coupled process, each
    scoring prod_{i in I} X_i for its drawn index set I, grouped by I;
    non-empty sets seen at least
    ``min_rounds_per_subset`` times become candidates, ranked by empirical
    excess over c^|S| (ties break toward smaller, lexicographically earlier
    sets).  Confirm phase: ``wp.m_confirm`` fresh rows estimate the mean of
    prod_{i in S} X_i for the single best candidate only; the verdict is
    "found" iff that estimate exceeds c^|S| + margin_threshold by at least
    ``CONFIRM_Z`` standard errors.

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
    rows = _chunk_rows(n, block)  # per chunk
    step = max(1, UNIFORM_SLICE // n)  # rows of uniforms per slice
    uniforms = np.empty(min(rows, step) * n)
    words = -(-n // 64)  # per key
    bits = np.zeros((rows, -(-n // 8) * 8), dtype=bool)  # the padding stays False
    pad = np.zeros((rows, 8 * words), dtype=np.uint8)  # bytes past bits' stay 0
    outside = np.empty((n, rows), dtype=bool)
    keys = np.empty((words, block), dtype=np.uint64)
    ones, weights = np.ones(block), np.empty(block)

    def search_tally(rng: np.random.Generator, m: int) -> tuple:
        # After each chunk's rows, a uniform per row and variable, drawn in
        # slices, draws their index sets.  A variable outside the set scores
        # 1.0: every xtilde lies in [0, 1], so max(xtilde, 1.0) is 1.0,
        # max(xtilde, 0.0) is xtilde (up to the sign of a zero, which sums
        # that start at +0.0 never show), and the plain product keeps the
        # bits of the product over the members alone, since 1.0 x = x.
        for part, _, xt in chunks(rng, m):
            r = xt.shape[1]
            for s in range(0, r, step):
                u = uniforms[: n * min(step, r - s)].reshape(-1, n)
                np.less(rng.random(out=u), wp.lam, out=bits[s:s + len(u), :n])
            _pack(bits[:r], pad, keys[:, part])
            np.logical_not(bits[:r, :n].T, out=outside[:, :r])
            np.maximum(xt, outside[:, :r], out=xt)
            np.multiply.reduce(xt, axis=0, out=weights[part])
        return _tally(keys[:, :m], ones[:m], weights[:m])

    blocks = _run_blocks(seed, WITNESS_SEARCH_TAG, wp.m_search, block_size, search_tally)
    candidates, score, best = _best_candidate(
        blocks, wp.c, min_rounds_per_subset, _bucket_width(wp.m_search, n))
    if not candidates:
        return WitnessReport(
            verdict="not_found",
            subset=(),
            empirical_moment=0.0,
            threshold=0.0,
            confirm_std_error=0.0,
            samples_used=wp.m_search,
            candidates=0,
            note=(
                f"no non-empty subset was drawn at least {min_rounds_per_subset} "
                f"times in {wp.m_search} search rounds"
            ),
        )

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
                   samples_used=wp.m_search + wp.m_confirm, candidates=candidates)
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
