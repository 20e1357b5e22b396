"""The coupled sampling process and exact verification of its inequality chain.

One round of the process: draw X from the model, normalize to [0, 1], draw
conditionally independent indicator Y_i ~ Bernoulli(Xtilde_i), draw a random
index set I by including each i independently with probability lambda, and
record the product prod_{i in I} Y_i together with whether the sum cleared
the tail threshold.  Averaging that product links the certified moments to
the tail probability through a four-step inequality chain; ``verify_chain``
evaluates every step exactly while each fold step fits under ``atom_cap``.

Given X the round product is Bernoulli(prod_i (lam Xtilde_i + 1 - lam)), so
``estimate_product`` integrates Y and I out: it draws only X and averages
that row weight, which the exact routines sum over the folded law of the sum.
The witness integrates out Y alone (E[prod_{i in I} Y_i | X, I] =
prod_{i in I} Xtilde_i); only ``draw_round``, which returns Y, draws it.

Each sampler (``estimate_product``, ``draw_round`` and the witness) sets
up the round kernel once per call with ``_kernel``, which range-checks the
model before any draw and decides once whether xtilde is x.  Its chunks
come from one variable-major (n, rows) float64 workspace per call, reused
for every chunk of every block: the model's ``_draw`` fills it (the 0/1
models from byte-sized coins, ``dist_models._coins``), and a second one
holds xtilde unless that is x.
``estimate_product`` forms the weight (lam xtilde + 1) - lam in place, and
``np.multiply.reduce`` over axis 0 folds each column.  That fold multiplies
variables 0..n-1 left to right, as ``np.prod`` along a C-ordered row does,
so the weights keep the bits of the row-major kernel
(``dist_models._row_weights``) while vectorising across rows.  Conditional
mode tests the tail on sums in that order too, then weighs only the kept
rows; ``draw_round`` and the exact fold add in the same order, so an atom
near ``tail_cutoff`` falls on the same side for all three.

``estimate_product`` gives Boolean and planted models under the identity map
a count kernel where a one's factor (lam 1.0 + 1.0) - lam is exactly 1.0: a
row's weight, 1.0 - lam multiplied in once per zero, left to right, is read
from a table by the count of ones ``_ones`` takes from ``_draw``'s coins.

Reproducibility contract: every sampler draws its rows through the one
round kernel ``_kernel`` (or its count kernel) and schedules its blocks
through the one block scheduler ``_run_blocks``; means and standard errors
merge per-block results in ``_mean_and_se``.  Samplers are seeded by an
integer, rounds are partitioned into fixed-size blocks, and block b uses the
generator derived from ``SeedSequence(entropy=seed, spawn_key=(tag, b))``.
Blocks run in order on the calling thread, so results depend only on (seed,
block size).  The ``workers`` keyword is accepted for compatibility and
changes nothing; a thread pool over the blocks ran slower at two threads
than at one on a 2-CPU host (see the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .dist_models import (
    JointModel, MomentCertificate, _unit_image, certify_moments, tail_cutoff,
)
from .entropy_core import (
    DEFAULT_BLOCK_SIZE, DEFAULT_MAX_PROPOSALS, BoundParams, check_positive_int, normalize, slack,
)
from .errors import RejectionBudgetError, ValidationError

# The round kernel samples ESTIMATE_CHUNK // n rows at a time, so each float64
# temporary holds 512 KiB and stays in L2, where a whole block took megabytes.
ESTIMATE_CHUNK = 2**16

# Stream tags keep the block generators of different estimators disjoint
# even when they share a seed.
PRODUCT_STREAM_TAG = 11
WITNESS_SEARCH_TAG = 21
WITNESS_CONFIRM_TAG = 22

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_MAX_PROPOSALS",
    "SamplingRound",
    "Estimate",
    "ChainLink",
    "ChainReport",
    "block_rng",
    "draw_round",
    "estimate_product",
    "exact_product_expectation",
    "verify_chain",
]


def block_rng(seed: int, tag: int, block: int) -> np.random.Generator:
    """Generator for one block of one named stream under a shared seed."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, block)))


def _check_round_args(model: JointModel, params: BoundParams, lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lam must lie in [0, 1], got {lam}")
    if params.n != model.n:
        raise ValidationError(f"params.n={params.n} does not match model n={model.n}")
    return lam


def _run_blocks(
    seed: int, tag: int, total: int, block_size: int,
    fn: Callable[[np.random.Generator, int], object],
) -> Iterator:
    """The block scheduler: yield fn(rng, rounds) per block of ``total`` rounds.

    Blocks hold ``block_size`` rounds (the last one the remainder), block b
    draws from ``block_rng(seed, tag, b)``, and results come in block order.
    A block is computed only when the consumer asks for it, so one that stops
    early draws no further block.
    """
    for b in range(-(-total // block_size)):
        yield fn(block_rng(seed, tag, b), min(block_size, total - b * block_size))


def _chunk_rows(n: int, m: int) -> int:
    """Rows per chunk of a block of m rows of n values: ESTIMATE_CHUNK // n,
    at least 1 and at most m.  The count kernel's stream depends on it."""
    return min(m, max(1, ESTIMATE_CHUNK // n))


def _kernel(model: JointModel, params: BoundParams, m: int) -> tuple[bool, Callable[..., Iterator]]:
    """The round kernel of one call, for blocks of up to m rows: (same, chunks).

    It range-checks the model once (``JointModel._check_range``), before any
    draw.  ``same`` says xtilde is x itself: nothing clipped, b = 1 and every
    a_i = 0.  ``chunks(rng, m)`` yields m rows from one generator, a chunk of
    ``_chunk_rows`` rows at a time, as (the chunk's slice of the m rows, x,
    xtilde), both variable-major; xtilde is (x - a_i) / b, clipped to [0, 1]
    if the check asks.  ``_draw`` fills workspaces that the first ``chunks``
    allocates and every block of the call reuses: x's, and xtilde's unless
    ``same``.  So each chunk lives only until the next, and the consumer may
    overwrite it; the consumer's draws in between follow the chunk's.
    """
    clip = model._check_range(params)
    same = not clip and params.b == 1.0 and not any(params.a)
    n, room, rooms = model.n, model.n * _chunk_rows(model.n, m), []
    a = np.asarray(params.a)[:, None]

    def chunks(rng: np.random.Generator, m: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        if not rooms:
            rooms.extend(np.empty(room) for _ in range(2 - same))
        rows = _chunk_rows(n, m)
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            x = rooms[0][: n * (stop - start)].reshape(n, -1)
            model._draw(rng, x)
            xt = x if same else _unit_image(x, a, params.b, clip,
                                            out=rooms[1][: x.size].reshape(x.shape))
            yield slice(start, stop), x, xt

    return same, chunks


def _mean_and_se(blocks: Iterable[np.ndarray], limit: int) -> tuple[int, float, float]:
    """(count, mean, standard error) of the first ``limit`` samples: merges
    each block's (count, mean, centred sum of squares) in block order, and
    consumes no block past the limit.  count < limit if the blocks run out."""
    count, mean, m2 = 0, 0.0, 0.0
    for samples in blocks:
        kept = samples[: limit - count]
        if len(kept):
            k, k_mean = len(kept), float(kept.mean())
            k_m2 = float(np.sum(np.square(kept - k_mean)))
            merged = count + k
            delta = k_mean - mean
            mean = (count * mean + k * k_mean) / merged
            m2 += k_m2 + delta * delta * (count * k / merged)
            count = merged
        if count == limit:
            break
    return count, mean, math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0


@dataclass(frozen=True, eq=False)
class SamplingRound:
    """Everything observable in one round of the coupled process."""

    x: np.ndarray
    xtilde: np.ndarray
    y: np.ndarray
    subset: tuple[int, ...]
    product: int
    sum_exceeds: bool


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean of the round product with its standard error."""

    mean: float
    std_error: float
    n_samples: int
    conditional_on_tail: bool

    def __post_init__(self) -> None:
        check_positive_int("n_samples", self.n_samples)
        if not 0.0 <= self.mean <= 1.0 or self.std_error < 0.0:
            raise ValidationError(
                f"inconsistent estimate: mean={self.mean}, std_error={self.std_error}"
            )


def draw_round(
    model: JointModel, params: BoundParams, lam: float, rng: np.random.Generator
) -> SamplingRound:
    """Run a single round of the coupled process.

    lam may be anything in [0, 1]; lam = 1 selects every index, lam = 0 none
    (the empty product is 1).
    """
    lam = _check_round_args(model, params, lam)
    ((_, x, xt),) = _kernel(model, params, 1)[1](rng, 1)
    y = rng.random(xt.shape) < xt
    member = rng.random(xt.shape) < lam
    return SamplingRound(
        x=x[:, 0],
        xtilde=xt[:, 0],
        y=y[:, 0].astype(np.int8),
        subset=tuple(int(i) for i in np.flatnonzero(member)),
        product=int(np.all(y | ~member)),
        sum_exceeds=bool(np.cumsum(x)[-1] >= tail_cutoff(params.threshold)),  # left to right
    )


def estimate_product(
    model: JointModel,
    params: BoundParams,
    lam: float,
    n_samples: int,
    *,
    conditional: bool = False,
    seed: int = 0,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_proposals: int = DEFAULT_MAX_PROPOSALS,
) -> Estimate:
    """Estimate E[prod_{i in I} Y_i], optionally conditioned on the tail event.

    The estimate is the mean of the weights prod_i (lam xtilde_i + 1 - lam)
    of sampled vectors x, with their sample standard error.  Unconditional
    mode draws exactly ``n_samples`` vectors.  Conditional mode keeps drawing
    whole blocks of proposals and keeps the vectors whose sum cleared the
    threshold, until ``n_samples`` acceptances exist; if ``max_proposals``
    vectors (rounded up to whole blocks) are exhausted first it raises
    ``RejectionBudgetError``, as it does before any draw if no atom's sum
    can reach the threshold (``JointModel._max_sum``).  Per-block (count,
    mean, centred sum of squares) merge in block order, so results depend
    only on (seed, block_size, n_samples).  ``workers`` is accepted for
    compatibility and validated; blocks run in order on one thread.
    """
    lam = _check_round_args(model, params, lam)
    for name, value in (("n_samples", n_samples), ("workers", workers), ("block_size", block_size)):
        check_positive_int(name, value)
    total = n_samples
    if conditional:
        check_positive_int("max_proposals", max_proposals)
        total = max(1, math.ceil(max_proposals / block_size)) * block_size
    cutoff = tail_cutoff(params.threshold)
    same, chunks = _kernel(model, params, min(block_size, total))
    if conditional:
        largest, rounding = model._max_sum()
        if largest + rounding < cutoff:
            raise RejectionBudgetError(
                f"conditional estimate got 0 acceptances from 0 proposals; needed "
                f"{n_samples}. No atom the model can draw reaches the threshold "
                f"{params.threshold}: the largest atom sum is {largest}, so raising "
                f"max_proposals cannot help."
            )
    counted = hasattr(model, "_ones") and same and (lam * 1.0 + 1.0) - lam == 1.0
    by_ones = np.multiply.accumulate([1.0] + [(lam * 0.0 + 1.0) - lam] * model.n)[::-1]

    def block(rng: np.random.Generator, m: int) -> np.ndarray:
        if counted:  # the count kernel, in the chunk shapes of _kernel
            step = _chunk_rows(model.n, m)
            ones = np.concatenate([model._ones(rng, min(step, m - s)) for s in range(0, m, step)])
            return by_ones[ones[ones >= cutoff] if conditional else ones]
        weights = np.empty(m)
        kept = 0
        for _, x, xt in chunks(rng, m):
            if conditional:
                # variables added left to right (NumPy sums a lone column pairwise)
                sums = np.add.reduce(x, axis=0) if x.shape[1] > 1 else np.cumsum(x)[-1:]
                xt = xt[:, sums >= cutoff]
            np.multiply(xt, lam, out=xt)  # the operations of _row_weights
            np.add(xt, 1.0, out=xt)
            np.subtract(xt, lam, out=xt)
            k = xt.shape[1]
            np.multiply.reduce(xt, axis=0, out=weights[kept:kept + k])
            kept += k
        return weights[:kept]

    blocks = _run_blocks(seed, PRODUCT_STREAM_TAG, total, block_size, block)
    count, mean, std_error = _mean_and_se(blocks, n_samples)
    if count < n_samples:
        raise RejectionBudgetError(
            f"conditional estimate got {count} acceptances from "
            f"{total} proposals; needed {n_samples}. "
            f"The tail event is too rare for this budget; raise max_proposals "
            f"or lower n_samples."
        )
    return Estimate(
        mean=mean,
        std_error=std_error,
        n_samples=n_samples,
        conditional_on_tail=bool(conditional),
    )


def exact_product_expectation(
    model: JointModel, lam: float, params: BoundParams | None = None
) -> float:
    """Exact E[prod_{i in I} Y_i] = E[prod_i (lam Xtilde_i + 1 - lam)].

    Integrating out the indicators and the index set coordinate-wise leaves
    a plain expectation over X, summed here over the folded law of the sum.
    With params omitted the model values must already live in [0, 1].
    """
    params = BoundParams.boolean(model.n, 1.0, 0.0) if params is None else params
    lam = _check_round_args(model, params, lam)
    return float(model._fold(params, lam)[2].sum())


@dataclass(frozen=True)
class ChainLink:
    """One exactly-evaluated inequality lhs >= rhs; ``passed`` allows the
    package tolerance ``slack()`` (chain quantities lie in [0, 1])."""

    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs - slack()


@dataclass(frozen=True)
class ChainReport:
    """Exact evaluation of the four-step chain at one lambda.

    Link names, in order:

    * ``product_mean_vs_per_variable``: (lam ctilde + 1 - lam)^n >=
      prod_i (lam ctilde_i + 1 - lam).  AM-GM; holds always.
    * ``certified_moments_vs_process``: prod_i (lam ctilde_i + 1 - lam) >=
      E[prod_{i in I} Y_i].  The only link that uses the moment hypothesis.
    * ``restrict_to_tail``: E[prod Y] >= E[prod Y; tail].
    * ``tail_mass_envelope``: E[prod Y; tail] >=
      (1-lam)^(n (1 - ctilde - ttilde)) P(tail).
    """

    lam: float
    links: tuple[ChainLink, ...]
    certificates: tuple[MomentCertificate, ...]
    hypothesis_ok: bool
    tail_probability: float
    expected_product: float
    expected_product_on_tail: float

    @property
    def all_passed(self) -> bool:
        return all(link.passed for link in self.links)

    @property
    def failed_links(self) -> tuple[str, ...]:
        return tuple(link.name for link in self.links if not link.passed)

    @property
    def explained(self) -> bool:
        """True when every failure is the moment link with a failed certificate.

        A report that is not ``all_passed`` and not ``explained`` would mean
        an inequality that should hold unconditionally does not; that is a
        genuine inconsistency, not a property of the model.
        """
        if self.all_passed:
            return True
        return self.failed_links == ("certified_moments_vs_process",) and not self.hypothesis_ok

    def link(self, name: str) -> ChainLink:
        return {item.name: item for item in self.links}[name]


def verify_chain(
    model: JointModel,
    params: BoundParams,
    lam: float,
    max_subset_size: int | None = None,
    subset_budget: int | None = None,
) -> ChainReport:
    """Evaluate the full inequality chain exactly at one lambda in [0, 1).

    All expectations are exact sums over the folded law of the coordinate
    sum (see ``JointModel._fold``), so a failed link is an exact statement
    about the model, not sampling noise.  The moment certificates cover
    subsets up to ``max_subset_size`` (default: all), walked after the fold.
    """
    lam = _check_round_args(model, params, lam)
    if lam == 1.0:
        raise ValidationError(f"verify_chain needs lam in [0, 1), got {lam}")
    norm = normalize(params)
    sums, mass, weighted = model._fold(params, lam)
    kwargs = {} if subset_budget is None else {"subset_budget": subset_budget}
    certificates = tuple(certify_moments(model, params, max_subset_size, **kwargs))
    hypothesis_ok = all(cert.satisfied for cert in certificates)

    tails = sums >= tail_cutoff(params.threshold)
    expected_product = float(weighted.sum())
    expected_on_tail = float(weighted[tails].sum())
    tail_probability = float(mass[tails].sum())

    mean_side = (lam * norm.ctilde + 1.0 - lam) ** params.n
    per_variable = float(np.prod([lam * ci + 1.0 - lam for ci in norm.ctilde_i]))
    envelope = (1.0 - lam) ** (params.n * (1.0 - norm.ctilde - norm.ttilde)) * tail_probability
    links = (
        ChainLink("product_mean_vs_per_variable", mean_side, per_variable),
        ChainLink("certified_moments_vs_process", per_variable, expected_product),
        ChainLink("restrict_to_tail", expected_product, expected_on_tail),
        ChainLink("tail_mass_envelope", expected_on_tail, envelope),
    )
    return ChainReport(
        lam=lam,
        links=links,
        certificates=certificates,
        hypothesis_ok=hypothesis_ok,
        tail_probability=tail_probability,
        expected_product=expected_product,
        expected_product_on_tail=expected_on_tail,
    )
