"""Joint distributions with sample access and exact discrete computation.

Every model here is a finite-support joint law on R^n exposing two views:

* sampling (``sample`` / ``sample_many``) against a numpy ``Generator``, all
  through one primitive per model, ``_draw``; the 0/1 models' one coin stream
  (``_coin_rows``, also read by ``_ones``) draws one random byte per coin and
  45 more bits on a tie (``_coins``), the law of a uniform compared with p, and
* exact computation (``sum_support``, ``exact_moment``, ``exact_tail``,
  ``certify_moments``, ``check_support_range``) without enumerating atoms.

Every model is a factor table (``JointModel``); an explicit table is one
factor, and the mixture is a weighted sum of two factor tables (its shared
atoms, and its independent part).  The exact routines fold factors instead
of walking the support: the law of the coordinate sum folds factor by factor
into a map from partial sum to mass, merging equal sums, and a product
moment is the product of per-factor moments.  Only a factor read by several
variables (an explicit table, the planted block, the shared atoms) is
walked row by row.  A factor keeps only the rows it can draw: the
constructor drops rows of probability 0.  The range check reads only each
variable's least and greatest value, as x -> (x - a_i) / b (``_unit_image``,
the one map onto the unit cube) is monotone.

``atom_cap`` bounds one fold step, states x factor rows, which the fold
checks before it allocates (``SupportTooLargeError``).  Sums and products
run in a fixed order through NumPy reductions, never threaded BLAS dot
products, so exact results are bit-reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy_core import PROB_SUM_TOL, BoundParams, at_most, check_positive_int, rounding, slack
from .errors import SubsetBudgetError, SupportTooLargeError, ValidationError

DEFAULT_ATOM_CAP = 10**6
DEFAULT_SUBSET_BUDGET = 10**6
DEFAULT_CHUNK = 1 << 16
# Explicit-table entries held in memory are packed this many at a time.
PACK_BLOCK = 1 << 10

MODEL_KINDS = (
    "independent",
    "boolean_iid",
    "planted_clique",
    "exchangeable_mixture",
    "explicit_table",
)

__all__ = [
    "DEFAULT_ATOM_CAP",
    "DEFAULT_SUBSET_BUDGET",
    "MODEL_KINDS",
    "JointModel",
    "IndependentModel",
    "BooleanIIDModel",
    "PlantedCliqueModel",
    "ExchangeableMixtureModel",
    "ExplicitTableModel",
    "MomentCertificate",
    "model_from_spec",
    "sample",
    "exact_moment",
    "exact_tail",
    "certify_moments",
    "check_support_range",
]


def _coin(p) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of one Bernoulli(p) factor on {0, 1}."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    return np.array([0.0, 1.0]), np.array([1.0 - p, p])


def _words(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` random 64-bit words, those ``rng.integers(0, 2**64, size,
    dtype=np.uint64)`` returns.  On a 64-bit bit generator they are read
    from ``random_raw``, which is faster on one thread: 31-38 against 45-54
    us per 7400 words, and 2.5 against 13 us per 160 tie words (timeit,
    NumPy 2.4.6, 2-CPU Xeon VM).  MT19937's raw outputs are 32-bit.  (Named
    here, not at import, which would load ``numpy.random`` into runs that
    sample nothing.)"""
    if isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM,
                                      np.random.Philox, np.random.SFC64)):
        return rng.bit_generator.random_raw(size)
    return rng.integers(0, 2**64, size, dtype=np.uint64)


def _coins(rng: np.random.Generator, p: float, shape: tuple[int, ...]) -> np.ndarray:
    """Bernoulli(p) coins, a bool array of ``shape``, with exactly the law
    of ``rng.random(shape) < p``.

    NumPy's uniform is k 2^-53 for a 53-bit integer k, so that coin is
    k < T with T = ceil(p 2^53).  Each coin's k starts with one random byte,
    read little-endian from 64-bit words (``_words``), which decides the
    coin unless it equals T's top byte; only then (probability 1/256) does
    the coin draw k's low 45 bits, the top 45 bits of one more word.
    p = 0 and p = 1 (whose top byte would be 256) draw nothing.
    """
    if p <= 0.0 or p >= 1.0:
        return np.full(shape, p >= 1.0)
    threshold = math.ceil(math.ldexp(p, 53))
    top, low = threshold >> 45, threshold & ((1 << 45) - 1)
    count = math.prod(shape)
    words = _words(rng, -(-count // 8))
    key = words.astype("<u8", copy=False).view(np.uint8)[:count]
    coins = key < top
    tied = np.flatnonzero(key == top)
    if len(tied):
        coins[tied] = _words(rng, len(tied)) >> 19 < low
    return coins.reshape(shape)


def _row_counts(coins: np.ndarray) -> np.ndarray:
    """Trues per row of a (rows, w) bool array; einsum adds bytes in uint8, 255 at a time."""
    return sum(np.einsum("ij->i", coins[:, s:s + 255].view(np.uint8)).astype(np.intp)
               for s in range(0, coins.shape[1], 255))


def _distinct(keys: list) -> tuple[list[int], np.ndarray]:
    """For a list of hashable keys: where each distinct key first occurs, in
    order, and for every key the rank of its distinct key in that order.
    (Dicts, not ``np.unique``, whose code would add about 0.4 MB to the
    resident size of runs that call nothing else of it.)"""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # the last write wins
    rank = dict(zip(dict.fromkeys(keys), range(len(keys))))
    return sorted(first.values()), np.array(list(map(rank.__getitem__, keys)), dtype=np.intp)


def check_table(values: np.ndarray, probs: np.ndarray, name: str) -> None:
    """The check of every user-given probability table: one probability per
    value row, finite values, and finite, non-negative probabilities that
    sum to 1 within PROB_SUM_TOL."""
    if probs.ndim != 1 or len(values) != len(probs):
        raise ValidationError(
            f"{name} has {len(values)} value rows but probabilities of shape {probs.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} has non-finite values")
    if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
        raise ValidationError(f"{name} has negative or non-finite probabilities")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"{name} probabilities sum to {total}, expected 1")


def _parse_atoms(atoms, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of one discrete marginal given as (value,
    probability) pairs of numbers (``array('d')`` takes what ``float()``
    takes, except text); ``JointModel`` checks the table they form."""
    values, probs = array("d"), array("d")
    try:
        for v, p in atoms:
            values.append(v)
            probs.append(p)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a list of [value, prob] pairs") from exc
    if not probs:
        raise ValidationError(f"{name} must contain at least one atom")
    return np.frombuffer(values), np.frombuffer(probs)


class _Packer:
    """An explicit table packed as its atoms come: one growing float64
    buffer of their vectors, row after row, and one of their probabilities,
    which ``ExplicitTableModel`` takes as its arrays without a second fill.

    It is fed entries in memory (``pack``, which raises at the first that
    does not fit) or by the JSON decoder (``hook``).  An atom fits if its
    vector holds numbers, as many as the first atom's, and its probability
    is a number; ``array('d')`` takes what ``float()`` takes, except text.
    """

    def __init__(self):
        self.values, self.probs, self.width = array("d"), array("d"), None

    def add(self, x, p) -> bool:
        """Append the atom (x, p) if it fits; otherwise append nothing and return False."""
        values = self.values
        start = len(values)
        try:
            if isinstance(x, list):
                values.fromlist(x)  # twice as fast as ``extend``, for lists only
            else:
                values.extend(x)
            if len(values) - start == self.width:
                self.probs.append(p)
                return True
            if self.width is None:  # the first atom sets the width
                self.probs.append(p)
                self.width = len(values) - start
                return True
        except (TypeError, ValueError, OverflowError):
            pass
        del values[start:]
        return False

    def pack(self, entries: Iterable) -> None:
        """Append every entry, a {"x", "p"} object or an (x, p) pair; at the first
        that does not fit, raise ``_require``'s error for a missing key, "pairs"
        for no atom, else the widths of the first atom and this one."""
        add, kind = self.add, ExplicitTableModel.kind
        for e in entries:
            try:
                x, p = (e["x"], e["p"]) if isinstance(e, dict) else e
            except KeyError:  # _require raises, naming the missing key
                x, p = _require(e, "x", kind), _require(e, "p", kind)
            except (TypeError, ValueError):  # no pair, so no atom
                x = p = None
            if not add(x, p):
                atom = _Packer()
                if not atom.add(x, p):
                    raise ValidationError(f"{kind} atoms must be (vector, probability) pairs")
                raise ValidationError(
                    f"atom vectors have inconsistent lengths {sorted([self.width, atom.width])}")

    def hook(self, pairs: list[tuple[str, object]]) -> object:
        """``json.loads``' object_pairs_hook: an object of the two keys "x" and
        "p", in either order, whose atom fits is packed and decodes to this
        packer; any other object decodes to its dict, as without the hook."""
        if len(pairs) == 2:
            (k, x), (k2, p) = pairs
            if k == "p":
                k, x, k2, p = k2, p, k, x
            if k == "x" and k2 == "p" and self.add(x, p):
                return self
        return dict(pairs)


def _unit_image(x: np.ndarray, a, b: float, clip: bool = False,
                out: np.ndarray | None = None) -> np.ndarray:
    """The map onto the unit cube, x -> (x - a_i) / b, clipped to [0, 1] if
    ``clip``, with ``a`` broadcast against ``x`` (into ``out``, if given)."""
    xt = np.subtract(x, a, out=out)
    np.divide(xt, b, out=xt)
    return np.clip(xt, 0.0, 1.0, out=xt) if clip else xt


def _row_weights(xt: np.ndarray, lam: float) -> np.ndarray:
    """E[prod_{i in I} Y_i | x] = prod_i (lam xt_i + 1 - lam) for each row of xt."""
    return np.multiply.reduce(lam * xt + 1.0 - lam, axis=1)


def _merge(sums: np.ndarray, *masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """Merge equal sums: the ascending distinct sums, and each mass array
    summed per distinct sum in input order."""
    sums, inverse = np.unique(sums, return_inverse=True)
    return (sums, *(np.bincount(inverse, weights=m, minlength=len(sums)) for m in masses))


def _lattice(n: int, max_size: int, chain: tuple[int, ...] | None = None) -> tuple:
    """The subsets of range(n) with at most ``max_size`` elements (given
    ``chain``, the prefixes of that tuple), the empty set first, then by
    size, lexicographically within a size: index arrays (parent, last), where
    subset k is subset parent[k] plus last[k], its largest element (both -1
    for the empty set), and the slice of each size from 1 up."""
    if chain is not None:
        chain = chain[:max_size]
        return (np.arange(-1, len(chain)), np.array([-1, *chain]),
                [slice(s, s + 1) for s in range(1, len(chain) + 1)])
    parents, tops, start = [np.full(1, -1)], [np.full(1, -1)], 0
    for _ in range(max_size):
        top = tops[-1]
        more = n - 1 - top  # the children of a subset add each larger element
        parents.append(np.repeat(np.arange(start, start + len(top)), more))
        tops.append(np.arange(more.sum()) - np.repeat(np.cumsum(more) - more - top - 1, more))
        start += len(top)
    ends = np.cumsum([len(top) for top in tops]).tolist()
    return np.concatenate(parents), np.concatenate(tops), list(map(slice, ends, ends[1:]))


class JointModel:
    """A joint law on R^n as a table of independent discrete factors.

    Factor j is a table of atom rows, ``factor_values[j]`` of shape (m_j, w_j)
    (1-D for one column), with row probabilities ``factor_probs[j]``.  The
    factors' columns sit side by side and variable i reads column ``vmap[i]``;
    several variables may read one column (the planted block does), and
    every factor is read by some variable (the range check of an unread
    factor would see no columns).  The constructor checks each factor with
    ``check_table``, the column map, and that every factor is read, and
    keeps only a factor's rows of positive probability.
    """

    kind = "factor_table"

    def __init__(
        self,
        n: int,
        factor_values: Sequence[np.ndarray],
        factor_probs: Sequence[np.ndarray],
        vmap: Sequence[int],
        atom_cap: int = DEFAULT_ATOM_CAP,
    ):
        self._n = check_positive_int("n", n)
        self._atom_cap = check_positive_int("atom_cap", atom_cap)
        self._sum_cache: tuple[np.ndarray, np.ndarray] | SupportTooLargeError | None = None
        # Each distinct (table, probabilities) pair is converted and checked once, named by
        # its first factor; the lists keep the objects alive, so their ids stay distinct.
        factor_values, factor_probs = list(factor_values), list(factor_probs)
        if len(factor_values) != len(factor_probs):
            raise ValidationError("factor_values and factor_probs must list the same factors")
        checked, pair = _distinct(list(zip(map(id, factor_values), map(id, factor_probs))))
        kept = []
        for j in checked:
            values = np.asarray(factor_values[j], dtype=np.float64)
            if not len(values):
                raise ValidationError("every factor needs at least one value row")
            values, p = values.reshape(len(values), -1), np.asarray(factor_probs[j], np.float64)
            check_table(values, p, self._factor_name(j))
            if not p.all():  # keep only the rows the model can draw
                values, p = values[p > 0.0], p[p > 0.0]
            kept.append((values, p))
        self._fvals, self._fprobs = (list(f) for f in zip(*map(kept.__getitem__, pair.tolist())))
        widths = np.array([values.shape[1] for values, _ in kept])
        starts = np.cumsum([0] + widths[pair].tolist())
        self._vmap = np.asarray(vmap)
        if (self._vmap.shape != (n,) or self._vmap.dtype.kind not in "iu"
                or not np.all((self._vmap >= 0) & (self._vmap < starts[-1]))):
            raise ValidationError(
                f"vmap must give each of the {n} variables an integer column in "
                f"[0, {starts[-1]}), got {vmap!r}"
            )
        self._vmap = self._vmap.astype(np.int64)
        # (factor, column within it) of the global column each variable reads
        owner = np.searchsorted(starts, self._vmap, side="right") - 1
        cols = self._vmap - starts[owner]
        self._reads = list(zip(owner.tolist(), cols.tolist()))
        counts = np.bincount(owner, minlength=len(self._fvals))
        if not counts.all():
            unread = np.flatnonzero(counts == 0).tolist()
            raise ValidationError(f"factors {unread} are read by no variable")
        # Per pair: the least and greatest value each variable reads, for the range check.
        at = np.cumsum([0] + widths.tolist())[pair[owner]] + cols
        self._lo, self._hi = (np.concatenate([f.reduce(values) for values, _ in kept])[at]
                              for f in (np.minimum, np.maximum))
        # The variables reading each factor, ascending, side by side in factor
        # order (``_factor_reads``), and the columns they read: a stable sort
        # by factor, through ``sorted`` for the reason ``_distinct`` gives.
        self._readers = np.array(sorted(range(n), key=owner.tolist().__getitem__), dtype=np.intp)
        self._rcols = cols[self._readers]
        self._first, self._counts = np.cumsum(counts) - counts, counts

    def _factor_name(self, j: int) -> str:
        """How ``check_table`` messages name factor j."""
        return f"{self.kind} factor {j}"

    @property
    def n(self) -> int:
        return self._n

    @property
    def atom_cap(self) -> int:
        return self._atom_cap

    @property
    def enumerable(self) -> bool:
        """Whether ``sum_support()`` succeeds: no fold step exceeds ``atom_cap``."""
        try:
            self.sum_support()
        except SupportTooLargeError:
            return False
        return True

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the C-ordered (n, size) float64 ``out`` with ``size`` joint
        vectors, variable-major: column r of ``out`` is vector r.

        The model's one sampling primitive.
        """
        atoms = [rng.choice(len(fv), size=out.shape[1], p=fp)
                 for fv, fp in zip(self._fvals, self._fprobs)]
        for row, (j, c) in zip(out, self._reads):  # variable i reads column c of factor j
            self._fvals[j][:, c].take(atoms[j], out=row)

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` joint vectors, shape (size, n), C-ordered float64."""
        out = np.empty((self._n, size), dtype=np.float64)
        self._draw(rng, out)
        return out.T.copy()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_many(rng, 1)[0]

    def sum_support(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact distribution of the coordinate sum: (sums, probs) arrays.

        ``sums`` holds the distinct atom sums in ascending order and
        ``probs`` their probabilities.  The outcome is cached on the model,
        a ``SupportTooLargeError`` included.
        """
        if self._sum_cache is None:
            try:
                self._sum_cache = self._fold()
            except SupportTooLargeError as exc:
                self._sum_cache = exc
        if isinstance(self._sum_cache, SupportTooLargeError):
            raise self._sum_cache.with_traceback(None)
        return self._sum_cache

    def _factor_reads(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The variables reading factor j, ascending, and the columns they read."""
        reads = slice(self._first[j], self._first[j] + self._counts[j])
        return self._readers[reads], self._rcols[reads]

    def _check_columns(self, columns: Iterable[int]) -> tuple[int, ...]:
        cols = tuple(int(i) for i in columns)
        if any(i < 0 or i >= self._n for i in cols):
            raise ValidationError(f"column indices must lie in [0, {self._n}), got {cols}")
        if len(set(cols)) != len(cols):
            raise ValidationError(f"column indices must be distinct, got {cols}")
        return cols

    def _parts(self) -> tuple[tuple[float, "JointModel"], ...]:
        """(weight, factor table) pairs whose weighted sum is the law."""
        return ((1.0, self),)

    def _fold_factors(
        self, params: BoundParams | None, lam: float, clip: bool
    ) -> tuple[np.ndarray, ...]:
        # Factor by factor, each step checked against atom_cap before it is
        # formed: every (state, row) pair adds the row's values to the sum
        # column by column, so variables left to right in the order of
        # _readers, as draw_round and the kernel's tail sums add; masses multiply in.
        law = (np.zeros(1), *np.ones((1 if params is None else 2, 1)))
        a = None if params is None else np.asarray(params.a)
        for j, probs in enumerate(self._fprobs):
            if len(law[0]) * len(probs) > self._atom_cap:
                raise SupportTooLargeError(
                    f"the exact fold of this {self.kind} model needs {len(law[0])} sums x "
                    f"{len(probs)} rows of factor {j}, over atom_cap={self._atom_cap}; "
                    f"use sampling instead or raise atom_cap")
            variables, cols = self._factor_reads(j)
            atoms = self._fvals[j].take(cols, axis=1)  # this step's (m_j, k_j) copy
            sums = np.add.outer(law[0], atoms[:, 0])
            for column in atoms.T[1:]:
                sums += column
            masses = (probs,)
            if params is not None:
                # in place: atoms is this step's own copy, and the sums are formed
                xt = _unit_image(atoms, a[variables], params.b, clip, out=atoms)
                np.multiply(xt, lam, out=xt)  # the operations of _row_weights
                np.add(xt, 1.0, out=xt)
                np.subtract(xt, lam, out=xt)
                masses += (probs * np.multiply.reduce(xt, axis=1),)
            law = _merge(sums.ravel(), *(np.multiply.outer(m, w).ravel()
                                         for m, w in zip(law[1:], masses)))
        return law

    def _fold(
        self, params: BoundParams | None = None, lam: float = 0.0
    ) -> tuple[np.ndarray, ...]:
        """Law of the coordinate sum: (ascending distinct sums, masses) and,
        given ``params``, the masses weighted by prod_i ((lam xtilde_i) + 1) - lam.
        Range-checks every atom against ``params`` first."""
        clip = params is not None and self._check_range(params)
        laws = [(w, part._fold_factors(params, lam, clip)) for w, part in self._parts() if w > 0.0]
        if len(laws) == 1:  # its weight is 1
            return laws[0][1]
        return _merge(*(np.concatenate([w * law[k] if k else law[k] for w, law in laws])
                        for k in range(len(laws[0][1]))))

    def _check_range(self, params: BoundParams) -> bool:
        """Raise unless every atom lies in [a_i, a_i + b] up to slack(b);
        return whether one's image leaves [0, 1] and needs clipping.  Each
        variable's least and greatest value decide, as the map is monotone (a
        mixture's parts read the same); the error names the lowest variable
        out of range, with its least value if that leaves, else its greatest."""
        a, tol = np.asarray(params.a), slack(params.b) / params.b
        lo, hi = _unit_image(self._lo, a, params.b), _unit_image(self._hi, a, params.b)
        bad = (lo < -tol) | (hi > 1.0 + tol)
        if bad.any():
            var = int(bad.argmax())
            value = (self._hi if -tol <= lo[var] <= 1.0 + tol else self._lo)[var]
            raise ValidationError(
                f"values leave [a_i, a_i + b]: variable {var} takes value "
                f"{value} outside [{params.a[var]}, {params.a[var] + params.b}]"
            )
        return bool(lo.min() < 0.0 or hi.max() > 1.0)

    def _max_sum(self) -> tuple[float, float]:
        """The largest atom sum the model can draw, and a bound on how far
        rounding may move any atom's sum, in any order of addition.

        The sum is, per part of positive weight, each factor's largest row
        sum over its readers, added over the factors; the largest over the
        parts.  The bound is ``rounding(n)`` times the sum of the variables'
        largest magnitudes, over the rounding of that sum and of any other."""
        largest = -math.inf
        for w, part in self._parts():
            if w > 0.0:
                total = 0.0
                for j, values in enumerate(part._fvals):
                    sums = np.zeros(len(values))
                    for c in part._factor_reads(j)[1].tolist():
                        sums += values[:, c]
                    total += float(sums.max())
                largest = max(largest, total)
        return largest, rounding(self._n) * float(np.maximum(-self._lo, self._hi).sum())

    def _factor_moments(self, j: int, first: list[int], last: list[int]) -> list[float]:
        """E[prod of factor j's variables at positions T] for each T of a
        ``_lattice`` over factor j's variables, given by each T's largest
        element and T's children first[T]:first[T + 1].  A depth-first walk
        holds one weight vector per open level: each T's row products are its
        parent's times one column of a variable-major copy of the factor, added
        by one ``np.add.reduce`` per DEFAULT_CHUNK rows, and those sums in row order."""
        columns = self._fvals[j].T.take(self._factor_reads(j)[1], axis=0)  # C-ordered (k_j, m_j)
        probs, moments = self._fprobs[j], [1.0] + [0.0] * (len(last) - 1)
        for start in range(0, len(probs), DEFAULT_CHUNK):
            chunk = columns[:, start:start + DEFAULT_CHUNK]
            # (subset, end of its run of siblings, their parent's row products)
            stack = [(first[0], first[1], probs[start:start + DEFAULT_CHUNK])]
            while stack:
                q, end, prefix = stack.pop()
                if q < end:
                    stack.append((q + 1, end, prefix))
                    weights = prefix * chunk[last[q]]
                    moments[q] += float(np.add.reduce(weights))
                    stack.append((first[q], first[q + 1], weights))
        return moments

    def _part_moments(self, lattice: tuple, max_size: int, chain: tuple | None) -> np.ndarray:
        # E prod_S X = prod_j E[prod of S's variables in factor j].  A factor read
        # by one variable contributes its mean, multiplied in along the subset's
        # parent (a joint factor's readers multiply by 1.0, exactly).  The joint
        # factors' moments multiply in factor order, then into the means, each found by
        # its restriction's index in the factor's lattice: keys (parent + 1) k + last ascend.
        parent, last, levels = lattice
        owner = np.array([j for j, _ in self._reads])
        pos = np.empty(self._n, dtype=np.intp)  # each variable's place among its factor's readers
        pos[self._readers] = np.arange(self._n) - np.repeat(self._first, self._counts)
        means, joint, lattices, subs = np.ones(len(self._counts)), [], {}, {}
        for i in chain or ():  # each factor's positions on the chain
            subs[owner[i]] = subs.get(owner[i], ()) + (int(pos[i]),)
        for j, k in enumerate(self._counts.tolist()):
            sub = None if chain is None else subs.get(j, ())
            if (k, sub) not in lattices:
                up, top, _ = _lattice(k, min(max_size, k), sub)
                first = np.searchsorted(up, np.arange(len(up) + 1)).tolist()
                lattices[k, sub] = (up + 1) * k + top, first, top.tolist()
            keys, first, top = lattices[k, sub]
            moments = self._factor_moments(j, first, top) if sub != () else [1.0]
            if k == 1:
                means[j] = moments[-1]  # 1.0 if no subset is walked
            else:
                joint.append((owner == j, k, keys, np.array(moments), np.zeros_like(parent)))
        product = np.ones(len(parent))
        for level in levels:
            up, i = parent[level], last[level]
            product[level] = product[up] * means[owner[i]]
            for reads, k, keys, _, restriction in joint:
                index, rows = restriction[up], reads[i]
                index[rows] = np.searchsorted(keys, (index[rows] + 1) * k + pos[i[rows]])
                restriction[level] = index
        joint_product = np.ones(len(parent))
        for *_, moments, restriction in joint:
            joint_product *= moments[restriction]
        return product * joint_product

    def _moments(self, max_size: int, chain: tuple | None = None) -> tuple[tuple, np.ndarray]:
        """E[prod_{i in S} X_i] for every S with at most ``max_size`` variables
        (given ``chain``, its prefixes only): their ``_lattice`` and their
        moments in its order (the empty set's is unused)."""
        lattice = _lattice(self._n, max_size, chain)
        parts = [(w, part._part_moments(lattice, max_size, chain))
                 for w, part in self._parts() if w > 0.0]
        if len(parts) == 1:  # its weight is 1
            return lattice, parts[0][1]
        return lattice, sum(w * moments for w, moments in parts)


class IndependentModel(JointModel):
    """Independent variables with arbitrary finite marginals."""

    kind = "independent"

    def __init__(self, marginals: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        n = len(marginals)
        if n < 1:
            raise ValidationError("need at least one marginal")
        values, probs = zip(*(_parse_atoms(marg, f"marginals[{i}]")
                              for i, marg in enumerate(marginals)))
        super().__init__(n, values, probs, vmap=range(n), atom_cap=atom_cap)
        self.marginals = [list(zip(v.tolist(), p.tolist())) for v, p in zip(values, probs)]

    def _factor_name(self, j: int) -> str:
        return f"marginals[{j}]"


class BooleanIIDModel(JointModel):
    """n i.i.d. Bernoulli(p) variables on {0, 1}."""

    kind = "boolean_iid"

    def __init__(self, n: int, p: float, atom_cap: int = DEFAULT_ATOM_CAP):
        values, probs = _coin(p)
        super().__init__(n, [values] * n, [probs] * n, vmap=range(n), atom_cap=atom_cap)
        self.p = float(p)

    def _coin_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The model's stream: ``size`` rows of n coins, drawn row by row."""
        return _coins(rng, self.p, (size, self._n))

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # Transposing the byte-sized coin table keeps the pass over the floats contiguous.
        np.copyto(out, self._coin_rows(rng, out.shape[1]).T.copy())

    def _ones(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The number of ones in each of ``size`` rows, from ``_draw``'s stream."""
        return _row_counts(self._coin_rows(rng, size))


class PlantedCliqueModel(JointModel):
    """Bernoulli(p) variables where a planted index block shares one coin.

    Variables inside the block are perfectly correlated (they all copy a
    single Bernoulli(p) draw); the rest are independent Bernoulli(p).  The
    product moment over a subset S with j block members is p^(1 + |S| - j)
    for j >= 1, which exceeds p^|S| as soon as j >= 2, so any c_i < p^(1/j)
    certificate fails on the block while c_i = p^(1/k) certifies everything.
    """

    kind = "planted_clique"

    def __init__(
        self,
        n: int,
        p: float,
        k: int | None = None,
        indices: Sequence[int] | None = None,
        atom_cap: int = DEFAULT_ATOM_CAP,
    ):
        values, probs = _coin(p)
        n = check_positive_int("n", n)
        if indices is None:
            if k is None:
                raise ValidationError("planted_clique needs k or indices")
            if not isinstance(k, int) or not 1 <= k <= n:
                raise ValidationError(f"k must be an integer in [1, n], got {k!r}")
            indices = tuple(range(k))
        indices = tuple(int(i) for i in indices)
        if not indices or len(set(indices)) != len(indices):
            raise ValidationError(f"indices must be non-empty and distinct, got {indices}")
        if any(i < 0 or i >= n for i in indices):
            raise ValidationError(f"indices must lie in [0, n), got {indices}")
        free = sorted(set(range(n)).difference(indices))
        vmap = np.zeros(n, dtype=np.int64)
        vmap[free] = np.arange(1, len(free) + 1)
        factors = 1 + len(free)
        super().__init__(n, [values] * factors, [probs] * factors, vmap, atom_cap)
        self.p = float(p)
        self.indices = tuple(sorted(indices))
        self.k = len(self.indices)

    def _coin_rows(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The model's stream: every row's block coin, then the free coins row by row."""
        return _coins(rng, self.p, (size,)), _coins(rng, self.p, (size, len(self._fvals) - 1))

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        block, free = self._coin_rows(rng, out.shape[1])
        np.copyto(out, np.vstack([block, free.T]).take(self._vmap, axis=0))

    def _ones(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The number of ones in each of ``size`` rows, from ``_draw``'s stream."""
        block, free = self._coin_rows(rng, size)
        return self.k * block + _row_counts(free)


class ExchangeableMixtureModel(JointModel):
    """Mixture: with probability rho all variables copy one draw from the
    marginal, otherwise all n are drawn independently from that marginal.
    The factors describe the independent part; the shared atoms are a
    one-factor table that every variable reads.
    """

    kind = "exchangeable_mixture"

    def __init__(self, n: int, rho: float, atoms: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        rho = float(rho)
        if not 0.0 <= rho <= 1.0:
            raise ValidationError(f"rho must lie in [0, 1], got {rho}")
        values, probs = _parse_atoms(atoms, "atoms")
        n = check_positive_int("n", n)
        super().__init__(n, [values] * n, [probs] * n, vmap=range(n), atom_cap=atom_cap)
        self._shared = shared = JointModel.__new__(JointModel)  # of the arrays checked above
        vars(shared).update(vars(self), _fvals=self._fvals[:1], _fprobs=self._fprobs[:1],
                            _vmap=0 * self._vmap, _reads=[(0, 0)] * n,
                            _first=self._first[:1], _counts=self._counts[:1] * n)
        self.rho = rho

    def _factor_name(self, j: int) -> str:
        return "atoms"

    @classmethod
    def bernoulli(
        cls, n: int, rho: float, p: float, atom_cap: int = DEFAULT_ATOM_CAP
    ) -> "ExchangeableMixtureModel":
        return cls(n, rho, list(zip(*_coin(p))), atom_cap=atom_cap)

    def _parts(self):
        return ((self.rho, self._shared), (1.0 - self.rho, self))

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        size, values, probs = out.shape[1], self._fvals[0][:, 0], self._fprobs[0]
        mix = rng.random(size) < self.rho
        shared = rng.choice(len(values), size=size, p=probs)
        indep = rng.choice(len(values), size=(size, self._n), p=probs)
        values.take(indep.T, out=out)
        np.copyto(out, values[shared], where=mix)


class ExplicitTableModel(JointModel):
    """Joint law given directly as a table of atoms, (vector, p) pairs or {"x": vector, "p": p}
    objects: one factor whose rows are the atoms, read column i by variable i."""

    kind = "explicit_table"

    def __init__(self, atoms: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        atoms = atoms if isinstance(atoms, Sequence) else list(atoms)
        if not atoms:
            raise ValidationError("explicit_table needs at least one atom")
        table = atoms[0]  # packed by the decoder if every entry is that one packer
        if isinstance(table, _Packer) and len(table.probs) == len(atoms) == atoms.count(table):
            n, values, probs = table.width, np.frombuffer(table.values), np.frombuffer(table.probs)
        else:
            n, values, probs = self._pack(atoms)
        super().__init__(n, [values.reshape(len(probs), n)], [probs], vmap=range(n),
                         atom_cap=atom_cap)

    @classmethod
    def _pack(cls, atoms: Sequence) -> tuple[int, np.ndarray, np.ndarray]:
        """Width, values and probabilities of entries in memory, packed
        PACK_BLOCK at a time (``_Packer.pack``, which raises at the first entry
        that does not fit) and each block copied into arrays allocated once.
        (One buffer grown to the table's size moves inside the heap, leaving
        a hole at each move: `verify` of 262,144 pairs peaked at 150.9 MB
        that way, at 143.3 MB in blocks.)"""
        rows, width = iter(atoms), None
        values, probs = None, np.empty(len(atoms))
        for start in range(0, len(atoms), PACK_BLOCK):
            block = _Packer()
            block.width = width
            block.pack(itertools.islice(rows, PACK_BLOCK))
            width, stop = block.width, start + len(block.probs)
            if values is None:
                values = np.empty(len(atoms) * width)
            values[start * width:stop * width] = block.values
            probs[start:stop] = block.probs
        return width, values, probs


@dataclass(frozen=True)
class MomentCertificate:
    """Comparison of one subset's exact product moment against prod c_i;
    ``satisfied`` is ``at_most(moment, product, |S|)``, a band relative to
    the larger side for the rounding of |S|-term products."""

    subset: tuple[int, ...]
    exact_moment: float
    bound_product: float

    @property
    def satisfied(self) -> bool:
        return at_most(self.exact_moment, self.bound_product, len(self.subset))


def sample(model: JointModel, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw one vector (size None) or a (size, n) batch from the model."""
    if size is None:
        return model.sample(rng)
    return model.sample_many(rng, check_positive_int("size", size))


def exact_moment(model: JointModel, subset: Iterable[int]) -> float:
    """Exact E[prod_{i in subset} X_i] as a product of per-factor moments;
    the empty subset gives 1.  Bit for bit the moment ``certify_moments``
    reports for the subset."""
    cols = tuple(sorted(model._check_columns(subset)))
    if not cols:
        return 1.0
    return float(model._moments(len(cols), chain=cols)[1][-1])


def tail_cutoff(threshold: float) -> float:
    """Smallest atom sum that counts as meeting ``threshold``: threshold - slack(threshold)."""
    return threshold - slack(threshold)


def exact_tail(model: JointModel, threshold: float) -> float:
    """Exact P(sum of coordinates >= threshold) from the law of the sum.

    Atoms whose sum reaches ``tail_cutoff(threshold)``, i.e. within the
    package tolerance ``slack(threshold)`` below it, count as meeting it, so
    thresholds that are exact in real arithmetic are not lost to rounding.
    """
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    sums, probs = model.sum_support()
    mass = float(probs[sums >= tail_cutoff(threshold)].sum())
    return min(1.0, max(0.0, mass))


def certify_moments(
    model: JointModel,
    params: BoundParams,
    max_subset_size: int | None = None,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> list[MomentCertificate]:
    """Exact check of E[prod_{i in S} X_i] <= prod_{i in S} c_i over subsets.

    Covers every subset of size up to ``max_subset_size`` (all n when
    omitted) in deterministic order: by size, lexicographic within a size.
    Raises ``SubsetBudgetError`` before doing any work if that would exceed
    ``subset_budget`` subsets.  Both sides are formed size by size over the
    subset lattice (``_lattice``): moments are closed-form products of
    per-factor moments (see ``JointModel._part_moments``), and each bound
    product is its parent's times one c_i, bit for bit ``np.prod`` of the
    subset's c_i.  Only factors read by several variables cost
    O(#subsets x rows); the others cost O(1) per subset.
    """
    if params.n != model.n:
        raise ValidationError(f"params.n={params.n} does not match model n={model.n}")
    max_size = model.n if max_subset_size is None else max_subset_size
    if isinstance(max_size, bool) or not isinstance(max_size, numbers.Integral):
        raise ValidationError(f"max_subset_size must be an integer, got {max_size!r}")
    max_size = int(max_size)
    if not 0 <= max_size <= model.n:
        raise ValidationError(f"max_subset_size must lie in [0, n], got {max_size}")
    subset_budget = check_positive_int("subset_budget", subset_budget)
    count = sum(math.comb(model.n, k) for k in range(max_size + 1))
    if count > subset_budget:
        raise SubsetBudgetError(
            f"certifying subsets up to size {max_size} of n={model.n} needs {count} "
            f"subsets, exceeding subset_budget={subset_budget}"
        )
    (parent, last, levels), moments = model._moments(max_size)
    c, bounds, subsets = np.array(params.c), np.ones(len(parent)), [()]
    for level in levels:
        bounds[level] = bounds[parent[level]] * c[last[level]]
        pairs = zip(parent[level].tolist(), last[level].tolist())
        subsets += [subsets[p] + (i,) for p, i in pairs]
    return [MomentCertificate((), 1.0, 1.0),
            *map(MomentCertificate, subsets[1:], moments[1:].tolist(), bounds[1:].tolist())]


def check_support_range(model: JointModel, params: BoundParams) -> None:
    """Raise unless every atom the model can draw lies in [a_i, a_i + b]
    (``JointModel._check_range``)."""
    if params.n != model.n:
        raise ValidationError(f"params.n={params.n} does not match model n={model.n}")
    model._check_range(params)


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise ValidationError(f"model spec of kind {kind!r} is missing {key!r}")
    return doc[key]


def _model_from_json(text: str | bytes, atom_cap: int | None = None) -> JointModel:
    """``model_from_spec(json.loads(text), atom_cap)``, with an explicit
    table's {"x", "p"} objects packed into its arrays as the decoder yields
    them (``_Packer.hook``): no per-atom dict, list or float outlives its
    object.  ``[x, p]`` pairs decode to lists first, as without the hook.
    If building fails with packed objects in the spec (a support that mixes
    them with other entries, a bad table, an object out of place), the text
    is decoded again without the hook, so every outcome is the plain one's;
    if nothing was packed, the text is dropped before the build.  Bytes are
    read as strict UTF-8, as a spec read as text is, so a byte-order mark or
    another encoding is refused as before."""
    def decode(**hook):  # the bytes outlive their text's decode (see cli._read_spec)
        return json.loads(text.decode() if isinstance(text, bytes) else text, **hook)

    packer = _Packer()
    doc = decode(object_pairs_hook=packer.hook)
    if not packer.probs:  # nothing was packed: the doc is the plain decode
        del text  # the caller may pass the text as its only reference
        return model_from_spec(doc, atom_cap)
    try:
        return model_from_spec(doc, atom_cap)
    except (ValidationError, TypeError, ValueError):  # what a packer in place of an object raises
        del doc
    return model_from_spec(decode(), atom_cap)


def model_from_spec(doc: dict, atom_cap: int | None = None) -> JointModel:
    """Build a model from its JSON-style description.

    Expected shape: {"kind": ..., "n": ..., "params": {...}}, where
    explicit_table carries its atoms as params["support"], a list of
    {"x": [...], "p": ...} objects (bare [vector, p] pairs also accepted).
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"model spec must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise ValidationError(
            f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}"
        )
    cap = DEFAULT_ATOM_CAP if atom_cap is None else int(atom_cap)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("model spec 'params' must be an object")

    if kind == "explicit_table":
        raw = params.get("support", doc.get("support"))
        if raw is None:
            raise ValidationError("explicit_table spec is missing 'support'")
        model = ExplicitTableModel(raw, atom_cap=cap)
    else:
        n = check_positive_int("n", _require(doc, "n", kind))
        if kind == "independent":
            model = IndependentModel(_require(params, "marginals", kind), atom_cap=cap)
        elif kind == "boolean_iid":
            model = BooleanIIDModel(n, _require(params, "p", kind), atom_cap=cap)
        elif kind == "planted_clique":
            model = PlantedCliqueModel(
                n,
                _require(params, "p", kind),
                k=params.get("k"),
                indices=params.get("indices"),
                atom_cap=cap,
            )
        else:  # exchangeable_mixture
            rho = _require(params, "rho", kind)
            if "atoms" in params:
                model = ExchangeableMixtureModel(n, rho, params["atoms"], atom_cap=cap)
            else:
                model = ExchangeableMixtureModel.bernoulli(
                    n, rho, _require(params, "p", kind), atom_cap=cap
                )
    declared = doc.get("n")
    if declared is not None and declared != model.n:
        raise ValidationError(f"spec n={declared} does not match model n={model.n}")
    return model
