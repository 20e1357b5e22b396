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
walked row by row.

``atom_cap`` bounds one fold step, states x factor rows, which the fold
checks before it allocates (``SupportTooLargeError``).  Sums and products
run in a fixed order through NumPy reductions, never threaded BLAS dot
products, so exact results are bit-reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy_core import PROB_SUM_TOL, BoundParams, check_positive_int, slack
from .errors import SubsetBudgetError, SupportTooLargeError, ValidationError

DEFAULT_ATOM_CAP = 10**6
DEFAULT_SUBSET_BUDGET = 10**6
DEFAULT_CHUNK = 1 << 16
# A factor's row products are summed over slices of CERTIFY_CHUNK rows, and
# the slice sums added in row order; the walk holds DEFAULT_CHUNK rows at a time.
CERTIFY_CHUNK = 1 << 12

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
    probability) pairs; ``JointModel`` checks the table they form."""
    try:
        pairs = [(float(v), float(p)) for v, p in atoms]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a list of [value, prob] pairs") from exc
    if not pairs:
        raise ValidationError(f"{name} must contain at least one atom")
    values, probs = np.array(pairs, dtype=np.float64).T.copy()
    return values, probs


def _row_weights(xt: np.ndarray, lam: float) -> np.ndarray:
    """E[prod_{i in I} Y_i | x] = prod_i (lam xt_i + 1 - lam) for each row of xt."""
    return np.prod(lam * xt + 1.0 - lam, axis=1)


def _merge(sums: np.ndarray, *masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """Merge equal sums: the ascending distinct sums, and each mass array
    summed per distinct sum in input order."""
    sums, inverse = np.unique(sums, return_inverse=True)
    return (sums, *(np.bincount(inverse, weights=m, minlength=len(sums)) for m in masses))


def _slice_sums(values: np.ndarray) -> list[float]:
    """Sums of consecutive CERTIFY_CHUNK-element slices of a 1-D array, each
    reduced as ``np.sum`` reduces the slice alone."""
    full = len(values) - len(values) % CERTIFY_CHUNK
    sums = np.add.reduce(values[:full].reshape(-1, CERTIFY_CHUNK), axis=1).tolist() if full else []
    if full < len(values):
        sums.append(float(np.add.reduce(values[full:])))
    return sums


def _lex_walk(n: int, max_size: int, root, step, chain: tuple[int, ...] | None = None):
    """Yield (subset, state) for the non-empty subsets of range(n) with at
    most ``max_size`` elements, in lexicographic order, where a subset's state
    is step(its prefix's state, its last element) and the empty prefix's is
    ``root``.  Given ``chain``, only the non-empty prefixes of that tuple."""
    stack = [((), root)]
    while stack:
        prefix, state = stack.pop()
        if prefix:
            state = step(state, prefix[-1])
            yield prefix, state
        size = len(prefix)
        if size < max_size:
            if chain is None:
                following = range(n - 1, prefix[-1] if prefix else -1, -1)
            else:
                following = chain[size:size + 1]
            stack.extend((prefix + (i,), state) for i in following)


class JointModel:
    """A joint law on R^n as a table of independent discrete factors.

    Factor j is a table of atom rows, ``factor_values[j]`` of shape (m_j, w_j)
    (1-D for one column), with row probabilities ``factor_probs[j]``.  The
    factors' columns sit side by side and variable i reads column ``vmap[i]``;
    several variables may read one column (the planted block does), and
    every factor is read by some variable (the range check of an unread
    factor would see no columns).  The constructor checks each factor with
    ``check_table``, the column map, and that every factor is read.
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
        # Each distinct table and probability vector is converted once, however
        # many factors it serves; the lists keep them alive, so their ids stay distinct.
        factor_values, factor_probs = list(factor_values), list(factor_probs)
        if len(factor_values) != len(factor_probs):
            raise ValidationError("factor_values and factor_probs must list the same factors")
        (vfirst, vof), (pfirst, pof) = (_distinct(list(map(id, f)))
                                        for f in (factor_values, factor_probs))
        tables = [np.asarray(factor_values[j], dtype=np.float64) for j in vfirst]
        if not all(len(v) for v in tables):
            raise ValidationError("every factor needs at least one value row")
        tables = [v.reshape(len(v), -1) for v in tables]
        probs = [np.asarray(factor_probs[j], dtype=np.float64) for j in pfirst]
        self._fvals = list(map(tables.__getitem__, vof.tolist()))
        self._fprobs = list(map(probs.__getitem__, pof.tolist()))
        # per factor, which pair of table and probabilities it was passed
        checked, pair = _distinct(list(zip(vof.tolist(), pof.tolist())))
        for j in checked:  # each pair once, named by its first factor
            check_table(self._fvals[j], self._fprobs[j], self._factor_name(j))
        starts = np.cumsum([0] + np.array([v.shape[1] for v in tables])[vof].tolist())
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
        # The variables reading each factor, ascending, side by side in factor
        # order (``_factor_reads``), and the columns they read: a stable sort
        # by factor, through ``sorted`` for the reason ``_distinct`` gives.
        self._readers = np.array(sorted(range(n), key=owner.tolist().__getitem__), dtype=np.intp)
        self._rcols = cols[self._readers]
        self._first, self._counts = np.cumsum(counts) - counts, counts
        # Factors alike in table, probabilities and columns, in order of their
        # first factor, each with its factors' readers.
        self._groups = []
        for k in np.flatnonzero(np.bincount(counts)).tolist():  # one pass per reader count
            alike = np.flatnonzero(counts == k)
            reads = self._readers[self._first[alike, None] + np.arange(k)]
            keys = np.column_stack([pair[alike], cols[reads]])
            order = np.lexsort(keys.T[::-1])  # stable: a group's factors stay ascending
            alike, reads, keys = alike[order], reads[order], keys[order]
            bounds = [0, *(np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1).tolist(),
                      len(alike)]
            self._groups += [(alike[a:b], reads[a:b]) for a, b in zip(bounds, bounds[1:])]
        self._groups.sort(key=lambda group: group[0][0])

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
        self._gather([rng.choice(len(fv), size=out.shape[1], p=fp)
                      for fv, fp in zip(self._fvals, self._fprobs)], out)

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

    def _factor_reads(self, j: int) -> tuple[list[int], list[int]]:
        """The variables reading factor j, ascending, and the columns they read."""
        reads = slice(self._first[j], self._first[j] + self._counts[j])
        return self._readers[reads].tolist(), self._rcols[reads].tolist()

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

    def _gather(self, atoms: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
        """Fill the variable-major (n, rows) ``out`` from per-factor atom
        indices: row i takes the column variable i reads from factor j's rows
        ``atoms[j]``.  The one variable gather of sampling."""
        for row, (j, c) in zip(out, self._reads):
            self._fvals[j][:, c].take(atoms[j], out=row)
        return out

    def _factor_atoms(self, params: BoundParams | None = None) -> list[tuple]:
        """Per factor: its (m_j, k_j) atom rows over the k_j variables reading
        it, their probabilities, and, given ``params``, the range-checked
        unit-cube image of the rows and whether it was clipped (else None, False).
        Factors alike in table, columns and readers' a_i share one entry."""
        a = np.zeros(self._n) if params is None else np.asarray(params.a)
        alike = []
        for factors, readers in self._groups:
            rows = a[readers]
            while len(factors):  # one pass per distinct row of the readers' a_i
                same = (rows == rows[0]).all(axis=1)
                alike.append(factors[same])
                factors, rows = factors[~same], rows[~same]
        out = {}
        for factors in sorted(alike, key=lambda f: f[0]):
            (variables, cols), fp = self._factor_reads(factors[0]), self._fprobs[factors[0]]
            atoms = self._fvals[factors[0]].take(cols, axis=1)
            out.update(dict.fromkeys(factors.tolist(), (atoms, fp, *(
                (None, False) if params is None else to_unit_cube(atoms, params, fp, variables)))))
        return [out[j] for j in range(len(self._fvals))]

    def _fold_factors(self, params: BoundParams | None, lam: float) -> tuple[np.ndarray, ...]:
        # Factor by factor, each step checked against atom_cap before it is
        # formed: every (state, row) pair adds the row's values to the sum
        # column by column, so variables in factor order, left to right, as
        # draw_round and the kernel's tail sums add; masses multiply in.
        law = (np.zeros(1), *np.ones((1 if params is None else 2, 1)))
        for j, (atoms, probs, xt, _) in enumerate(self._factor_atoms(params)):
            if len(law[0]) * len(probs) > self._atom_cap:
                raise SupportTooLargeError(
                    f"the exact fold of this {self.kind} model needs {len(law[0])} sums x "
                    f"{len(probs)} rows of factor {j}, over atom_cap={self._atom_cap}; "
                    f"use sampling instead or raise atom_cap")
            sums = np.add.outer(law[0], atoms[:, 0])
            for column in atoms.T[1:]:
                sums += column
            masses = (probs,) if xt is None else (probs, probs * _row_weights(xt, lam))
            law = _merge(sums.ravel(), *(np.multiply.outer(a, b).ravel()
                                         for a, b in zip(law[1:], masses)))
        return law

    def _fold(
        self, params: BoundParams | None = None, lam: float = 0.0
    ) -> tuple[np.ndarray, ...]:
        """Law of the coordinate sum: (ascending distinct sums, masses) and,
        given ``params``, the masses weighted by prod_i ((lam xtilde_i) + 1) - lam.
        Range-checks every positive-probability atom against ``params``."""
        laws = [(w, part._fold_factors(params, lam)) for w, part in self._parts() if w > 0.0]
        if len(laws) == 1:  # its weight is 1
            return laws[0][1]
        return _merge(*(np.concatenate([w * law[k] if k else law[k] for w, law in laws])
                        for k in range(len(laws[0][1]))))

    def _check_range(self, params: BoundParams) -> bool:
        """Raise unless every positive-probability atom lies in [a_i, a_i + b];
        return whether sampled values need clipping to [0, 1]."""
        return any([clipped for w, part in self._parts() if w > 0.0  # a list: check all
                    for *_, clipped in part._factor_atoms(params)])

    def _factor_moments(
        self, j: int, max_size: int, chain: tuple[int, ...] | None
    ) -> dict[tuple[int, ...], float]:
        """E[prod of factor j's variables at positions T] for each T the
        walk visits (T indexes factor j's variable list).  Each T's row
        products are its prefix's times one column of a variable-major copy
        of the factor, summed per CERTIFY_CHUNK rows and then in row order."""
        variables, cols = self._factor_reads(j)
        columns = np.ascontiguousarray(self._fvals[j].take(cols, axis=1).T)
        probs = self._fprobs[j]
        table: dict[tuple[int, ...], float] = {}
        # Walking DEFAULT_CHUNK rows per step, not CERTIFY_CHUNK, visits each
        # subset once instead of four times on a 16384-row table: certify_moments
        # on a 16384x12 table took 55 ms instead of 79 ms (timeit, 2-core host),
        # with the same bits.
        for start in range(0, len(probs), DEFAULT_CHUNK):
            chunk = columns[:, start:start + DEFAULT_CHUNK]
            walk = _lex_walk(len(variables), max_size, probs[start:start + DEFAULT_CHUNK],
                             lambda w, p, chunk=chunk: w * chunk[p], chain)
            for key, weights in walk:
                total = table.get(key, 0.0)
                for part in _slice_sums(weights):
                    total += part
                table[key] = total
        return table

    def _part_moments(
        self, max_size: int, chain: tuple[int, ...] | None
    ) -> tuple[list[tuple[int, ...]], list[float]]:
        # E prod_S X = prod_j E[prod of S's variables in factor j].  A factor
        # read by one variable contributes its mean, multiplied in along the
        # subset's prefix; the moments of the joint factors (read by several
        # variables) are multiplied in after the means, in factor order.
        owner = [j for j, _ in self._reads]
        pos = np.empty(self._n, dtype=np.intp)  # each variable's place among its factor's readers
        pos[self._readers] = np.arange(self._n) - np.repeat(self._first, self._counts)
        pos, counts = pos.tolist(), self._counts.tolist()
        joint = [j for j, k in enumerate(counts) if k > 1]
        rank = {j: r for r, j in enumerate(joint)}
        tables = []
        for j, k in enumerate(counts):
            sub = None if chain is None else tuple(pos[i] for i in chain if owner[i] == j)
            tables.append(self._factor_moments(j, min(max_size, k), sub)
                          if sub is None or sub else {})
        means = [None if j in rank else tables[j].get((0,)) for j in owner]

        def step(state, i):
            # state: (product of means, per joint factor the positions of the
            # prefix's variables in it, product of the joint factor moments)
            product, keys, joint_product = state
            if means[i] is not None:
                return product * means[i], keys, joint_product
            r = rank[owner[i]]
            keys = keys[:r] + (keys[r] + (pos[i],),) + keys[r + 1:]
            joint_product = 1.0
            for j, key in zip(joint, keys):
                if key:
                    joint_product *= tables[j][key]
            return product, keys, joint_product

        subsets, moments = [], []
        root = (1.0, ((),) * len(joint), 1.0)
        for subset, (product, _, joint_product) in _lex_walk(self._n, max_size, root, step, chain):
            subsets.append(subset)
            moments.append(product * joint_product)
        return subsets, moments

    def _moments(
        self, max_size: int, chain: tuple[int, ...] | None = None
    ) -> tuple[list[tuple[int, ...]], list[float]]:
        """E[prod_{i in S} X_i] for every non-empty S with at most ``max_size``
        variables (given ``chain``, its non-empty prefixes only), in
        lexicographic order: (subsets, moments)."""
        parts = [(w, part._part_moments(max_size, chain)) for w, part in self._parts() if w > 0.0]
        if len(parts) == 1:  # its weight is 1
            return parts[0][1]
        total = sum(w * np.asarray(moments) for w, (_, moments) in parts)
        return parts[0][1][0], total.tolist()


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
        self.rho = rho
        self._values = values
        self._probs = probs
        self._shared = JointModel(n, [values], [probs], [0] * n, atom_cap)

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
        size = out.shape[1]
        mix = rng.random(size) < self.rho
        shared = rng.choice(len(self._values), size=size, p=self._probs)
        indep = rng.choice(len(self._values), size=(size, self._n), p=self._probs)
        self._values.take(indep.T, out=out)
        np.copyto(out, self._values[shared], where=mix)


class ExplicitTableModel(JointModel):
    """Joint law given directly as a table of (vector, probability) atoms:
    one factor whose rows are the atoms, read column i by variable i."""

    kind = "explicit_table"

    def __init__(self, atoms: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        atoms = list(atoms)
        if not atoms:
            raise ValidationError("explicit_table needs at least one atom")
        try:
            vecs, probs = zip(*atoms)
            table = np.asarray(vecs, dtype=np.float64)
            probs = np.asarray(probs, dtype=np.float64)
            clean = (table.ndim == 2 and probs.ndim == 1
                     and np.isfinite(table).all() and np.isfinite(probs).all())
        except (TypeError, ValueError):
            clean = False
        if not clean:  # parse atom by atom, to report the first bad one
            table, probs = self._parse(atoms)
        n = table.shape[1]
        super().__init__(n, [table], [probs], vmap=range(n), atom_cap=atom_cap)

    @staticmethod
    def _parse(atoms: list) -> tuple[np.ndarray, list[float]]:
        rows, probs = [], []
        for entry in atoms:
            try:
                vec, p = entry
                rows.append([float(v) for v in vec])
                probs.append(float(p))
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    "explicit_table atoms must be (vector, probability) pairs"
                ) from exc
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValidationError(f"atom vectors have inconsistent lengths {sorted(widths)}")
        return np.array(rows, dtype=np.float64).reshape(len(rows), -1), probs


@dataclass(frozen=True)
class MomentCertificate:
    """Comparison of one subset's exact product moment against prod c_i;
    ``satisfied`` allows the package tolerance ``slack()`` for rounding."""

    subset: tuple[int, ...]
    exact_moment: float
    bound_product: float

    @property
    def satisfied(self) -> bool:
        return self.exact_moment <= self.bound_product + slack()


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
    return model._moments(len(cols), chain=cols)[1][-1]


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
    ``subset_budget`` subsets.  Moments are closed-form products of
    per-factor moments (see ``JointModel._part_moments``), and each
    bound product is its prefix's times one c_i, bit for bit ``np.prod`` of
    the subset's c_i.  Only factors read by several variables cost
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
    subsets, moments = model._moments(max_size)
    c = params.c
    bounds = [b for _, b in _lex_walk(model.n, max_size, 1.0, lambda b, i: b * c[i])]
    # lexicographic order -> by size, lexicographic within a size
    order = sorted(range(len(subsets)), key=lambda k: len(subsets[k]))
    return [MomentCertificate((), 1.0, 1.0)] + [
        MomentCertificate(subsets[k], moments[k], bounds[k]) for k in order
    ]


def to_unit_cube(
    values: np.ndarray,
    params: BoundParams,
    probs: np.ndarray | None = None,
    variables: Sequence[int] | None = None,
) -> tuple[np.ndarray, bool]:
    """(image, whether clipped) of (m, k) atoms under x -> (x - a_i) / b,
    clipped to [0, 1]; the one range check.

    Column c holds variable ``variables[c]`` (default: variable c, k = n).
    Raises unless every atom (with ``probs``, every atom of positive
    probability) lies in [a_i, a_i + b] up to ``slack(b)``.  Under the
    identity map (a = 0, b = 1) with every value in [0, 1], the image is
    ``values`` itself.
    """
    a = np.asarray(params.a if variables is None else [params.a[v] for v in variables])
    xt = values if params.b == 1.0 and not a.any() else (values - a) / params.b
    tol = slack(params.b) / params.b
    lo, hi = xt.min(), xt.max()
    if lo < -tol or hi > 1.0 + tol:
        bad = (xt < -tol) | (xt > 1.0 + tol)
        if probs is not None:
            bad &= (probs > 0.0)[:, None]
        if bad.any():
            row, col = np.argwhere(bad)[0]
            var = col if variables is None else variables[col]
            raise ValidationError(
                f"values leave [a_i, a_i + b]: variable {var} takes value "
                f"{values[row, col]} outside [{params.a[var]}, {params.a[var] + params.b}]"
            )
    clipped = bool(lo < 0.0 or hi > 1.0)
    return (np.clip(xt, 0.0, 1.0) if clipped else xt), clipped


def check_support_range(model: JointModel, params: BoundParams) -> None:
    """Raise unless every positive-probability atom lies in [a_i, a_i + b].

    Checks factor rows, not the atoms: an atom has positive
    probability exactly when each of its factor rows does (in a mixture
    part of positive weight).
    """
    if params.n != model.n:
        raise ValidationError(f"params.n={params.n} does not match model n={model.n}")
    model._check_range(params)


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise ValidationError(f"model spec of kind {kind!r} is missing {key!r}")
    return doc[key]


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
        atoms = [(_require(e, "x", kind), _require(e, "p", kind)) if isinstance(e, dict) else e
                 for e in raw]
        model = ExplicitTableModel(atoms, atom_cap=cap)
    else:
        n = check_positive_int("n", _require(doc, "n", kind))
        if kind == "independent":
            model = IndependentModel(_require(params, "marginals", kind), atom_cap=cap)
            if model.n != n:
                raise ValidationError(
                    f"spec n={n} does not match {model.n} marginals"
                )
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
