"""Joint distributions with sample access and exact discrete enumeration.

Every model here is a finite-support joint law on R^n exposing two views:

* sampling (``sample`` / ``sample_many``) against a numpy ``Generator``, all
  through one primitive per model, ``_draw``, and
* exact enumeration (``support_chunks`` / ``sum_support``) used by
  ``exact_moment``, ``exact_tail`` and ``certify_moments``.

Every model is a factor table (see ``_FactoredModel``); an explicit table is
one factor, and only the mixture's shared atoms are enumerated outside it.

Enumeration is only permitted while the support has at most ``atom_cap``
atoms; larger models stay usable for sampling but exact operations raise
``SupportTooLargeError`` up front instead of grinding forever.  Atoms are
always visited in a fixed order and reduced by NumPy sums, never by threaded
BLAS dot products, so exact results are bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .entropy_core import BoundParams, check_positive_int, check_table, slack
from .errors import SubsetBudgetError, SupportTooLargeError, ValidationError

DEFAULT_ATOM_CAP = 10**6
DEFAULT_SUBSET_BUDGET = 10**6
DEFAULT_CHUNK = 1 << 16
CERTIFY_CHUNK = 1 << 12  # keeps certify_moments' stack of prefix vectors small

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


def _validate_atoms(atoms, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Check one discrete marginal given as (value, probability) pairs."""
    try:
        pairs = [(float(v), float(p)) for v, p in atoms]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a list of [value, prob] pairs") from exc
    if not pairs:
        raise ValidationError(f"{name} must contain at least one atom")
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    probs = np.array([p for _, p in pairs], dtype=np.float64)
    check_table(values, probs, name)
    return values, probs


class JointModel:
    """Base class: a joint law on R^n with sampling and exact enumeration."""

    kind = "abstract"

    def __init__(self, n: int, atom_cap: int = DEFAULT_ATOM_CAP):
        self._n = check_positive_int("n", n)
        self._atom_cap = check_positive_int("atom_cap", atom_cap)
        self._sum_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def atom_cap(self) -> int:
        return self._atom_cap

    @property
    def enumerable(self) -> bool:
        return self.support_size() <= self._atom_cap

    def support_size(self) -> int:
        raise NotImplementedError

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the C-ordered (n, size) float64 ``out`` with ``size`` joint
        vectors, variable-major: column r of ``out`` is vector r.

        The model's one sampling primitive.  It may use ``out``'s memory as
        scratch for its uniforms, so ``out`` must own its whole extent.
        """
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` joint vectors, shape (size, n), C-ordered float64."""
        out = np.empty((self._n, size), dtype=np.float64)
        self._draw(rng, out)
        return out.T.copy()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_many(rng, 1)[0]

    def support_chunks(
        self, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (values, probs) over the whole support in a fixed order.

        ``values`` holds full (m, n) atom rows and ``probs`` their probabilities.
        """
        raise NotImplementedError

    def support(self) -> Iterator[tuple[np.ndarray, float]]:
        """Atom-by-atom view, mainly for tests and tiny models."""
        for values, probs in self.support_chunks():
            for row, p in zip(values, probs):
                yield row.copy(), float(p)

    def _require_enumerable(self, what: str) -> None:
        size = self.support_size()
        if size > self._atom_cap:
            raise SupportTooLargeError(
                f"{what} needs exact enumeration, but this {self.kind} model has "
                f"{size} atoms (atom_cap={self._atom_cap}); use sampling instead "
                f"or raise atom_cap"
            )

    def sum_support(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact distribution of the coordinate sum: (sums, probs) arrays.

        Entries follow the same atom order as ``support_chunks`` and the
        result is cached on the model.
        """
        if self._sum_cache is None:
            self._require_enumerable("sum_support")
            self._sum_cache = self._build_sum_support()
        return self._sum_cache

    def _build_sum_support(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _check_columns(self, columns: Iterable[int]) -> tuple[int, ...]:
        cols = tuple(int(i) for i in columns)
        if any(i < 0 or i >= self._n for i in cols):
            raise ValidationError(f"column indices must lie in [0, {self._n}), got {cols}")
        if len(set(cols)) != len(cols):
            raise ValidationError(f"column indices must be distinct, got {cols}")
        return cols


class _FactoredModel(JointModel):
    """Shared machinery for laws that factor into independent discrete factors.

    Factor j is a table of atom rows, ``factor_values[j]`` of shape (m_j, w_j)
    (1-D for one column), with row probabilities ``factor_probs[j]``.  The
    factors' columns sit side by side and variable i reads column ``vmap[i]``;
    several variables may read one column (the planted block does).  Atom
    order is mixed-radix over factor rows, factor 0 most significant.
    """

    def __init__(
        self,
        n: int,
        factor_values: Sequence[np.ndarray],
        factor_probs: Sequence[np.ndarray],
        vmap: Sequence[int],
        atom_cap: int = DEFAULT_ATOM_CAP,
    ):
        super().__init__(n, atom_cap)
        self._fvals = [np.asarray(v, dtype=np.float64).reshape(len(v), -1) for v in factor_values]
        self._fprobs = [np.asarray(p, dtype=np.float64) for p in factor_probs]
        self._vmap = np.asarray(vmap, dtype=np.int64)
        if len(self._vmap) != n:
            raise ValidationError("vmap must assign a column to each variable")
        self._sizes = [len(v) for v in self._fvals]
        self._total = math.prod(self._sizes)
        # (factor, column within it) of the global column each variable reads
        starts = np.cumsum([0] + [fv.shape[1] for fv in self._fvals])
        owner = np.searchsorted(starts, self._vmap, side="right") - 1
        self._reads = list(zip(owner.tolist(), (self._vmap - starts[owner]).tolist()))

    def support_size(self) -> int:
        return self._total

    def _gather(self, atoms: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
        """Fill the variable-major (n, rows) ``out`` from per-factor atom
        indices: row i takes the column variable i reads from factor j's rows
        ``atoms[j]``.  The one variable gather, for sampling and enumeration."""
        for row, (j, c) in zip(out, self._reads):
            self._fvals[j][:, c].take(atoms[j], out=row)
        return out

    def support_chunks(
        self, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        total = self._total
        for start in range(0, total, chunk_size):
            idx = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
            digits = np.unravel_index(idx, self._sizes)
            probs = np.ones(len(idx), dtype=np.float64)
            for j, fp in enumerate(self._fprobs):
                probs *= fp[digits[j]]
            yield self._gather(digits, np.empty((self._n, len(idx)))).T.copy(), probs

    def _build_sum_support(self) -> tuple[np.ndarray, np.ndarray]:
        # Expand factor by factor; each adds the row sum of the columns its
        # variables read.  This is O(total) rather than O(total * n).
        sums = np.zeros(1, dtype=np.float64)
        probs = np.ones(1, dtype=np.float64)
        for j, (fv, fp) in enumerate(zip(self._fvals, self._fprobs)):
            reads = [c for owner, c in self._reads if owner == j]
            sums = (sums[:, None] + fv.take(reads, axis=1).sum(axis=1)[None, :]).ravel()
            probs = (probs[:, None] * fp[None, :]).ravel()
        return sums, probs

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        self._gather([rng.choice(len(fv), size=out.shape[1], p=fp)
                      for fv, fp in zip(self._fvals, self._fprobs)], out)


class IndependentModel(_FactoredModel):
    """Independent variables with arbitrary finite marginals."""

    kind = "independent"

    def __init__(self, marginals: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        n = len(marginals)
        if n < 1:
            raise ValidationError("need at least one marginal")
        values, probs = [], []
        for i, marg in enumerate(marginals):
            v, p = _validate_atoms(marg, f"marginals[{i}]")
            values.append(v)
            probs.append(p)
        super().__init__(n, values, probs, vmap=range(n), atom_cap=atom_cap)
        self.marginals = [
            [(float(v), float(p)) for v, p in zip(vals, ps)]
            for vals, ps in zip(values, probs)
        ]


class BooleanIIDModel(_FactoredModel):
    """n i.i.d. Bernoulli(p) variables on {0, 1}."""

    kind = "boolean_iid"

    def __init__(self, n: int, p: float, atom_cap: int = DEFAULT_ATOM_CAP):
        values, probs = _coin(p)
        super().__init__(n, [values] * n, [probs] * n, vmap=range(n), atom_cap=atom_cap)
        self.p = float(p)

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # Stream order: the coins row by row, drawn into out's own memory.
        # Comparing in that order and transposing the byte-sized coin table
        # keeps every pass over the floats contiguous.
        u = rng.random(out=out.reshape(out.shape[1], self._n))
        np.copyto(out, np.less(u, self.p).T.copy())


class PlantedCliqueModel(_FactoredModel):
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
        free = tuple(i for i in range(n) if i not in indices)
        vmap = np.zeros(n, dtype=np.int64)
        vmap[list(free)] = np.arange(1, len(free) + 1)
        factors = 1 + len(free)
        super().__init__(n, [values] * factors, [probs] * factors, vmap, atom_cap)
        self.p = float(p)
        self.indices = tuple(sorted(indices))
        self.k = len(self.indices)

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # Stream order: every row's block coin, then the free coins row by
        # row, drawn into a flat prefix of out's own memory.
        size, factors = out.shape[1], len(self._fvals)
        flat = out.reshape(-1)
        coins = np.empty((factors, size), dtype=bool)
        np.less(rng.random(out=flat[:size]), self.p, out=coins[0])
        free = rng.random(out=flat[size:size * factors].reshape(size, factors - 1))
        coins[1:] = np.less(free, self.p).T
        np.copyto(out, coins.take(self._vmap, axis=0))


class ExchangeableMixtureModel(_FactoredModel):
    """Mixture: with probability rho all variables copy one draw from the
    marginal, otherwise all n are drawn independently from that marginal.
    The factors describe the independent part, enumerated after the shared atoms.
    """

    kind = "exchangeable_mixture"

    def __init__(self, n: int, rho: float, atoms: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        rho = float(rho)
        if not 0.0 <= rho <= 1.0:
            raise ValidationError(f"rho must lie in [0, 1], got {rho}")
        values, probs = _validate_atoms(atoms, "atoms")
        n = check_positive_int("n", n)
        super().__init__(n, [values] * n, [probs] * n, vmap=range(n), atom_cap=atom_cap)
        self.rho = rho
        self._values = values
        self._probs = probs

    @classmethod
    def bernoulli(
        cls, n: int, rho: float, p: float, atom_cap: int = DEFAULT_ATOM_CAP
    ) -> "ExchangeableMixtureModel":
        return cls(n, rho, list(zip(*_coin(p))), atom_cap=atom_cap)

    def support_size(self) -> int:
        return len(self._values) + self._total

    def support_chunks(self, chunk_size=DEFAULT_CHUNK):
        yield np.repeat(self._values[:, None], self._n, axis=1), self.rho * self._probs
        for values, probs in super().support_chunks(chunk_size):
            yield values, (1.0 - self.rho) * probs

    def _build_sum_support(self):
        ind_sums, ind_probs = super()._build_sum_support()
        sums = np.concatenate([self._n * self._values, ind_sums])
        probs = np.concatenate([self.rho * self._probs, (1.0 - self.rho) * ind_probs])
        return sums, probs

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        size = out.shape[1]
        mix = rng.random(size) < self.rho
        shared = rng.choice(len(self._values), size=size, p=self._probs)
        indep = rng.choice(len(self._values), size=(size, self._n), p=self._probs)
        self._values.take(indep.T, out=out)
        np.copyto(out, self._values[shared], where=mix)


class ExplicitTableModel(_FactoredModel):
    """Joint law given directly as a table of (vector, probability) atoms:
    one factor whose rows are the atoms, read column i by variable i."""

    kind = "explicit_table"

    def __init__(self, atoms: Sequence, atom_cap: int = DEFAULT_ATOM_CAP):
        rows = []
        probs = []
        for entry in atoms:
            try:
                vec, p = entry
                rows.append([float(v) for v in vec])
                probs.append(float(p))
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    "explicit_table atoms must be (vector, probability) pairs"
                ) from exc
        if not rows:
            raise ValidationError("explicit_table needs at least one atom")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValidationError(f"atom vectors have inconsistent lengths {sorted(widths)}")
        n = widths.pop()
        table = np.array(rows, dtype=np.float64)
        super().__init__(n, [table], [probs], vmap=range(n), atom_cap=atom_cap)
        check_table(table, self._fprobs[0], "explicit_table")
        if len(probs) > atom_cap:
            raise ValidationError(
                f"explicit_table has {len(probs)} atoms, exceeding atom_cap={atom_cap}"
            )


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
    """Exact E[prod_{i in subset} X_i] by enumeration; empty subset gives 1."""
    cols = sorted(model._check_columns(subset))
    if not cols:
        return 1.0
    model._require_enumerable("exact_moment")
    total = 0.0
    for values, probs in model.support_chunks():
        total += float(np.sum(probs * np.prod(values[:, cols], axis=1)))
    return total


def tail_cutoff(threshold: float) -> float:
    """Smallest atom sum that counts as meeting ``threshold``: threshold - slack(threshold)."""
    return threshold - slack(threshold)


def exact_tail(model: JointModel, threshold: float) -> float:
    """Exact P(sum of coordinates >= threshold) by enumeration.

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
    ``subset_budget`` subsets.  One support pass, O(#subsets x #atoms): each
    subset's weighted product is its prefix's times one column.  For small n.
    """
    if params.n != model.n:
        raise ValidationError(f"params.n={params.n} does not match model n={model.n}")
    max_size = model.n if max_subset_size is None else int(max_subset_size)
    if not 0 <= max_size <= model.n:
        raise ValidationError(f"max_subset_size must lie in [0, n], got {max_size}")
    count = sum(math.comb(model.n, k) for k in range(max_size + 1))
    if count > subset_budget:
        raise SubsetBudgetError(
            f"certifying subsets up to size {max_size} of n={model.n} needs {count} "
            f"subsets, exceeding subset_budget={subset_budget}"
        )
    model._require_enumerable("certify_moments")
    n = model.n
    subsets = [s for size in range(max_size + 1) for s in itertools.combinations(range(n), size)]
    moments = dict.fromkeys(subsets, 0.0)

    def walk(columns: np.ndarray, prefix: tuple[int, ...], weights: np.ndarray) -> None:
        # weights = probs * prefix columns; each lexicographic child adds one.
        for j in range(prefix[-1] + 1 if prefix else 0, n):
            subset = prefix + (j,)
            child = weights * columns[j]
            moments[subset] += float(child.sum())
            if len(subset) < max_size:
                walk(columns, subset, child)

    if max_size:
        for values, probs in model.support_chunks(chunk_size=CERTIFY_CHUNK):
            walk(values.T.copy(), (), probs)
    return [
        MomentCertificate(
            subset=subset,
            exact_moment=moments[subset] if subset else 1.0,
            bound_product=float(np.prod([params.c[i] for i in subset])) if subset else 1.0,
        )
        for subset in subsets
    ]


def to_unit_cube(
    values: np.ndarray, params: BoundParams, probs: np.ndarray | None = None
) -> np.ndarray:
    """Map (m, n) atoms to [0, 1] by x -> (x - a_i) / b, clipped; the one range check.

    Raises unless every atom (with ``probs``, every atom of positive
    probability) lies in [a_i, a_i + b] up to ``slack(b)``.  Under the
    identity map (a = 0, b = 1) with every value in [0, 1], returns
    ``values`` itself.
    """
    a = np.asarray(params.a)
    xt = values if params.b == 1.0 and not a.any() else (values - a) / params.b
    tol = slack(params.b) / params.b
    lo, hi = xt.min(), xt.max()
    if lo < -tol or hi > 1.0 + tol:
        bad = (xt < -tol) | (xt > 1.0 + tol)
        if probs is not None:
            bad &= (probs > 0.0)[:, None]
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValidationError(
                f"values leave [a_i, a_i + b]: variable {col} takes value "
                f"{values[row, col]} outside [{params.a[col]}, {params.a[col] + params.b}]"
            )
    return np.clip(xt, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else xt


def check_support_range(model: JointModel, params: BoundParams) -> None:
    """Raise unless every positive-probability atom lies in [a_i, a_i + b]."""
    if params.n != model.n:
        raise ValidationError(f"params.n={params.n} does not match model n={model.n}")
    model._require_enumerable("check_support_range")
    for values, probs in model.support_chunks():
        to_unit_cube(values, params, probs)


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
        atoms = []
        for entry in raw:
            if isinstance(entry, dict):
                atoms.append((_require(entry, "x", kind), _require(entry, "p", kind)))
            else:
                atoms.append(tuple(entry))
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
