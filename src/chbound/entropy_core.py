"""Relative-entropy tail bounds for sums of bounded, possibly dependent variables.

The quantities here live on the normalized scale: variables with values in
[a_i, a_i + b] are mapped to [0, 1], the per-variable means c_i map to
ctilde_i, and the deviation t maps to ttilde = t / b.  On that scale the tail
P(sum >= (cbar + t) n) is controlled by exp(-n * D(ctilde + ttilde || ctilde))
where D is the binary relative entropy, and the optimization that produces
this exponent is exposed explicitly (``g_objective`` / ``optimize_lambda``)
so the intermediate objective can be inspected and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# -- tolerance policy ------------------------------------------------------
# The only numeric tolerances of the package; every comparison of computed
# quantities allows ``slack(scale)``.  See "Tolerances" in the README.

TOL = 1e-12
"""Slack for comparing computed quantities, which are accurate to a few ulps
(about 1e-16) of their scale: rounding never flips a comparison."""

PROB_SUM_TOL = 1e-9
"""Input tolerance for the total of a user-given probability table: tables are
typed as rounded decimals (0.333333333 for 1/3) that miss 1 by far more than TOL."""

KL_REL_ERR = 5e-14
"""Relative accuracy of ``kl_div``, as its decimal-reference tests pin it;
``chernoff_bound`` shrinks its exponent by this fraction to round outward."""

LAMBDA_CAP = 1.0 - 1e-6
"""Largest tilt used where the optimal lambda reaches 1 or a lambda grid ends."""


def slack(scale: float = 1.0) -> float:
    """TOL for a quantity of magnitude ``scale``: TOL * max(1, |scale|)."""
    return TOL * max(1.0, abs(scale))


# -- end of tolerance policy -----------------------------------------------

# Sampling defaults shared by the library and the CLI parser, kept here so
# that building the parser loads no NumPy.
DEFAULT_BLOCK_SIZE = 8192
DEFAULT_MAX_PROPOSALS = 10_000_000
DEFAULT_MIN_ROUNDS = 5

__all__ = [
    "TOL",
    "LAMBDA_CAP",
    "slack",
    "BoundParams",
    "NormalizedParams",
    "LambdaChoice",
    "kl_div",
    "normalize",
    "proof_case",
    "g_objective",
    "optimize_lambda",
    "grid_search_lambda",
    "chernoff_bound",
]


def check_positive_int(name: str, value) -> int:
    """Return ``value`` if it is a positive int (bool is not accepted)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return value


def _log1pmx(u: float) -> float:
    """ln(1 + u) - u; a Taylor series where the difference would cancel."""
    if abs(u) > 0.1:
        return math.log1p(u) - u
    return -u * u * math.fsum((-u) ** k / (k + 2) for k in range(20))


def kl_div(p: float, q: float) -> float:
    """Binary relative entropy D(p || q) in nats.

    D(p || q) = p ln(p/q) + (1-p) ln((1-p)/(1-q)) with the conventions
    0 ln 0 = 0 and ln(x/0) = +inf for x > 0.  Both arguments must lie in
    [0, 1].  The result is >= 0, equals 0 iff p == q, and is +inf exactly
    when q == 0 < p or q == 1 > p.

    For p near q the two logarithms nearly cancel, so with d = p - q it is
    evaluated as p L(d/q) + (1-p) L(-d/(1-q)) + d^2/(q(1-q)), where
    L(u) = ln(1 + u) - u; that form keeps full relative precision.  Far from
    q, ln(p/q) is taken as the log of the ratio, which does not cancel for tiny q.
    """
    for name, value in (("p", p), ("q", q)):
        value = float(value)
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    p = float(p)
    q = float(q)
    if p == q:
        return 0.0
    if (q == 0.0 and p > 0.0) or (q == 1.0 and p < 1.0):
        return math.inf
    d = p - q
    if abs(d) < min(q, 1.0 - q):
        u = d / q
        return p * _log1pmx(u) + (1.0 - p) * _log1pmx(-d / (1.0 - q)) + d * u / (1.0 - q)
    if p == 0.0:
        first = 0.0
    elif 2.0 <= p / q < math.inf:
        first = p * math.log(p / q)
    else:  # p/q overflows, or lies below 2 where its rounding would cancel
        first = p * (math.log(p) - math.log(q))
    second = 0.0 if p == 1.0 else (1.0 - p) * (math.log1p(-p) - math.log1p(-q))
    return first + second


def _as_float_tuple(values, name: str, n: int) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of numbers") from exc
    if len(out) != n:
        raise ValidationError(f"{name} must have length n={n}, got {len(out)}")
    if not all(math.isfinite(v) for v in out):
        raise ValidationError(f"{name} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class BoundParams:
    """Problem data for the tail bound.

    Variable i takes values in [a_i, a_i + b] with a_i <= 0 and a shared
    width b > 0, the moment hypothesis is E[prod_{i in S} X_i] <= prod c_i
    over subsets S, and the tail of interest is P(sum X_i >= (cbar + t) n)
    for a deviation t in [0, b + abar - cbar].
    """

    n: int
    a: tuple[float, ...]
    b: float
    c: tuple[float, ...]
    t: float

    def __post_init__(self) -> None:
        check_positive_int("n", self.n)
        object.__setattr__(self, "a", _as_float_tuple(self.a, "a", self.n))
        object.__setattr__(self, "c", _as_float_tuple(self.c, "c", self.n))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.b) or self.b <= 0.0:
            raise ValidationError(f"b must be a positive real, got {self.b!r}")
        if not math.isfinite(self.t):
            raise ValidationError(f"t must be finite, got {self.t!r}")
        tol = slack(self.b)
        for i, (ai, ci) in enumerate(zip(self.a, self.c)):
            if ai > 0.0:
                raise ValidationError(f"a[{i}] must be <= 0, got {ai}")
            if ci < ai - tol or ci > ai + self.b + tol:
                raise ValidationError(
                    f"c[{i}]={ci} outside [a[{i}], a[{i}]+b]=[{ai}, {ai + self.b}]"
                )
        if self.t < -tol:
            raise ValidationError(f"t must be >= 0, got {self.t}")
        if self.t > self.t_max + tol:
            raise ValidationError(
                f"t={self.t} exceeds its maximum b + abar - cbar = {self.t_max}"
            )

    @property
    def a_mean(self) -> float:
        return math.fsum(self.a) / self.n

    @property
    def c_mean(self) -> float:
        return math.fsum(self.c) / self.n

    @property
    def t_max(self) -> float:
        """Largest admissible deviation, b + abar - cbar."""
        return self.b + self.a_mean - self.c_mean

    @property
    def threshold(self) -> float:
        """Tail threshold (cbar + t) * n on the original scale."""
        return (self.c_mean + self.t) * self.n

    @classmethod
    def boolean(cls, n: int, p: float, t: float) -> "BoundParams":
        """Convenience constructor for 0/1 variables with mean bound p."""
        return cls.uniform(n, 0.0, 1.0, p, t)

    @classmethod
    def uniform(cls, n: int, a: float, b: float, c: float, t: float) -> "BoundParams":
        """All variables share the same a_i = a and c_i = c."""
        check_positive_int("n", n)  # before n sizes the tuples
        return cls(n=n, a=(float(a),) * n, b=b, c=(float(c),) * n, t=t)


@dataclass(frozen=True)
class NormalizedParams:
    """Parameters after the affine map x -> (x - a_i) / b.

    ctilde_i are the normalized per-variable mean bounds, ctilde their
    average, and ttilde = t / b the normalized deviation.  Everything lives
    in [0, 1], and ttilde <= 1 - ctilde.
    """

    ctilde_i: tuple[float, ...]
    ctilde: float
    ttilde: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ctilde_i", _as_float_tuple(self.ctilde_i, "ctilde_i", len(self.ctilde_i))
        )
        if not self.ctilde_i:
            raise ValidationError("ctilde_i must be non-empty")
        object.__setattr__(self, "ctilde", float(self.ctilde))
        object.__setattr__(self, "ttilde", float(self.ttilde))
        tol = slack()
        for i, v in enumerate(self.ctilde_i):
            if v < -tol or v > 1.0 + tol:
                raise ValidationError(f"ctilde_i[{i}]={v} outside [0, 1]")
        mean = math.fsum(self.ctilde_i) / len(self.ctilde_i)
        if abs(mean - self.ctilde) > tol:
            raise ValidationError(
                f"ctilde={self.ctilde} is not the mean of ctilde_i ({mean})"
            )
        if self.ttilde < -tol:
            raise ValidationError(f"ttilde must be >= 0, got {self.ttilde}")
        if self.ttilde > 1.0 - self.ctilde + tol:
            raise ValidationError(
                f"ttilde={self.ttilde} exceeds 1 - ctilde = {1.0 - self.ctilde}"
            )

    @property
    def n(self) -> int:
        return len(self.ctilde_i)

    @classmethod
    def symmetric(cls, ctilde: float, ttilde: float, n: int = 1) -> "NormalizedParams":
        return cls(ctilde_i=(float(ctilde),) * n, ctilde=float(ctilde), ttilde=float(ttilde))


@dataclass(frozen=True)
class LambdaChoice:
    """A tilt parameter lambda in [0, 1) together with its objective value."""

    lam: float
    g_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < 1.0:
            raise ValidationError(f"lam must lie in [0, 1), got {self.lam}")
        if not self.g_value >= 0.0:
            raise ValidationError(f"g_value must be >= 0, got {self.g_value}")


def normalize(params: BoundParams) -> NormalizedParams:
    """Map BoundParams onto the [0, 1] scale."""
    ct_i = tuple((ci - ai) / params.b for ai, ci in zip(params.a, params.c))
    ctilde = math.fsum(ct_i) / params.n
    return NormalizedParams(ctilde_i=ct_i, ctilde=ctilde, ttilde=params.t / params.b)


def proof_case(norm: NormalizedParams) -> str:
    """Classify parameters: 'degenerate' (c = a), 'boundary' (t maximal), or 'interior'.

    The degenerate test runs first, so ctilde = 0 with maximal ttilde = 1 is
    reported as degenerate.
    """
    if norm.ctilde <= slack():
        return "degenerate"
    if norm.ttilde >= 1.0 - norm.ctilde - slack():
        return "boundary"
    return "interior"


def _interior(norm: NormalizedParams, who: str) -> tuple[float, float]:
    """(ctilde, ttilde), after checking 0 < ctilde < 1 and ttilde < 1 - ctilde."""
    ct, tt = norm.ctilde, norm.ttilde
    if not 0.0 < ct < 1.0 or tt >= 1.0 - ct:
        raise ValidationError(f"{who} needs interior parameters, got ctilde={ct}, ttilde={tt}")
    return ct, tt


def g_objective(lam: float, norm: NormalizedParams) -> float:
    """Objective g(lambda) = (lambda ctilde + 1 - lambda) / (1-lambda)^(1-ctilde-ttilde).

    g(lambda)^n upper-bounds the tail probability for every lambda in [0, 1);
    minimizing over lambda recovers exp(-D(ctilde+ttilde || ctilde)).  Requires
    interior parameters: 0 < ctilde < 1 and ttilde < 1 - ctilde.
    """
    lam = float(lam)
    if not 0.0 <= lam < 1.0:
        raise ValidationError(f"lam must lie in [0, 1), got {lam}")
    ct, tt = _interior(norm, "g_objective")
    return (lam * ct + 1.0 - lam) * (1.0 - lam) ** (ct + tt - 1.0)


def optimize_lambda(norm: NormalizedParams) -> LambdaChoice:
    """Closed-form minimizer of g: lambda* = ttilde / ((1-ctilde)(ctilde+ttilde)).

    At the minimizer, g(lambda*) = exp(-D(ctilde+ttilde || ctilde)).  Interior
    parameters required, same as ``g_objective``.
    """
    ct, tt = _interior(norm, "optimize_lambda")
    lam = max(0.0, tt / ((1.0 - ct) * (ct + tt)))
    g_value = math.exp(-kl_div(min(ct + tt, 1.0), ct))
    return LambdaChoice(lam=lam, g_value=g_value)


def grid_search_lambda(
    norm: NormalizedParams, points: int = 10_001, hi: float = LAMBDA_CAP
) -> LambdaChoice:
    """Brute-force minimizer of g over a uniform grid on [0, hi].

    Slower and coarser than ``optimize_lambda``; kept as an independent
    cross-check of the closed form.  Ties resolve to the smallest lambda.
    """
    if points < 2:
        raise ValidationError(f"points must be >= 2, got {points}")
    if not 0.0 < hi < 1.0:
        raise ValidationError(f"hi must lie in (0, 1), got {hi}")
    import numpy as np

    ct, tt = _interior(norm, "grid_search_lambda")
    lams = np.linspace(0.0, hi, points)
    values = (lams * ct + 1.0 - lams) * (1.0 - lams) ** (ct + tt - 1.0)
    best = int(np.argmin(values))
    return LambdaChoice(lam=float(lams[best]), g_value=float(values[best]))


def chernoff_bound(params: BoundParams) -> float:
    """Tail bound P(sum X_i >= (cbar + t) n) <= value.

    Interior parameters give exp(-n D((cbar-abar+t)/b || (cbar-abar)/b));
    the boundary t = b + abar - cbar gives ctilde^n; the degenerate case
    c = a gives 1 for t = 0 and 0 for t > 0.

    Rounding is outward, so the value is never below the exact bound of the
    normalized floats: the interior exponent shrinks by ``KL_REL_ERR`` of
    itself, and interior and boundary results step one ulp up (at most to 1).
    ctilde^n is used only once ctilde + ttilde reaches 1 in floating point:
    just below, in ``proof_case``'s boundary band, it would undercut the bound.
    """
    norm = normalize(params)
    if proof_case(norm) == "degenerate":
        return 1.0 if norm.ttilde <= slack() else 0.0
    if norm.ctilde + norm.ttilde >= 1.0:
        value = norm.ctilde**params.n
    else:
        exponent = params.n * kl_div(norm.ctilde + norm.ttilde, norm.ctilde)
        value = math.exp(-exponent * (1.0 - KL_REL_ERR))
    return math.nextafter(value, 1.0)
