"""The one tolerance policy: computed quantities compare through
``at_most(x, y, n)``, a band max(TOL, n 2^-50) relative to the larger side,
and inputs and thresholds allow slack(scale) = TOL * max(1, |scale|).

Each site accepts a deviation of TOL/2 and rejects 10 TOL at scale 1, and
the sites that compare computed quantities do so relative to their scale
at 1e-150 too.  The reproductions of quantities far below 1e-12 that an
absolute slack passed are pinned, and a hypothesis test holds every
certificate, chain link and tail verdict to an exact ``Fraction`` reference.
"""

import json
import math
import re
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound import cli
from chbound.dist_models import tail_cutoff
from chbound.entropy_core import TOL, at_most, proof_case, rounding
from chbound.mc_engine import ChainLink

SRC = Path(cb.__file__).parent


def _no_error(build) -> bool:
    try:
        build()
    except cb.ValidationError:
        return False
    return True


def _bound_params(dev, scale):
    return _no_error(lambda: cb.BoundParams(n=1, a=(0.0,), b=1.0, c=(1.0 + dev,), t=0.0))


def _proof_case(dev, scale):
    return proof_case(cb.NormalizedParams.symmetric(dev, 0.5)) == "degenerate"


def _certificate(dev, scale):
    return cb.MomentCertificate((0,), 0.5 * scale + dev * scale, 0.5 * scale).satisfied


def _exact_tail_cutoff(dev, scale):
    return cb.exact_tail(cb.BooleanIIDModel(1, 0.5), 1.0 + dev) == 0.5


def _range_check(dev, scale):
    model = cb.ExplicitTableModel([([1.0 + dev], 1.0)])
    return _no_error(lambda: cb.check_support_range(model, cb.BoundParams.boolean(1, 0.5, 0.0)))


def _chain_link(dev, scale):
    return ChainLink("x", scale, scale + dev * scale).passed


def _cli_tail_le_bound(dev, scale, tmp_path, monkeypatch, capsys):
    # an atom on the threshold of mass ``scale``, so the exact tail is
    # ``scale``; the bound is set to scale - dev scale
    support = [[[1.0], scale]] + ([[[0.0], 1.0 - scale]] if scale < 1.0 else [])
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"kind": "explicit_table", "params": {"support": support}}))
    monkeypatch.setattr(cli, "chernoff_bound", lambda params: scale - dev * scale)
    verdicts = []
    for argv in (["verify", "--spec", str(spec), "--c", "0.5", "--t", "0.5"],
                 ["sweep", "--n", "1", "--c", "0.5", "--t-min", "0.5", "--points", "1",
                  "--spec", str(spec)]):
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        row = result["rows"][0] if "rows" in result else result
        assert row.get("exact_tail", row.get("tail_probability")) == scale
        verdicts.append(row["tail_le_bound"])
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


SITES = {
    "bound_params_range": _bound_params,
    "proof_case": _proof_case,
    "moment_certificate": _certificate,
    "exact_tail_cutoff": _exact_tail_cutoff,
    "range_check": _range_check,
    "chain_link": _chain_link,
}
# the sites that compare computed quantities, through ``at_most``
RELATIVE = ("moment_certificate", "chain_link", "cli_tail_le_bound")


@pytest.mark.parametrize("site, scale", [
    *(pytest.param(site, 1.0, id=site) for site in [*SITES, "cli_tail_le_bound"]),
    *(pytest.param(site, 1e-150, id=f"{site}-1e-150") for site in RELATIVE),
])
def test_each_site_allows_exactly_the_policy_slack(site, scale, tmp_path, monkeypatch, capsys):
    if site == "cli_tail_le_bound":
        def accepts(dev):
            return _cli_tail_le_bound(dev, scale, tmp_path, monkeypatch, capsys)
    else:
        def accepts(dev):
            return SITES[site](dev, scale)
    assert accepts(0.0)
    assert accepts(TOL / 2)
    assert not accepts(10 * TOL)


def _policy_block(lines: list[str]) -> range:
    def find(marker: str) -> int:
        return next(i for i, line in enumerate(lines) if line.startswith(marker))

    return range(find("# -- tolerance policy"), find("# -- end of tolerance policy") + 1)


def _offends(line: str, core: bool, in_block: bool) -> bool:
    """Whether ``line`` holds a tolerance outside the policy: a tolerance
    constant, an ``Ne-M`` or ``2.0**-N`` literal outside the policy block,
    or outside ``entropy_core`` a bare ``TOL`` or a ``slack()`` without a
    scale, the forms an absolute test of computed quantities takes."""
    names = set(re.findall(r"\b\w*_TOL\b", line)) - {"PROB_SUM_TOL"}
    literal = re.search(r"\d(\.\d*)?e-\d+|\b2(\.0*)?\s*\*\*\s*-\s*\d", line)
    absolute = not core and re.search(r"\bTOL\b|\bslack\(\s*\)", line)
    return bool(names or absolute or (literal and not in_block))


def test_tolerances_live_only_in_the_policy_block():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        core = path.name == "entropy_core.py"
        allowed = _policy_block(lines) if core else range(0)
        offenders += [f"{path.name}:{i + 1}: {line.strip()}" for i, line in enumerate(lines)
                      if _offends(line, core, i in allowed)]
    assert not offenders, "\n".join(offenders)


def test_guard_sees_every_form_it_forbids():
    for line in ("x = n * 2.0**-50", "x = 2 ** -52", "ok = a <= b + slack()",
                 "ok = a < b * (1.0 - TOL)", "eps = 1e-12", "X_TOL = 3"):
        assert _offends(line, core=False, in_block=False), line
    assert not _offends("tol = slack(params.b) / params.b", core=False, in_block=False)
    assert not _offends("return n * 2.0**-50", core=True, in_block=True)
    assert _offends("return n * 2.0**-50", core=True, in_block=False)


class TestAtMost:
    def test_band_is_relative_to_the_larger_side(self):
        for scale in (1.0, 1e-150, 1e150, 2.0**-1000):
            assert at_most(scale, scale)
            assert at_most(scale * (1 + TOL / 2), scale)
            assert not at_most(scale * (1 + 10 * TOL), scale)
            assert at_most(scale, scale * (1 + 10 * TOL))
        assert not at_most(8.104774656529816e-177 * 2, 8.104774656529816e-177)

    def test_band_widens_with_the_number_of_terms(self):
        # the measured rounding of link 2 at n = 20,000: a relative n 1.1e-16
        x = 1.0 + 20_000 * 1.1e-16
        assert at_most(x, 1.0, 20_000)
        assert not at_most(x, 1.0)  # 2.2e-12 is past TOL at one term
        assert rounding(20_000) == 20_000 * 2.0**-50
        assert not at_most(1.0 + 2 * rounding(20_000), 1.0, 20_000)

    def test_floor_below_the_normal_range(self):
        tiny = math.ulp(0.0)  # 5e-324
        assert at_most(tiny, 0.0) and at_most(0.0, tiny)
        assert at_most(0.0, 0.0) and at_most(-tiny, 0.0)
        assert not at_most(2.0**-1000, 0.0)


@pytest.fixture
def boolean1000(tmp_path):
    spec = tmp_path / "b1000.json"
    spec.write_text(json.dumps({"kind": "boolean_iid", "n": 1000, "params": {"p": 0.45}}))
    return str(spec)


class TestTinyQuantities:
    """Tails, bounds, moments and chain sums far below 1e-12, where an
    absolute slack passed every comparison whatever the values."""

    def test_sweep_tail_over_bound_reads_false(self, boolean1000, capsys):
        assert cli.main(["sweep", "--n", "1000", "--c", "0.4", "--over", "t", "--t-min", "0.1",
                         "--t-max", "0.2", "--points", "3", "--spec", boolean1000]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        last = rows[-1]
        assert last["t"] == 0.2
        assert last["exact_tail"] == pytest.approx(1.28e-21, rel=1e-2)
        assert last["bound"] == pytest.approx(6.05e-36, rel=1e-2)
        assert [row["tail_le_bound"] for row in rows] == [False, False, False]

    def test_verify_fails_the_moment_link_and_explains_it(self, boolean1000, capsys):
        assert cli.main(["verify", "--spec", boolean1000, "--c", "0.4", "--t", "0.2",
                         "--max-subset-size", "1"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        link = res["links"][1]
        assert link["name"] == "certified_moments_vs_process"
        assert link["lhs"] == pytest.approx(8.10e-177, rel=1e-2)
        assert link["rhs"] == pytest.approx(4.34e-159, rel=1e-2)
        assert link["passed"] is False
        assert res["failed_links"] == ["certified_moments_vs_process"]
        assert res["all_passed"] is False and res["explained"] is True
        assert res["tail_le_bound"] is False

    def test_certificate_of_a_large_subset(self):
        cert = cb.MomentCertificate(tuple(range(300)), 0.45**300, 0.4**300)
        assert not cert.satisfied
        assert cb.MomentCertificate(tuple(range(300)), 0.4**300, 0.45**300).satisfied

    def test_boolean_chain_at_equality_past_the_normal_range(self):
        # p = c makes link 2 an equality; at lam near 1 both sides of links 1
        # and 2 leave the normal range, where the band's floor takes over
        model = cb.BooleanIIDModel(2000, 0.5)
        report = cb.verify_chain(model, cb.BoundParams.boolean(2000, 0.5, 0.1), 0.999999,
                                 max_subset_size=1)
        assert report.all_passed
        assert all(link.n == 2000 for link in report.links)
        first = report.link("product_mean_vs_per_variable")
        assert max(first.lhs, first.rhs) < 2.0**-1022


# -- exact references ----------------------------------------------------


def _dyadic(x) -> tuple[int, int]:
    """(N, e) with x = N / 2^e exactly: every float is one, and so is every
    sum and product of floats."""
    num, den = Fraction(x).as_integer_ratio()
    assert den & (den - 1) == 0
    return num, den.bit_length() - 1


def _times(*factors: tuple[int, int]) -> tuple[int, int]:
    return math.prod(f[0] for f in factors), sum(f[1] for f in factors)


def _power(x: tuple[int, int], k: int) -> tuple[int, int]:
    return x[0] ** k, x[1] * k


def _total(terms) -> Fraction:
    """The exact sum of dyadic terms, added as integers over one power of two
    (as Fractions, each addition would take a gcd of 20,000-bit integers)."""
    terms = list(terms)
    top = max((e for _, e in terms), default=0)
    return Fraction(sum(num << (top - e) for num, e in terms), 1 << top)


def _law(kind, n, p, k, rho, table, lam):
    """Exact (sum, probability, prod_i (lam x_i + 1 - lam)) of each atom
    class of the model's stored floats, the last two dyadic."""
    lam = Fraction(lam)
    if kind == "table":
        return [(sum(map(Fraction, x)), _dyadic(prob),
                 _dyadic(math.prod(lam * Fraction(v) + 1 - lam for v in x))) for x, prob in table]
    p1, p0, w0, one = _dyadic(p), _dyadic(1.0 - p), _dyadic(1 - lam), (1, 0)
    free = n - k if kind == "planted" else n

    def binomial(shift, scale, weight):
        return [(shift + s, _times(scale, (math.comb(free, s), 0), _power(p1, s),
                                   _power(p0, free - s)), _times(weight, _power(w0, free - s)))
                for s in range(free + 1)]

    if kind == "boolean":
        return binomial(0, one, one)
    if kind == "planted":
        return binomial(k, p1, one) + binomial(0, p0, _power(w0, k))
    shared = _dyadic(rho)  # the mixture
    return ([(n, _times(shared, p1), one), (0, _times(shared, p0), _power(w0, n))]
            + binomial(0, _dyadic(1.0 - rho), one))


def _moment(kind, p, k, rho, table, subset):
    """Exact E[prod_{i in subset} X_i]."""
    s, p = len(subset), Fraction(p)
    if kind == "table":
        total = Fraction(0)
        for x, prob in table:
            term = Fraction(prob)
            for i in subset:
                term *= Fraction(x[i])
            total += term
        return total
    if kind == "planted":
        j = sum(i < k for i in subset)
        return p ** (s - j + 1) if j else p**s
    if kind == "mixture":
        return Fraction(rho) * p + Fraction(1.0 - rho) * p**s
    return p**s


def _decided(x, y, n):
    """The exact verdict x <= y, or None where the relative gap is within
    twice the band or both sides lie below the normal range."""
    x, y = _decimal(x), _decimal(y)
    top = max(abs(x), abs(y))
    if top < Decimal(2.0**-1022) or abs(x - y) <= 2 * Decimal(max(TOL, rounding(n))) * top:
        return None
    return x <= y


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / q.denominator


@st.composite
def _problems(draw):
    kind = draw(st.sampled_from(["boolean", "planted", "mixture", "table"]))
    k = rho = table = None
    p = draw(st.floats(0.05, 0.95))
    if kind == "table":
        n = draw(st.integers(1, 4))
        values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        rows = draw(st.lists(st.tuples(st.lists(values, min_size=n, max_size=n),
                                       st.integers(1, 9)), min_size=1, max_size=6))
        total = sum(w for _, w in rows)
        table = [(x, w / total) for x, w in rows]
        p = sum(prob * sum(x) for x, prob in table) / n  # the mean value
    else:
        n = draw(st.integers(1, 400))
        if kind == "planted":
            k = draw(st.integers(1, min(n, 12)))
        if kind == "mixture":
            rho = draw(st.floats(0.0, 1.0))
    # c on either side of the truth, one value or two halves
    c = [min(max(p * draw(st.sampled_from([0.9, 0.99, 1.0, 1.01, 1.1])), 0.02), 0.98)
         for _ in range(2)]
    c = [c[0]] * n if draw(st.booleans()) else [c[i < n // 2] for i in range(n)]
    t = (1.0 - math.fsum(c) / n) * draw(st.floats(0.05, 0.95))
    lam = draw(st.sampled_from([None, 0.01, 0.3, 0.9, 0.999999]))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return kind, n, p, k, rho, table, c, t, lam, sorted(subset)


def _spec(kind, n, p, k, rho, table):
    if kind == "table":
        return {"kind": "explicit_table", "params": {"support": [[x, q] for x, q in table]}}
    params = {"p": p, **({"k": k} if kind == "planted" else {}),
              **({"rho": rho} if kind == "mixture" else {})}
    name = {"boolean": "boolean_iid", "planted": "planted_clique",
            "mixture": "exchangeable_mixture"}[kind]
    return {"kind": name, "n": n, "params": params}


@settings(max_examples=50, deadline=None)
@given(_problems())
def test_verdicts_match_an_exact_reference(problem):
    """Every certificate, chain-link and ``verify`` tail verdict equals the
    exact verdict on the model's law wherever that verdict is decided: a
    relative gap past twice the band, on a side in the normal range."""
    with localcontext() as ctx:
        ctx.prec = 80  # for the envelope's power and the relative gaps
        _check_verdicts(*problem)


def _check_verdicts(kind, n, p, k, rho, table, c, t, lam, subset):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out.json"
        spec.write_text(json.dumps(_spec(kind, n, p, k, rho, table)))
        argv = ["verify", "--spec", str(spec), "--c", ",".join(map(repr, c)), "--t", repr(t),
                "--max-subset-size", "1", "--out", str(out)]
        assert cli.main(argv + ([] if lam is None else ["--lambda", repr(lam)])) == 0
        res = json.loads(out.read_text())["result"]
    model = cb.model_from_spec(_spec(kind, n, p, k, rho, table))
    params = cb.BoundParams(n=n, a=(0.0,) * n, b=1.0, c=tuple(c), t=t)

    # the certificate of one subset, as certify_moments forms it
    cert = cb.MomentCertificate(tuple(subset), cb.exact_moment(model, subset),
                                float(np.prod([c[i] for i in subset])))
    bound = math.prod(Fraction(c[i]) for i in subset)
    truth = _decided(_moment(kind, p, k, rho, table, subset), bound, len(subset))
    assert truth in (None, cert.satisfied)

    lam = res["lambda"]
    law = _law(kind, n, p, k, rho, table, lam)
    cut = Fraction(tail_cutoff(params.threshold))
    tail = _total(q for s, q, _ in law if s >= cut)
    on_tail = _total(_times(q, w) for s, q, w in law if s >= cut)
    product = _total(_times(q, w) for _, q, w in law)
    cbar, lam = sum(map(Fraction, c)) / n, Fraction(lam)
    per_variable = math.prod(lam * Fraction(ci) + 1 - lam for ci in c)
    exponent = n * (1 - cbar - Fraction(t))
    power = (_decimal(1 - lam).ln() * _decimal(exponent)).exp() if lam else Decimal(1)
    sides = [((lam * cbar + 1 - lam) ** n, per_variable), (per_variable, product),
             (product, on_tail), (on_tail, Fraction(power * _decimal(tail)))]
    for link, (lhs, rhs) in zip(res["links"], sides):
        assert _decided(rhs, lhs, n) in (None, link["passed"]), link
    assert _decided(tail, Fraction(res["bound"]), n) in (None, res["tail_le_bound"])
