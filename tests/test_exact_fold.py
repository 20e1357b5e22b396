"""The exact routines fold factors instead of enumerating atoms; these tests
check every folded quantity against brute-force enumeration.

The reference enumerates each model's atoms with ``itertools.product`` over
its factor atoms (one coin per free variable, the planted block's one coin,
the mixture's shared draw, the table's rows) and computes in
``fractions.Fraction``.  Values are multiples of 1/4 in [-1, 1],
probabilities multiples of 1/8, and lambda a multiple of 1/4, so every
quantity the program computes is exactly representable: the folded law,
the three chain sums and every moment must equal the reference exactly.
"""

import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chbound as cb
from chbound.dist_models import _model_from_json, tail_cutoff

QUARTERS = st.integers(min_value=-4, max_value=4).map(lambda k: k / 4)
# values in [-1, 1] whose products of four stay clear of underflow
REALS = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-50 else 0.0)


@st.composite
def dyadic_probs(draw, size):
    """``size`` probabilities in multiples of 1/8 that sum to exactly 1."""
    cuts = sorted(draw(st.lists(st.integers(0, 8), min_size=size - 1, max_size=size - 1)))
    return [(hi - lo) / 8 for lo, hi in zip([0] + cuts, cuts + [8])]


@st.composite
def marginal(draw):
    size = draw(st.integers(1, 3))
    values = draw(st.lists(QUARTERS, min_size=size, max_size=size, unique=True))
    return list(zip(values, draw(dyadic_probs(size))))


def _coin(p):
    return [(0.0, 1 - p), (1.0, p)]


@st.composite
def models(draw):
    """(model, reference atoms): atoms as (vector, probability) Fractions."""
    kind = draw(st.sampled_from(
        ["independent", "boolean", "planted", "mixture", "table", "factored"]
    ))
    eighth = st.integers(0, 8).map(lambda k: k / 8)
    if kind == "independent":
        margs = draw(st.lists(marginal(), min_size=1, max_size=4))
        model = cb.IndependentModel(margs)
        atoms = [(tuple(v for v, _ in combo), math.prod(Fraction(p) for _, p in combo))
                 for combo in itertools.product(*margs)]
    elif kind == "boolean":
        n, p = draw(st.integers(1, 5)), draw(eighth)
        model = cb.BooleanIIDModel(n, p)
        atoms = [(tuple(v for v, _ in combo), math.prod(Fraction(q) for _, q in combo))
                 for combo in itertools.product(_coin(p), repeat=n)]
    elif kind == "planted":
        n, p = draw(st.integers(1, 5)), draw(eighth)
        block = draw(st.sets(st.integers(0, n - 1), min_size=1))
        model = cb.PlantedCliqueModel(n, p, indices=sorted(block))
        free = [i for i in range(n) if i not in block]
        atoms = []
        for (bv, bp), *rest in itertools.product(_coin(p), *[_coin(p)] * len(free)):
            x = [bv] * n
            for i, (v, _) in zip(free, rest):
                x[i] = v
            atoms.append((tuple(x), Fraction(bp) * math.prod(Fraction(q) for _, q in rest)))
    elif kind == "mixture":
        n, rho, marg = draw(st.integers(1, 4)), draw(eighth), draw(marginal())
        model = cb.ExchangeableMixtureModel(n, rho, marg)
        atoms = [((v,) * n, Fraction(rho) * Fraction(p)) for v, p in marg]
        atoms += [(tuple(v for v, _ in combo),
                   (1 - Fraction(rho)) * math.prod(Fraction(p) for _, p in combo))
                  for combo in itertools.product(marg, repeat=n)]
    elif kind == "factored":
        # Two joint factors: a two-column table and a coin, each column read
        # by any number of variables through the column map.
        n, m = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(QUARTERS, min_size=2, max_size=2), min_size=m, max_size=m))
        probs, p = draw(dyadic_probs(m)), draw(eighth)
        vmap = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                    .filter(lambda v: 2 in v and min(v) < 2))
        model = cb.JointModel(n, [rows, [0.0, 1.0]], [probs, [1 - p, p]], vmap)
        atoms = [(tuple((*row, coin)[c] for c in vmap), Fraction(q) * Fraction(cp))
                 for (row, q), (coin, cp) in itertools.product(zip(rows, probs), _coin(p))]
    else:
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(QUARTERS, min_size=n, max_size=n), min_size=m, max_size=m))
        probs = draw(dyadic_probs(m))
        model = cb.ExplicitTableModel(list(zip(rows, probs)))
        atoms = [(tuple(r), Fraction(p)) for r, p in zip(rows, probs)]
    return model, [(tuple(Fraction(v) for v in x), p) for x, p in atoms]


@st.composite
def problems(draw):
    """(model, atoms, params, lam) on [-1, 1] with per-variable c_i."""
    model, atoms = draw(models())
    n = model.n
    c = draw(st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=n, max_size=n))
    base = cb.BoundParams(n=n, a=(-1.0,) * n, b=2.0, c=c, t=0.0)
    params = replace(base, t=draw(st.sampled_from([0.0, 0.5, 1.0])) * base.t_max)
    lam = draw(st.integers(0, 3)) / 4
    return model, atoms, params, lam


def _law(atoms):
    law = {}
    for x, p in atoms:
        s = sum(x, Fraction(0))
        law[s] = law.get(s, Fraction(0)) + p
    return law


def _weight(x, params, lam):
    lam = Fraction(lam)
    return math.prod(lam * (xi - Fraction(a)) / Fraction(params.b) + 1 - lam
                     for xi, a in zip(x, params.a))


class TestFoldAgainstEnumeration:
    @given(models())
    @settings(max_examples=150, deadline=None)
    def test_sum_law(self, case):
        model, atoms = case
        sums, probs = model.sum_support()
        assert np.all(np.diff(sums) > 0)
        got = {Fraction(s): Fraction(p) for s, p in zip(sums.tolist(), probs.tolist()) if p}
        assert got == {s: p for s, p in _law(atoms).items() if p}

    @given(models(), st.integers(-8, 24).map(lambda k: k / 4))
    @settings(max_examples=100, deadline=None)
    def test_exact_tail(self, case, threshold):
        model, atoms = case
        cutoff = Fraction(tail_cutoff(threshold))
        want = sum((p for x, p in atoms if sum(x, Fraction(0)) >= cutoff), Fraction(0))
        assert cb.exact_tail(model, threshold) == min(1.0, float(want))

    @given(problems())
    @settings(max_examples=150, deadline=None)
    def test_chain_sums(self, case):
        model, atoms, params, lam = case
        cutoff = Fraction(tail_cutoff(params.threshold))
        tail = [sum(x, Fraction(0)) >= cutoff for x, _ in atoms]
        weighted = [p * _weight(x, params, lam) for x, p in atoms]
        report = cb.verify_chain(model, params, lam)
        assert report.tail_probability == float(sum(p for (_, p), t in zip(atoms, tail) if t))
        assert report.expected_product == float(sum(weighted))
        assert report.expected_product_on_tail == float(
            sum(w for w, t in zip(weighted, tail) if t)
        )
        assert cb.exact_product_expectation(model, lam, params) == float(sum(weighted))

    @given(problems())
    @settings(max_examples=150, deadline=None)
    def test_certificates_and_exact_moment(self, case):
        model, atoms, params, _ = case
        certs = cb.certify_moments(model, params)
        assert len(certs) == 2**model.n
        for cert in certs:
            want = sum((p * math.prod(x[i] for i in cert.subset) for x, p in atoms), Fraction(0))
            assert cert.exact_moment == float(want)
            assert cb.exact_moment(model, cert.subset) == cert.exact_moment
            bound = float(np.prod([params.c[i] for i in cert.subset])) if cert.subset else 1.0
            assert cert.bound_product == bound
        cb.check_support_range(model, params)


class TestClosedFormBits:
    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_products_match_np_prod(self, c):
        n = len(c)
        params = cb.BoundParams(n=n, a=(0.0,) * n, b=1.0, c=c, t=0.0)
        for cert in cb.certify_moments(cb.BooleanIIDModel(n, 0.5), params, min(n, 3)):
            want = float(np.prod([c[i] for i in cert.subset])) if cert.subset else 1.0
            assert cert.bound_product.hex() == want.hex()

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(REALS, min_size=n, max_size=n),
                    st.integers(1, 1000),
                ),
                min_size=1,
                max_size=8,
            )
        ),
        st.integers(0, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_real_valued_moments(self, rows, rho_eighths):
        # Non-dyadic inputs: every moment within a few ulps of the exact
        # value of the float inputs, for a table and for a mixture.
        total = sum(w for _, w in rows)
        table = [(x, w / total) for x, w in rows]
        model = cb.ExplicitTableModel(table)
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(model.n), k) for k in range(1, model.n + 1)
        ):
            terms = [Fraction(p) * math.prod(Fraction(x[i]) for i in subset) for x, p in table]
            scale = float(sum(abs(t) for t in terms))
            assert abs(cb.exact_moment(model, subset) - float(sum(terms))) <= 1e-14 * scale
        values = sorted({x[0] for x, _ in table})
        marg = [(v, 1 / len(values)) for v in values]
        rho = rho_eighths / 8
        mixture = cb.ExchangeableMixtureModel(3, rho, marg)
        for subset in [(0,), (0, 2), (0, 1, 2)]:
            k = len(subset)
            shared = sum(Fraction(p) * Fraction(v) ** k for v, p in marg)
            mean = sum(Fraction(p) * Fraction(v) for v, p in marg)
            want = Fraction(rho) * shared + (1 - Fraction(rho)) * mean**k
            scale = float(sum(Fraction(p) * abs(Fraction(v)) ** k for v, p in marg))
            assert abs(cb.exact_moment(mixture, subset) - float(want)) <= 1e-14 * scale


def test_exact_routines_never_enumerate_factored_models():
    model = cb.BooleanIIDModel(12, 0.5)
    params = cb.BoundParams.boolean(12, 0.5, 0.25)
    report = cb.verify_chain(model, params, 0.5)
    assert report.all_passed and report.hypothesis_ok
    assert cb.exact_tail(model, 9.0) == sum(math.comb(12, k) for k in range(9, 13)) / 4096
    assert len(cb.certify_moments(model, params)) == 4096
    cb.check_support_range(model, params)
    assert cb.exact_moment(model, (0, 5, 7)) == 0.125
    assert cb.exact_product_expectation(model, 0.5, params) == 0.75**12


def test_boolean_20_law_is_binomial():
    # 21 states instead of 2^20 atoms, each mass C(20, k) / 2^20 exactly.
    model = cb.BooleanIIDModel(20, 0.5, atom_cap=1 << 21)
    sums, probs = model.sum_support()
    assert sums.tolist() == [float(k) for k in range(21)]
    assert probs.tolist() == [math.comb(20, k) / 2**20 for k in range(21)]
    assert cb.exact_tail(model, 14.0) == 60460 / 1048576


@pytest.mark.parametrize("p", [0.3, 0.4, 0.5])
def test_boolean_bound_is_sharp_to_the_lattice_constant(p):
    # Bahadur-Rao: on the integer lattice, tail / exp(-n D(q || p)) times
    # sqrt(n) tends to 1 / ((1 - e^-theta) sigma sqrt(2 pi)), theta the tilt
    # that moves the mean from p to q and sigma the tilted deviation; at
    # n = 1000 and t = 0.1 it reads about 2 % below (t = 0.05 reads 5-7 %).
    n, t = 1000, 0.1
    q = p + t
    theta = math.log(q * (1.0 - p) / (p * (1.0 - q)))
    sigma = math.sqrt(q * (1.0 - q))
    constant = 1.0 / ((1.0 - math.exp(-theta)) * sigma * math.sqrt(2.0 * math.pi))
    params = cb.BoundParams.boolean(n, p, t)
    tail = cb.exact_tail(cb.BooleanIIDModel(n, p), params.threshold)
    ratio = tail / cb.chernoff_bound(params) * math.sqrt(n)
    assert ratio == pytest.approx(constant, rel=0.03)


def _pinned_models(zoo):
    """The exact path's models: a negative a_i, a mixture under a = -0.25 and
    b = 1.5 with atoms in the slack band, so that its image clips, and a
    table whose row of probability 0 lies far outside [a_i, a_i + b]."""
    yield "independent_mixed", *{name: (m, p) for name, m, p in zoo}["independent_mixed"]
    yield ("mixture_clipped",
           cb.ExchangeableMixtureModel(
               3, 0.3, [(-0.25 - 5e-13, 0.3), (0.5, 0.3), (1.25 + 5e-13, 0.4)]),
           cb.BoundParams(n=3, a=(-0.25,) * 3, b=1.5, c=(0.5,) * 3, t=0.3))
    yield ("table_zero_row",
           cb.ExplicitTableModel([([0.25, 0.75, 0.5], 0.5), ([1.0, 0.0, 0.25], 0.375),
                                  ([1e200, -1e200, 9.0], 0.0), ([0.5, 0.5, 1.0], 0.125)]),
           cb.BoundParams.boolean(3, 0.45, 0.05))


# float.hex of the sum law, exact_product_expectation and verify_chain's
# tail probability, expected product and expected product on the tail, at
# lam = 0.3, as the range check gave them when it mapped every factor row;
# the table's sum law holds only the sums of its rows of positive probability.
EXACT_PINS = {
    "independent_mixed": {
        "sums": ["-0x1.6666666666666p-2", "0x1.3333333333334p-3",
                 "0x1.999999999999ap-2", "0x1.4cccccccccccdp-1", "0x1.ccccccccccccdp-1",
                 "0x1.2666666666666p+0", "0x1.6666666666666p+0", "0x1.e666666666666p+0"],
        "probs": ["0x1.999999999999ap-5", "0x1.999999999999ap-5", "0x1.999999999999ap-5",
                  "0x1.999999999999ap-3", "0x1.999999999999ap-5", "0x1.999999999999ap-3",
                  "0x1.999999999999ap-3", "0x1.999999999999ap-3"],
        "product": "0x1.5ecaff6d33094p-1",
        "chain": ["0x1.999999999999ap-3", "0x1.5ecaff6d33094p-1", "0x1.6f837b4a2339dp-3"],
    },
    "mixture_clipped": {
        "sums": ["-0x1.80000000034c6p-1", "-0x1.1978000000000p-40",
                 "0x1.7ffffffffee68p-1", "0x1.7ffffffffee69p-1", "0x1.8000000000000p+0",
                 "0x1.2000000000466p+1", "0x1.80000000008ccp+1", "0x1.e000000000d32p+1"],
        "probs": ["0x1.be0ded288ce70p-4", "0x1.d07c84b5dcc64p-5", "0x1.b6ae7d566cf41p-4",
                  "0x1.9ce075f6fd21fp-6", "0x1.0a57a786c2268p-2", "0x1.694467381d7dap-3",
                  "0x1.9ce075f6fd220p-4", "0x1.5182a9930be0ep-3"],
        "product": "0x1.51818bf13a6a6p-1",
        "chain": ["0x1.0ff972474538fp-2", "0x1.51818bf13a6a6p-1", "0x1.007dd44135547p-2"],
    },
    "table_zero_row": {
        "sums": ["0x1.4000000000000p+0", "0x1.8000000000000p+0", "0x1.0000000000000p+1"],
        "probs": ["0x1.8000000000000p-2", "0x1.0000000000000p-1", "0x1.0000000000000p-3"],
        "product": "0x1.32645a1cac082p-1",
        "chain": ["0x1.4000000000000p-1", "0x1.32645a1cac082p-1", "0x1.9476c8b43957fp-2"],
    },
}


def test_exact_path_keeps_its_pinned_bits(zoo):
    for name, model, params in _pinned_models(zoo):
        sums, probs = model.sum_support()
        report = cb.verify_chain(model, params, 0.3)
        got = {
            "sums": [x.hex() for x in sums.tolist()],
            "probs": [x.hex() for x in probs.tolist()],
            "product": cb.exact_product_expectation(model, 0.3, params).hex(),
            "chain": [report.tail_probability.hex(), report.expected_product.hex(),
                      report.expected_product_on_tail.hex()],
        }
        assert got == EXACT_PINS[name], name


def _decoded_table():
    """A 16,384 x 12 table of 0/1 rows decoded from its JSON spec, as `verify --spec` reads it."""
    rng = random.Random(20191)
    weights = [rng.randint(1, 1000) for _ in range(16384)]
    total = sum(weights)
    support = [{"x": [rng.randint(0, 1) for _ in range(12)], "p": w / total} for w in weights]
    return _model_from_json(json.dumps({"kind": "explicit_table", "params": {"support": support}}))


def _certified_models(zoo):
    """(name, model, params, max_subset_size) of the pinned certificates: the
    exact path's models, a planted block scattered through the variables, a
    three-atom mixture with per-variable c_i in full and up to size 3, and
    the decoded table up to size 3."""
    for name, model, params in _pinned_models(zoo):
        yield name, model, params, None
    yield ("planted_scattered", cb.PlantedCliqueModel(9, 0.5, indices=(1, 4, 6, 8)),
           cb.BoundParams.boolean(9, math.sqrt(0.5), 0.1), None)
    mixture = cb.ExchangeableMixtureModel(5, 0.25, [(-0.5, 0.25), (0.25, 0.35), (1.0, 0.4)])
    params = cb.BoundParams(n=5, a=(-0.5,) * 5, b=1.5, c=(0.3, 0.45, 0.6, 0.75, 0.9), t=0.0)
    yield "mixture_three_atoms", mixture, params, None
    yield "mixture_three_atoms_3", mixture, params, 3
    yield "table_decoded_3", _decoded_table(), cb.BoundParams.boolean(12, 0.5, 0.25), 3


# (certificate count, sha256 of one line per certificate: its subset, the
# float.hex of its moment and bound product, and whether it is satisfied;
# the failing subsets, where they are few enough to read)
CERTIFICATE_PINS = {
    "independent_mixed": (
        8, "25cffd7f6f7fd1a3973b2ac1f71c28af7024c20d0ee8c202c924303fb622cdc9", []),
    "mixture_clipped": (
        8, "1f8da5f3eb9b13251804b72a5942fe2c514ded75133d5918b387c0507507d103",
        [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]),
    "table_zero_row": (
        8, "8bef45055e98a80fd226610d79b1e8557c7d131c861067c91a840940cdd872b4",
        [[0], [2], [0, 2], [1, 2]]),
    "planted_scattered": (
        512, "935607a8138168b7f2c9d77fb8a2d0fa5b8c7020c564a6fa934bcc52cfcfbc98",
        [[1, 4, 6], [1, 4, 8], [1, 6, 8], [4, 6, 8], [1, 4, 6, 8], [0, 1, 4, 6, 8],
         [1, 2, 4, 6, 8], [1, 3, 4, 6, 8], [1, 4, 5, 6, 8], [1, 4, 6, 7, 8]]),
    "mixture_three_atoms": (
        32, "9d2078031201e4653314add8f2647862f17cedcbf2f4bc4cbae00deae706634e",
        [[0], [0, 1], [0, 2], [0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 2, 3], [0, 1, 2, 4],
         [0, 1, 3, 4], [0, 1, 2, 3, 4]]),
    "mixture_three_atoms_3": (
        26, "50e25e74a9913bc248259100f57650f93a59001092dd2f877836cbdf74fa74f2",
        [[0], [0, 1], [0, 2], [0, 1, 2], [0, 1, 3], [0, 1, 4]]),
    "table_decoded_3": (
        299, "07014823d94ef92c9ce5b591b5ec0b099d8f5891156755e83fb3a8abef6e4bd7", None),
}


def test_certificates_keep_their_pinned_bits(zoo):
    for name, model, params, size in _certified_models(zoo):
        certs = cb.certify_moments(model, params, size)
        lines = "\n".join(f"{list(c.subset)} {c.exact_moment.hex()} {c.bound_product.hex()} "
                          f"{c.satisfied}" for c in certs)
        count, digest, failing = CERTIFICATE_PINS[name]
        assert len(certs) == count, name
        if failing is not None:
            assert [list(c.subset) for c in certs if not c.satisfied] == failing, name
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, name


def test_exact_moment_walks_a_deep_chain():
    # one factor read by 1500 variables: a walk as deep as the chain
    assert cb.exact_moment(cb.PlantedCliqueModel(1500, 0.5, k=1500), range(1500)) == 0.5


def test_chain_report_lists_the_failing_certificates(zoo):
    for name, model, params, size in _certified_models(zoo):
        report = cb.verify_chain(model, params, 0.3, max_subset_size=size)
        want = tuple(c for c in report.certificates if not c.satisfied)
        assert report.failing == want and report.hypothesis_ok == (not want), name
