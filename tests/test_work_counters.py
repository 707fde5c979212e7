"""Deterministic work counters of the Dorfman and Courant axiom suites.

Every coefficient sum of the library runs through `scalar.sum_of_products`.
Wrapping it in every `hicourant` module that binds it counts, for one
seeded suite, the coefficient products (sum of |p| * |q| over the triples
with a second factor) and the lone terms copied into sums (sum of |p| over
the triples without one).  Both counts are exact for a seed, so a change
that builds a bracket twice, or adds a built tensor into another instead
of summing both as term streams, shows here as a number, not as noise in
a timing.

The limits are the counts of the suites before each residual was summed
once: then every outer bracket was built and copied again by the tensor
`+`/`-`, and the scalings by 1/2, 2 and -1/3 were products with constant
polynomials.  Those scalings are now int or Fraction scales of the terms,
so only the products by non-constant polynomials keep their old count.
The Courant suite builds [e1,e3] + d<e1,e3> of its pairing row as one
Dorfman bracket, so its own limits are its counts since then.

`Poly.partial` keeps each derivative it builds, so every derivative
object it returns that the suite has not seen before is one derivative
computation; the counter keeps them alive so that no id is reused.  The
limits are the distinct (polynomial, variable) pairs the suites
differentiated while every call built its derivative again.

`lie_terms` takes an entry d_l X^k of the field's Jacobian only where it
meets a slot of the tensor, so the Nambu fundamental sweep, which takes
one Lie derivative per tuple of monomials, is pinned to the derivatives
it builds that way (252 at (4,3); 840 when the whole Jacobian was built
for each tuple).

The lexer writes a run of factors joined by "*" (`9/5*x1*x3`) as one
token, so the token count of a seeded io-style operand is pinned here:
a return to one token per factor shows as a number.
"""

import random
import sys
from collections import Counter

import pytest

from hicourant import courant, dsl, scalar
from hicourant.exterior import Context, Form
from hicourant.nambu import NambuCandidate, np_fundamental_check
from oracles import io_section_text, oracle_tokenize

SEED, SAMPLES = 13, 4

SUITES = {
    "dorfman": lambda: courant.check_dorfman_axioms(Context(3, 2), SEED, SAMPLES),
    "courant": lambda: courant.check_courant_axioms(Context(3, 2), SEED, SAMPLES),
}

# the counts of the suites before their residuals were summed as term streams
BEFORE = {
    "dorfman": {"products": 13_241, "nonconstant_products": 11_544, "lone": 10_785},
    "courant": {"products": 24_526, "nonconstant_products": 18_383, "lone": 24_603},
}

# the Courant suite's products since its pairing row takes a Dorfman bracket
COURANT_PRODUCTS = {"products": 17_480, "nonconstant_products": 16_782}

# derivative computations, one per Poly.partial call before it kept its results
PARTIAL_CALLS_BEFORE = {"dorfman": 855, "courant": 1_120}
DISTINCT_DERIVATIVES = {"dorfman": 336, "courant": 582}

# derivatives of the (4,3) fundamental sweep of @1^@2^@3^@4, over its 364 tuples
SWEEP_DERIVATIVES = 252


# tokens of the seed-1 io-style (5,2) operand of 12 terms per coefficient, with each
# run of factors as one token and with one token per factor
IO_SECTION_TOKENS = 449
IO_SECTION_FACTOR_TOKENS = 951


def install_counter(monkeypatch) -> Counter:
    """Wrap every binding of sum_of_products by a counter of products and lone terms, and
    Poly.partial by a counter of calls and of the derivatives they built."""
    counts: Counter = Counter()
    original = scalar.sum_of_products

    def counted(m, products):
        products = list(products)
        for _, p, q in products:
            if q is None:
                counts["lone"] += len(p.terms)
            else:
                counts["products"] += len(p.terms) * len(q.terms)
                if not q.is_constant:
                    counts["nonconstant_products"] += len(p.terms) * len(q.terms)
        return original(m, products)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hicourant" or name.startswith("hicourant.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)

    built: dict[int, scalar.Poly] = {}
    partial = scalar.Poly.partial

    def counted_partial(self, i):
        derivative = partial(self, i)
        built[id(derivative)] = derivative
        counts["partial_calls"] += 1
        counts["derivatives"] = len(built)
        return derivative

    monkeypatch.setattr(scalar.Poly, "partial", counted_partial)
    return counts


def count_work(monkeypatch, suite) -> Counter:
    """The work counts of one run of suite, which must pass with SAMPLES cases per check."""
    with monkeypatch.context() as patch:
        counts = install_counter(patch)
        checks = suite()
    assert all(check.passed and check.cases == SAMPLES for check in checks)
    return counts


def test_counter_reaches_scalar_and_tensor_sums(monkeypatch):
    x1 = scalar.Poly.var(2, 1)
    counts = install_counter(monkeypatch)
    (x1 + 1) * (x1 + 2)
    assert counts == {"lone": 4, "products": 4, "nonconstant_products": 4}
    counts.clear()
    Form.basis(2, (1,)) * (x1 + 1) - Form.basis(2, (1,))
    assert counts == {"lone": 5, "products": 2, "nonconstant_products": 2}


def test_dorfman_products_stay_and_copies_fall(monkeypatch):
    counts = count_work(monkeypatch, SUITES["dorfman"])
    before = BEFORE["dorfman"]
    assert counts["nonconstant_products"] == before["nonconstant_products"]
    assert counts["products"] <= before["products"]
    assert counts["lone"] < before["lone"]


def test_courant_products_do_not_rise_and_copies_fall(monkeypatch):
    counts = count_work(monkeypatch, SUITES["courant"])
    assert counts["nonconstant_products"] <= COURANT_PRODUCTS["nonconstant_products"]
    assert counts["products"] <= COURANT_PRODUCTS["products"]
    assert counts["lone"] < BEFORE["courant"]["lone"]


def test_counter_sees_each_derivative_built_once(monkeypatch):
    counts = install_counter(monkeypatch)
    p = scalar.Poly.var(2, 1) * scalar.Poly.var(2, 2)
    p.partial(1), p.partial(1), p.partial(2), p.partial(1).partial(2)
    assert (counts["partial_calls"], counts["derivatives"]) == (5, 3)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_derivative_is_built_once_per_polynomial(monkeypatch, suite):
    counts = count_work(monkeypatch, SUITES[suite])
    assert counts["derivatives"] <= DISTINCT_DERIVATIVES[suite] < PARTIAL_CALLS_BEFORE[suite]


def test_the_fundamental_sweep_differentiates_only_where_a_slot_meets_the_field(monkeypatch):
    ctx = Context(4, 3)
    candidate = NambuCandidate(ctx, dsl.parse_multivec("@1^@2^@3^@4", ctx, 4))
    counts = install_counter(monkeypatch)
    check = np_fundamental_check(candidate)
    assert check.passed and check.cases == 364
    assert counts["derivatives"] <= SWEEP_DERIVATIVES


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_counts_repeat_exactly(monkeypatch, suite):
    assert count_work(monkeypatch, SUITES[suite]) == count_work(monkeypatch, SUITES[suite])


def test_an_io_section_lexes_each_run_of_factors_as_one_token():
    text = io_section_text(random.Random(1), 5, 2, 12)
    assert len(text) == 1_784
    assert len(oracle_tokenize(text)) == IO_SECTION_FACTOR_TOKENS
    tokens = dsl.tokenize(text, 5)
    assert len(tokens) == IO_SECTION_TOKENS
    # every factor is in range, so each is folded into a MONO token, alone or in its run
    assert {kind for kind, *_ in tokens} == {"OP", "MONO", "COVEC", "VEC", "EOF"}
    assert [word for kind, word, *_ in dsl.tokenize("x1*x9 + x9", 5) if kind == "VAR"] == ["x9", "x9"]
