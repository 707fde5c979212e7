"""Exact polynomial ring: examples, errors, and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicourant.scalar import ChartMismatchError, Poly


def poly3(terms):
    return Poly(3, terms)


X1 = Poly.var(3, 1)
X2 = Poly.var(3, 2)
ONE = Poly.const(3, 1)


def test_add_examples():
    assert (X1 + ONE) + Poly.const(3, -1) == X1
    assert Poly.zero(3) + X2 * X2 == X2 * X2
    assert X1 * X2 + X1 * X2 == 2 * (X1 * X2)


def test_add_coefficient_oracle():
    a = poly3({(1, 1, 0): Fraction(2), (0, 0, 1): Fraction(1, 3)})
    b = poly3({(1, 1, 0): Fraction(-2), (2, 0, 0): Fraction(5)})
    merged = {(0, 0, 1): Fraction(1, 3), (2, 0, 0): Fraction(5)}
    assert (a + b).terms == merged


def test_mul_examples():
    assert X1 * ONE == X1
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2
    assert Poly.zero(3) * (X1 + ONE) == Poly.zero(3)


def test_mul_expansion_oracle():
    a = X1 + 2 * X2
    b = X1 - X2
    expanded = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            expanded[key] = expanded.get(key, Fraction(0)) + c1 * c2
    expanded = {k: v for k, v in expanded.items() if v}
    assert (a * b).terms == expanded


def test_partial_examples():
    assert (X1 * X1 * X2).partial(1) == 2 * (X1 * X2)
    assert X1.partial(2) == Poly.zero(3)
    assert Poly.const(3, 7).partial(1) == Poly.zero(3)


def test_eval_examples():
    assert (X1 + X2).eval_at([1, 2, 0]) == 3
    assert (X1 * X2).eval_at([0, 5, 1]) == 0
    assert (X1 * X1).eval_at([Fraction(2, 3), 0, 0]) == Fraction(4, 9)


def test_argument_errors():
    with pytest.raises(ValueError):
        X1.partial(0)
    with pytest.raises(ValueError):
        X1.partial(4)
    with pytest.raises(ValueError):
        X1.eval_at([1, 2])
    with pytest.raises(ChartMismatchError):
        X1 + Poly.var(2, 1)
    with pytest.raises(ChartMismatchError):
        X1 * Poly.var(2, 1)


def test_equality_agrees_with_hash():
    assert Poly.const(2, 3) != 3
    assert Poly.const(2, Fraction(1, 2)) != Fraction(1, 2)
    assert len({Poly.const(2, 3), 3}) == 2
    assert len({Poly.const(2, 3), Poly.const(2, 3)}) == 1


def test_canonical_zero_never_stored():
    p = poly3({(1, 0, 0): Fraction(1)}) + poly3({(1, 0, 0): Fraction(-1)})
    assert p.terms == {}
    assert p.is_zero


coefficients = st.integers(min_value=-9, max_value=9).map(Fraction)
exponents = st.tuples(*([st.integers(min_value=0, max_value=2)] * 3))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    return Poly(3, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
@settings(max_examples=60, deadline=None)
def test_partials_commute(a):
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert a.partial(i).partial(j) == a.partial(j).partial(i)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    for i in (1, 2, 3):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
