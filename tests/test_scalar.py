"""Exact polynomial ring: examples, errors, and algebraic laws."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicourant.exterior import Form
from hicourant.scalar import MAX_EXPONENT, ChartMismatchError, ExponentBoundError, Poly, sum_of_products


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
    assert (a + b).coefficients() == merged


def shifted_coefficients(p, sign, constant):
    """The coefficients of sign * p + constant, summed as exponent tuple -> Fraction."""
    out = {exps: sign * c for exps, c in p.coefficients().items()}
    out[(0, 0, 0)] = out.get((0, 0, 0), 0) + constant
    return {exps: c for exps, c in out.items() if c}


def test_reflected_and_mixed_operands_match_the_coefficient_oracle():
    p = poly3({(1, 0, 0): Fraction(2, 3), (0, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(-5, 4)})
    for built, (sign, constant) in [
        (1 - p, (-1, 1)),
        (Fraction(1, 3) + p, (1, Fraction(1, 3))),
        (p - Fraction(1, 2), (1, Fraction(-1, 2))),  # cancels the constant term
    ]:
        assert built.coefficients() == shifted_coefficients(p, sign, constant)
        assert built.den == Poly(3, built.coefficients()).den


def test_a_cancellation_across_denominators_is_the_canonical_zero():
    half, third = poly3({(1, 0, 0): Fraction(1, 2)}), poly3({(0, 1, 0): Fraction(1, 3)})
    total = half + third
    rest = total - half  # over 6 and 2, reduced to 3
    assert (total.den, rest.den) == (6, 3)
    assert rest.coefficients() == {(0, 1, 0): Fraction(1, 3)}
    zero = rest - third
    assert zero.den == 1
    assert zero.terms == {}


def test_adding_a_tensor_to_a_scalar_is_a_type_error():
    with pytest.raises(TypeError):
        X1 + Form.basis(3, (1,))


def test_mul_examples():
    assert X1 * ONE == X1
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2
    assert Poly.zero(3) * (X1 + ONE) == Poly.zero(3)


def test_mul_expansion_oracle():
    a = X1 + 2 * X2
    b = X1 - X2
    expanded = {}
    for e1, c1 in a.coefficients().items():
        for e2, c2 in b.coefficients().items():
            key = tuple(x + y for x, y in zip(e1, e2))
            expanded[key] = expanded.get(key, Fraction(0)) + c1 * c2
    expanded = {k: v for k, v in expanded.items() if v}
    assert (a * b).coefficients() == expanded


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


def test_equal_values_through_different_denominators_hash_alike():
    pairs = [
        (Poly.const(2, Fraction(1, 2)) * 2, Poly.const(2, 1)),
        (Poly.var(2, 1) * Fraction(2, 3) + Poly.var(2, 1) * Fraction(1, 3), Poly.var(2, 1)),
        (Poly(2, {(2, 0): Fraction(1, 2)}).partial(1), Poly.var(2, 1)),
        (
            Poly(2, {(1, 0): Fraction(1, 6)}) + Poly(2, {(1, 0): Fraction(1, 3)}),
            Poly(2, {(1, 0): Fraction(1, 2)}),
        ),
        (Poly(2, {(0, 1): Fraction(1, 4)}) - Poly(2, {(0, 1): Fraction(1, 4)}), Poly.zero(2)),
    ]
    for built, expected in pairs:
        assert built == expected
        assert hash(built) == hash(expected)
        assert len({built, expected}) == 1


def test_terms_hold_one_entry_per_nonzero_term():
    # the benchmark's tracer counts term pairs as len(a.terms) * len(b.terms)
    p = poly3({(1, 0, 0): Fraction(1, 2), (0, 2, 0): 3, (0, 0, 1): 0}) * (X1 + X2)
    assert isinstance(p.terms, dict)
    assert len(p.terms) == len(p.coefficients()) == 4
    assert isinstance(Poly.zero(3).terms, dict)
    assert len((X1 - X1).terms) == 0


def test_exponent_bound():
    at_bound = Poly(2, {(MAX_EXPONENT, 0): 1})
    assert at_bound.coefficients() == {(MAX_EXPONENT, 0): 1}
    with pytest.raises(ExponentBoundError, match=str(MAX_EXPONENT)):
        Poly(2, {(MAX_EXPONENT + 1, 0): 1})
    with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
        Poly(2, {(0, MAX_EXPONENT + 1): 1})
    # a product landing exactly on the bound succeeds, with no carry into x2
    product = Poly(2, {(MAX_EXPONENT - 3, 7): Fraction(1, 2)}) * Poly(2, {(3, 0): 4})
    assert product.coefficients() == {(MAX_EXPONENT, 7): 2}
    assert product.partial(2) == Poly(2, {(MAX_EXPONENT, 6): 14})
    assert product.partial(1) == Poly(2, {(MAX_EXPONENT - 1, 7): 2 * MAX_EXPONENT})
    # one past it raises, in any variable, even beside terms far below it
    with pytest.raises(ExponentBoundError, match=str(MAX_EXPONENT)):
        at_bound * Poly.var(2, 1)
    with pytest.raises(ExponentBoundError):
        (Poly(3, {(0, 0, MAX_EXPONENT - 1): 1}) + 1) * Poly(3, {(0, 0, 2): 1})
    with pytest.raises(ExponentBoundError):
        Poly(3, {(0, MAX_EXPONENT, 0): 1}) ** 2


denominators = st.sampled_from((1, 2, 3, 4, 6))
coefficients = st.builds(Fraction, st.integers(min_value=-9, max_value=9), denominators)
charts = st.integers(min_value=1, max_value=5)


def polys(m):
    exponents = st.tuples(*([st.integers(min_value=0, max_value=2)] * m))
    return st.dictionaries(exponents, coefficients, max_size=5).map(lambda terms: Poly(m, terms))


def poly_tuple(size):
    return charts.flatmap(lambda m: st.tuples(*([polys(m)] * size)))


@given(poly_tuple(3))
@settings(max_examples=80, deadline=None)
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert hash(a * b) == hash(b * a)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@given(charts.flatmap(polys))
@settings(max_examples=60, deadline=None)
def test_partials_commute(a):
    for i in range(1, a.m + 1):
        for j in range(1, a.m + 1):
            assert a.partial(i).partial(j) == a.partial(j).partial(i)


@given(poly_tuple(2))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(ab):
    a, b = ab
    for i in range(1, a.m + 1):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


def oracle_partial(p, i):
    """d p / d x_i over exponent tuples and Fractions, with no packed keys."""
    out = {}
    for exps, c in p.coefficients().items():
        if exps[i - 1]:
            lowered = exps[: i - 1] + (exps[i - 1] - 1,) + exps[i:]
            out[lowered] = c * exps[i - 1]
    return Poly(p.m, out)


@given(charts.flatmap(polys))
@settings(max_examples=80, deadline=None)
def test_memoised_partials_match_the_fraction_oracle(p):
    for i in range(1, p.m + 1):
        derivative = p.partial(i)
        assert derivative == oracle_partial(p, i)
        assert p.partial(i) is derivative
    assert p.variables() == [i for i in range(1, p.m + 1) if p.partial(i)]


@given(charts.flatmap(polys))
@settings(max_examples=60, deadline=None)
def test_a_filled_memo_changes_no_value(p):
    twin = Poly(p.m, p.coefficients())
    before = hash(p), repr(p)
    for i in range(1, p.m + 1):
        p.partial(i)
    assert p == twin and twin == p
    assert (hash(p), repr(p)) == before == (hash(twin), repr(twin))


def test_variables_and_out_of_range_partials_after_the_memo_is_filled():
    p = X1 * X1 * X2 + ONE
    assert p.variables() == [1, 2]
    assert ONE.variables() == Poly.zero(3).variables() == []
    for i in (1, 2, 3):
        p.partial(i)
    for i in (0, 4, -1):
        with pytest.raises(ValueError):
            p.partial(i)


def test_threads_filling_one_memo_get_equal_derivatives():
    # more threads than cores, switching often, so fills of the same memo entry interleave
    terms = {(2, 1, 0): Fraction(1, 2), (0, 3, 1): -2, (1, 0, 0): 5, (0, 0, 0): 1}
    expected = {i: oracle_partial(Poly(3, terms), i) for i in (1, 2, 3)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            p = Poly(3, terms)
            seen = [[] for _ in range(8)]

            def work(out):
                for i in (1, 2, 3, 2, 1, 3):
                    out.append((i, p.partial(i)))

            threads = [threading.Thread(target=work, args=(out,)) for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert all(len(out) == 6 and all(d == expected[i] for i, d in out) for out in seen)
            assert all(p.partial(i) is p.partial(i) == expected[i] for i in (1, 2, 3))
    finally:
        sys.setswitchinterval(interval)


def naive_sum_of_products(m, products):
    """sum of sign * p * q over exponent tuples and Fractions, with no packed keys."""
    total = {}
    for sign, p, q in products:
        right = {(0,) * m: 1} if q is None else q.coefficients()
        for e1, c1 in p.coefficients().items():
            for e2, c2 in right.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                total[exps] = total.get(exps, 0) + sign * c1 * c2
    return Poly(m, total)


def signed_products(m):
    maybe = st.one_of(st.none(), polys(m))
    return st.lists(st.tuples(st.sampled_from((1, -1)), polys(m), maybe), max_size=6)


@given(charts.flatmap(lambda m: st.tuples(st.just(m), signed_products(m))))
@settings(max_examples=120, deadline=None)
def test_sum_of_products_matches_a_fraction_oracle(case):
    m, products = case
    total = sum_of_products(m, products)
    assert total == naive_sum_of_products(m, products)
    # canonical form: the reduced denominator, and no stored zero
    assert Poly(m, total.coefficients()).den == total.den
    assert 0 not in total.terms.values()


def scaled_products(m):
    maybe = st.one_of(st.none(), polys(m))
    scales = st.sampled_from((1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)))
    return st.lists(st.tuples(scales, polys(m), maybe), max_size=6)


@given(charts.flatmap(lambda m: st.tuples(st.just(m), scaled_products(m))))
@settings(max_examples=120, deadline=None)
def test_sum_of_products_folds_int_and_fraction_scales(case):
    m, products = case
    operands = [p for _, *pair in products for p in pair if p is not None]
    before = [(p.den, dict(p.terms)) for p in operands]
    total = sum_of_products(m, products)
    assert total == naive_sum_of_products(m, products)
    assert Poly(m, total.coefficients()).den == total.den
    assert 0 not in total.terms.values()
    # the sum reads its operands and never writes them, and its order does not matter
    assert [(p.den, p.terms) for p in operands] == before
    reversed_total = sum_of_products(m, products[::-1])
    assert reversed_total == total and reversed_total.den == total.den


def test_sum_of_products_scales_known_answer():
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    total = sum_of_products(2, [(Fraction(1, 2), x1, x2), (Fraction(-1, 3), x2, None), (2, x1, None)])
    assert total == Poly(2, {(1, 1): Fraction(1, 2), (0, 1): Fraction(-1, 3), (1, 0): 2})
    assert total.den == 6
    assert sum_of_products(2, [(Fraction(1, 2), x1, None), (Fraction(-1, 2), x1, None)]).is_zero
    # a lone scale-1 operand opens the sum and is copied, so raising the lcm 2 -> 6 -> 210 leaves it as it was
    opening = Poly(2, {(1, 0): Fraction(1, 2), (0, 0): 1})
    terms = dict(opening.terms)
    total = sum_of_products(2, [(1, opening, None), (Fraction(1, 3), x2, x1), (Fraction(2, 35), x1, x1)])
    expected = {(1, 0): Fraction(1, 2), (0, 0): 1, (1, 1): Fraction(1, 3), (2, 0): Fraction(2, 35)}
    assert total == Poly(2, expected)
    assert total.den == 210
    assert opening.terms == terms and opening.den == 2


def test_sum_of_products_refuses_a_bound_crossing_that_cancels():
    top = Poly(2, {(MAX_EXPONENT, 0): Fraction(1, 2)})
    x1 = Poly.var(2, 1)
    assert sum_of_products(2, [(1, top, None), (-1, top, None)]).is_zero
    with pytest.raises(ExponentBoundError):
        sum_of_products(2, [(1, top, x1), (-1, top, x1)])
    with pytest.raises(ExponentBoundError):
        sum_of_products(2, [(1, top, 2 * x1), (1, x1, None), (-1, top, Fraction(2, 3) * x1)])
    with pytest.raises(ExponentBoundError):
        sum_of_products(2, [(Fraction(1, 3), top, x1), (Fraction(-1, 3), top, x1)])


def test_seeded_cross_check_against_sympy():
    sympy_rings = pytest.importorskip("sympy.polys.rings")
    from sympy import QQ

    rng = random.Random(2024)
    scales = (1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(1, 35))

    def draw(m):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 3) for _ in range(m))
            terms[exps] = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 35)))
        return Poly(m, terms)

    def as_dict(element):
        return {exps: Fraction(int(c.numerator), int(c.denominator)) for exps, c in element.items() if c}

    for _ in range(150):
        m = rng.randint(1, 5)
        ring, *gens = sympy_rings.ring([f"x{i}" for i in range(1, m + 1)], QQ)

        def lift(p):
            coeffs = p.coefficients().items()
            return ring.from_dict({exps: QQ(c.numerator, c.denominator) for exps, c in coeffs})

        a, b = draw(m), draw(m)
        assert (a + b).coefficients() == as_dict(lift(a) + lift(b))
        assert (a - b).coefficients() == as_dict(lift(a) - lift(b))
        assert (a * b).coefficients() == as_dict(lift(a) * lift(b))
        for i in range(m):
            assert a.partial(i + 1).coefficients() == as_dict(lift(a).diff(gens[i]))
        # multi-triple sums: lone operands and products, int and Fraction scales
        triples = [
            (rng.choice(scales), draw(m), draw(m) if rng.random() < 0.5 else None) for _ in range(rng.randint(3, 6))
        ]
        expected = ring.zero
        for scale, p, q in triples:
            scale = Fraction(scale)
            expected += QQ(scale.numerator, scale.denominator) * lift(p) * (ring.one if q is None else lift(q))
        assert sum_of_products(m, triples).coefficients() == as_dict(expected)
