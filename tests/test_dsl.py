"""Surface syntax: parsing, grading errors, canonical printing, round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicourant.courant import Section, random_section
from hicourant.dsl import (
    MAX_PAREN_DEPTH,
    DslError,
    GradingError,
    LexError,
    ParseError,
    kind_of,
    parse,
    parse_form,
    parse_multivec,
    parse_scalar,
    parse_section,
    render,
)
from hicourant.exterior import Context, Form, MultiVec, random_form, random_multivec, random_poly
from hicourant.scalar import MAX_EXPONENT, Poly

CTX32 = Context(3, 2)
CTX21 = Context(2, 1)


def test_parse_form_example():
    value = parse_form("x1*dx2^dx3 + dx1^dx3", CTX32, 2)
    expected = Poly.var(3, 1) * Form.basis(3, (2, 3)) + Form.basis(3, (1, 3))
    assert value == expected


def test_variance_mixing_rejected():
    with pytest.raises(GradingError) as err:
        parse("@1 ^ dx2", CTX32, ("form", 2))
    assert "wedge" in str(err.value)


def test_parse_section_example():
    section = parse_section("(@1 ; x2*dx1)", CTX21)
    assert section == Section(
        CTX21, MultiVec.basis(2, (1,)), Poly.var(2, 2) * Form.basis(2, (1,))
    )


def test_zero_sections_and_forms():
    assert parse_section("(0 ; 0)", CTX21) == Section.zero(CTX21)
    assert parse_form("0", CTX32, 2) == Form.zero(3, 2)
    assert parse_multivec("0", CTX32, 1) == MultiVec.zero(3, 1)


def test_rationals_and_powers():
    assert parse_scalar("2/3*x1*x1 - 1", CTX32) == Fraction(2, 3) * Poly.var(3, 1) ** 2 - 1
    assert parse_scalar("x1^x1", CTX32) == Poly.var(3, 1) ** 2  # scalars may ride "^"


def test_print_examples():
    assert render(-Form.basis(3, (1, 2))) == "-dx1^dx2"
    assert render(Form.zero(3, 2)) == "0"
    assert render(MultiVec.zero(3, 1)) == "0"
    assert render(Section.zero(CTX21)) == "(0 ; 0)"
    mixed = (Poly.var(3, 1) + 1) * Form.basis(3, (2,)) - 2 * Form.basis(3, (3,))
    assert render(mixed) == "(x1 + 1)*dx2 - 2*dx3"


def test_multi_digit_indices():
    wide = Context(12, 1)
    assert parse_form("dx12", wide, 1) == Form.basis(12, (12,))
    assert parse_scalar("x10*x10", wide) == Poly.var(12, 10) ** 2
    with pytest.raises(GradingError):
        parse_form("dx12", CTX32, 1)


def test_lex_errors_carry_position():
    with pytest.raises(LexError) as err:
        parse_scalar("x1 + $", CTX32)
    assert err.value.position == 5
    with pytest.raises(LexError):
        parse_scalar("1/0", CTX32)
    with pytest.raises(LexError):
        parse_scalar("dy1", CTX32)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("x1 + ", CTX32)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_section("(@1 ; dx1", CTX21)
    with pytest.raises(ParseError):
        parse_scalar("x1 x2", CTX32)


def test_grading_errors():
    with pytest.raises(GradingError):
        parse_scalar("x7", CTX32)
    with pytest.raises(GradingError):
        parse("dx1*dx2", CTX32, ("form", 2))
    with pytest.raises(GradingError):
        parse("dx1 + dx1^dx2", CTX32, ("form", 1))
    with pytest.raises(GradingError):
        parse("dx1", CTX32, ("form", 2))
    with pytest.raises(GradingError):
        parse("@1", CTX32, ("form", 1))


def test_wrong_kind_reports_where_the_value_starts():
    with pytest.raises(GradingError) as err:
        parse("  x1 + x2", CTX32, ("form", 1))
    assert err.value.position == 2


def test_parenthesis_depth_limit():
    deepest = "(" * MAX_PAREN_DEPTH + "x1" + ")" * MAX_PAREN_DEPTH
    assert parse_scalar(deepest, CTX32) == Poly.var(3, 1)
    with pytest.raises(ParseError) as err:
        parse_scalar("(" + deepest + ")", CTX32)
    assert err.value.position == MAX_PAREN_DEPTH


def test_long_sums_and_negation_chains_parse_iteratively():
    assert parse_scalar("+".join(["x1"] * 3000), CTX32) == 3000 * Poly.var(3, 1)
    assert parse_scalar("-" * 3001 + "x1", CTX32) == -Poly.var(3, 1)
    assert parse_scalar("-" * 3000 + "x1", CTX32) == Poly.var(3, 1)


def test_exponent_bound_is_a_positioned_error():
    at_bound = "*".join(["x1"] * MAX_EXPONENT)
    assert parse_scalar(at_bound, CTX32) == Poly(3, {(MAX_EXPONENT, 0, 0): 1})
    # "x1*" repeats, so the k-th "*" sits at 3k - 1 and raises x1 to k + 1
    with pytest.raises(DslError) as err:
        parse_scalar(at_bound + "*x2*x1", CTX32)
    assert err.value.position == 3 * MAX_EXPONENT + 2
    assert str(MAX_EXPONENT) in str(err.value)
    with pytest.raises(DslError) as err:
        parse_form(f"({at_bound})*dx1 ^ x1*dx2", CTX32, 2)
    assert err.value.position == len(at_bound) + 7


def test_round_trip_seeded_values():
    rng = random.Random(99)
    for _ in range(500):
        m = rng.choice((2, 3, 4))
        ctx = Context(m, rng.randint(1, m))
        pick = rng.random()
        if pick < 0.25:
            value = random_poly(rng, m)
        elif pick < 0.5:
            value = random_form(rng, m, rng.randint(0, m))
        elif pick < 0.75:
            value = random_multivec(rng, m, rng.randint(0, m))
        else:
            value = random_section(rng, ctx)
        assert parse(render(value), ctx, kind_of(value)) == value


denominators = st.sampled_from((1, 2, 3, 4, 6))
coefficients = st.builds(Fraction, st.integers(min_value=-9, max_value=9), denominators)


@st.composite
def form_values(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    degree = draw(st.integers(min_value=0, max_value=m))
    exponents = st.tuples(*([st.integers(min_value=0, max_value=2)] * m))
    indices = st.lists(
        st.integers(min_value=1, max_value=m), min_size=degree, max_size=degree, unique=True
    ).map(lambda ids: tuple(sorted(ids)))
    coeffs = draw(
        st.dictionaries(indices, st.dictionaries(exponents, coefficients, max_size=3), max_size=3)
    )
    return Form(m, degree, {idx: Poly(m, terms) for idx, terms in coeffs.items()})


@given(form_values())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(value):
    assert parse(render(value), Context(value.m, 1), kind_of(value)) == value


def test_printer_output_always_parses():
    rng = random.Random(123)
    for _ in range(100):
        value = random_form(rng, 4, rng.randint(0, 4))
        text = render(value)
        parse(text, Context(4, 1), kind_of(value))  # must not raise


def test_print_deterministic():
    rng = random.Random(5)
    value = random_form(rng, 3, 2)
    assert render(value) == render(value)
    clone = Form(3, 2, dict(value.coeffs))
    assert render(clone) == render(value)
