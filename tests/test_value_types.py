"""Python's value-type contracts for Poly, Form, MultiVec and Section: hash agrees with ==,
negation inverts addition, and operations on foreign types return NotImplemented."""

from fractions import Fraction

import pytest

from hicourant.courant import Section
from hicourant.dsl import parse_form, parse_multivec, parse_scalar, parse_section
from hicourant.exterior import Context, Form, MultiVec
from hicourant.scalar import Poly

C32 = Context(3, 2)
P = Poly(3, {(1, 0, 2): Fraction(1, 2), (0, 1, 0): -3})
FORM = Form(3, 2, {(1, 2): P, (2, 3): 1})
VEC = MultiVec(3, 1, {(1,): P, (3,): Fraction(2, 3)})

# each value type: (the value from its constructor, the same value parsed)
TWO_WAYS = {
    "Poly": (P, parse_scalar("1/2*x1*x3*x3 - 3*x2", C32)),
    "Form": (FORM, parse_form("(1/2*x1*x3*x3 - 3*x2)*dx1^dx2 + dx2^dx3", C32, 2)),
    "MultiVec": (VEC, parse_multivec("(1/2*x1*x3*x3 - 3*x2)*@1 + 2/3*@3", C32, 1)),
    "Section": (Section(C32, VEC, FORM), parse_section(f"({VEC} ; {FORM})", C32)),
}


@pytest.mark.parametrize("built,parsed", TWO_WAYS.values(), ids=TWO_WAYS)
def test_hash_agrees_with_equality(built, parsed):
    assert built == parsed
    assert hash(built) == hash(parsed)
    assert len({built, parsed}) == 1


def test_the_partial_derivative_memo_is_not_part_of_hash_or_equality():
    fresh = parse_scalar("1/2*x1*x3*x3 - 3*x2", C32)
    memoised = parse_scalar("1/2*x1*x3*x3 - 3*x2", C32)
    for i in (1, 2, 3):
        memoised.partial(i)
    assert memoised == fresh and hash(memoised) == hash(fresh)
    coefficient, fresh_coefficient = Form(3, 1, {(1,): memoised}), Form(3, 1, {(1,): fresh})
    assert coefficient == fresh_coefficient and hash(coefficient) == hash(fresh_coefficient)


def test_a_form_and_a_multivector_with_one_coefficient_are_unequal():
    assert Form.basis(3, (1,)) != MultiVec.basis(3, (1,))
    assert len({Form.basis(3, (1,)), MultiVec.basis(3, (1,))}) == 2


def test_negation_inverts_section_addition():
    e = parse_section("(x1*@2 - 1/2*@3 ; x3*dx1^dx2)", C32)
    assert -e + e == Section.zero(C32)
    assert (-e).vec == -e.vec and (-e).form == -e.form


def test_operations_on_foreign_types_return_not_implemented():
    a = Form.basis(3, (1,))
    with pytest.raises(TypeError):
        a * "x"
    with pytest.raises(TypeError):
        "x" * a
    assert (a == 3) is False
    assert (a != 3) is True
