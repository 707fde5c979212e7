"""Python's value-type contracts for Poly, Form, MultiVec and Section: hash agrees with ==,
negation inverts addition, and operations on foreign types return NotImplemented.

The immutable values with named fields (Context, Section, Failure, NambuCandidate,
PlecticCandidate, AdmissiblePair and HamiltonianPair) hash alike when equal, refuse attribute
assignment with an AttributeError, build from keywords as README's `Context(m=3, n=2)` does,
and still refuse invalid fields when built.  A CheckResult is mutable: each one has its own
failures list, and it has no hash."""

from fractions import Fraction

import pytest

from hicourant.courant import CheckResult, Failure, Section
from hicourant.dsl import parse_form, parse_multivec, parse_scalar, parse_section
from hicourant.exterior import Context, Form, MultiVec
from hicourant.nambu import NambuCandidate
from hicourant.plectic import AdmissiblePair, HamiltonianPair, InconsistentCandidateError, PlecticCandidate
from hicourant.scalar import InputError, Poly

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


def volume_form_candidate() -> PlecticCandidate:
    return PlecticCandidate(C32, parse_form("dx1^dx2^dx3", C32, 3))


# each immutable value with named fields, built afresh from fresh parts on every call
NAMED = {
    "Context": lambda: Context(3, 2),
    "Section": lambda: parse_section("(x1*@2 ; x3*dx1^dx2)", C32),
    "Failure": lambda: Failure(("(@1 ; 0)", "x1"), "dx2"),
    "NambuCandidate": lambda: NambuCandidate(C32, parse_multivec("@1^@2^@3", C32, 3)),
    "PlecticCandidate": volume_form_candidate,
    "AdmissiblePair": lambda: AdmissiblePair(
        volume_form_candidate(), parse_form("dx2^dx3", C32, 2), parse_multivec("@1", C32, 1)
    ),
    "HamiltonianPair": lambda: HamiltonianPair(
        volume_form_candidate(), parse_form("x2*dx3", C32, 1), parse_multivec("@1", C32, 1)
    ),
}


@pytest.mark.parametrize("build", NAMED.values(), ids=NAMED)
def test_equal_named_values_hash_equal(build):
    value, twin = build(), build()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert len({value, twin}) == 1


@pytest.mark.parametrize("build", NAMED.values(), ids=NAMED)
def test_named_values_refuse_attribute_assignment(build):
    value = build()
    fields = dict(vars(value))
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == fields


@pytest.mark.parametrize("build", NAMED.values(), ids=NAMED)
def test_named_values_build_from_keywords(build):
    value = build()
    fields = vars(value)
    assert type(value)(**fields) == value
    assert type(value)(*fields.values()) == value
    assert type(value)(*list(fields.values())[:1], **dict(list(fields.items())[1:])) == value


def test_a_context_builds_and_prints_as_the_readme_writes_it():
    assert Context(m=3, n=2) == Context(3, n=2) == C32
    assert repr(Context(m=3, n=2)) == "Context(m=3, n=2)"
    assert C32 != (3, 2) and C32 != Failure(3, 2)


@pytest.mark.parametrize(
    "build", [lambda: Context(3), lambda: Context(3, 2, 1), lambda: Context(3, m=3), lambda: Context(3, n=2, k=1)]
)
def test_a_named_value_refuses_missing_extra_or_unknown_fields(build):
    with pytest.raises(TypeError):
        build()


REFUSED = {
    "chart-0": (lambda: Context(0, 1), InputError, "chart dimension m must be positive"),
    "section-2-vector": (
        lambda: Section(C32, MultiVec.basis(3, (1, 2)), Form.zero(3, 2)),
        InputError,
        "vector part must have degree 1",
    ),
    "admissible-inconsistent": (
        lambda: AdmissiblePair(volume_form_candidate(), parse_form("dx1^dx2", C32, 2), MultiVec.basis(3, (1,))),
        InconsistentCandidateError,
        "pair is not admissible",
    ),
}


@pytest.mark.parametrize("build,error,message", REFUSED.values(), ids=REFUSED)
def test_named_values_still_refuse_invalid_fields(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_check_results_do_not_share_a_failures_list():
    first, second = CheckResult("first", "x = 0"), CheckResult("second", "x = 0")
    first.record_verdict(("x1",), False, "x1")
    copy = CheckResult("copy", "x = 0", first.cases, first.failures)
    first.record_verdict(("x2",), False, "x2")
    assert [f.inputs for f in first.failures] == [("x1",), ("x2",)]
    assert second.failures == [] and [f.inputs for f in copy.failures] == [("x1",)]


def test_a_check_result_is_unhashable():
    with pytest.raises(TypeError):
        hash(CheckResult("check", "x = 0"))
