"""Surface syntax: parsing, grading errors, canonical printing, round-trips."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicourant import courant, dsl, exterior, scalar
from hicourant.courant import Section, random_section
from hicourant.dsl import (
    MAX_PAREN_DEPTH,
    DslError,
    GradingError,
    LexError,
    ParseError,
    parse,
    parse_form,
    parse_multivec,
    parse_scalar,
    parse_section,
    render,
)
from hicourant.exterior import Context, Form, MultiVec, random_form, random_multivec, random_poly
from hicourant.scalar import MAX_EXPONENT, InputError, Poly

from oracles import io_section_text, kind_of, oracle_parse, oracle_text

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


_AT_BOUND = "*".join(["x1"] * MAX_EXPONENT)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_EXPONENT_MESSAGE = f"exponent of a variable exceeds the bound {MAX_EXPONENT}"

# (text, expected kind, error class, position, message): every refusal of the
# lexer and parser, pinned to its exact class, position and message
ERROR_PARITY = [
    ("$", "scalar", LexError, 0, "unexpected character '$'"),
    ("dy1", "scalar", LexError, 0, "unrecognized name 'dy1'"),
    ("\u00e91", "scalar", LexError, 0, "unrecognized name '\u00e91'"),
    ("x\u0661", "scalar", LexError, 0, "unrecognized name 'x'"),
    ("xx1", "scalar", LexError, 0, "unrecognized name 'xx1'"),
    ("x1\u00e9", "scalar", LexError, 2, "unrecognized name '\u00e9'"),
    ("1/", "scalar", LexError, 1, "expected digits after '/' in a rational literal"),
    ("1/x", "scalar", LexError, 1, "expected digits after '/' in a rational literal"),
    ("1/0", "scalar", LexError, 0, "rational literal with zero denominator"),
    ("1/00", "scalar", LexError, 0, "rational literal with zero denominator"),
    ("1/2/3", "scalar", LexError, 3, "unexpected character '/'"),
    ("@", "scalar", LexError, 0, "expected a coordinate index after '@'"),
    ("@x1", "scalar", LexError, 0, "expected a coordinate index after '@'"),
    ("", "scalar", ParseError, 0, "expected a value, found 'end of input'"),
    ("x1 x2", "scalar", ParseError, 3, "unexpected trailing input 'x2'"),
    ("x1 + ", "scalar", ParseError, 5, "expected a value, found 'end of input'"),
    ("x1 + (x2", "scalar", ParseError, 8, "expected ')', found 'end of input'"),
    ("(@1 ; dx1", "section", ParseError, 9, "expected ')', found 'end of input'"),
    ("x1 + dx1", ("form", 1), GradingError, 3, "cannot add form of degree 1 and scalar"),
    ("x1 - dx1", ("form", 1), GradingError, 3, "cannot subtract form of degree 1 and scalar"),
    ("dx1 - dx1 + x1", ("form", 1), GradingError, 10, "cannot add scalar and form of degree 1"),
    ("dx1 + dx1^dx2", ("form", 1), GradingError, 4, "cannot add form of degree 2 and form of degree 1"),
    ("x1 + @1 - x1", ("multivec", 1), GradingError, 3, "cannot add multivector of degree 1 and scalar"),
    (
        "x1 - x1 + @1 - @1 + dx1", ("form", 1), GradingError, 18,
        "cannot add form of degree 1 and multivector of degree 1",
    ),
    ("x7", "scalar", GradingError, 0, "coordinate index 7 out of range 1..3"),
    ("dx1*dx2", ("form", 2), GradingError, 3, "'*' needs at least one scalar operand; use '^' on tensors"),
    ("@1^dx1", ("form", 2), GradingError, 2, "cannot wedge multivector of degree 1 with form of degree 1"),
    ("  x1 + x2", ("form", 1), GradingError, 2, "expected a form of degree 1, got scalar"),
    (_AT_BOUND + "*x2*x1", "scalar", DslError, 3 * MAX_EXPONENT + 2, _EXPONENT_MESSAGE),
    (f"({_AT_BOUND})*dx1 ^ x1*dx2", ("form", 2), DslError, len(_AT_BOUND) + 7, _EXPONENT_MESSAGE),
]


@pytest.mark.parametrize(
    "text,expected,error,position,message", ERROR_PARITY, ids=[repr(row[0][:20]) for row in ERROR_PARITY]
)
def test_error_parity(text, expected, error, position, message):
    with pytest.raises(DslError) as err:
        parse(text, CTX32, expected)
    assert type(err.value) is error
    assert err.value.position == position
    assert str(err.value) == f"at position {position}: {message}"


# (text, chart m, expected kind, error class, position, message): refusals that
# arise inside a run of factors joined by "*", where the run cannot be one monomial
RUN_ERRORS = [
    ("2*x9*x1", 5, "scalar", GradingError, 2, "coordinate index 9 out of range 1..5"),
    ("x1*3/0", 3, "scalar", LexError, 3, "rational literal with zero denominator"),
    ("x1*3/*x2", 3, "scalar", LexError, 4, "expected digits after '/' in a rational literal"),
    ("x1 2*x3", 3, "scalar", ParseError, 3, "unexpected trailing input '2'"),
    ("(@1 ; 2*x1*x2 3*x3)", 3, "section", ParseError, 14, "expected ')', found '3'"),
    # a run after "*" multiplies a value that may already sit at the bound
    ("(" + "*".join(["x1"] * (MAX_EXPONENT - 1)) + ")*x1*x1", 3, "scalar", DslError, 3 * MAX_EXPONENT + 1,
     _EXPONENT_MESSAGE),
    (f"({_AT_BOUND})*x1*0", 3, "scalar", DslError, 3 * MAX_EXPONENT + 1, _EXPONENT_MESSAGE),
    (f"({_AT_BOUND})*-x1*0", 3, "scalar", DslError, 3 * MAX_EXPONENT + 1, _EXPONENT_MESSAGE),
    *(
        [("x1*" + "1" * (INT_DIGITS + 1) + "*x2", 3, "scalar", LexError, 3,
          f"{INT_DIGITS + 1} digits exceed Python's int-string limit")]
        if INT_DIGITS else []
    ),
]


@pytest.mark.parametrize(
    "text,m,expected,error,position,message",
    RUN_ERRORS,
    ids=[repr(text if len(text) <= 24 else f"{text[:10]}...{text[-10:]}") for text, *_ in RUN_ERRORS],
)
def test_errors_inside_a_run_of_factors(text, m, expected, error, position, message):
    with pytest.raises(DslError) as err:
        parse(text, Context(m, 1), expected)
    assert type(err.value) is error
    assert err.value.position == position
    assert str(err.value) == f"at position {position}: {message}"


def test_a_zero_run_past_the_exponent_bound_is_zero():
    assert parse_scalar("0*" + "*".join(["x1"] * (MAX_EXPONENT + 1)), CTX32) == Poly.zero(3)


@pytest.mark.parametrize(
    "text,expected,value",
    [
        ("x1 - x1 + dx1", ("form", 1), Form.basis(3, (1,))),
        ("0 + dx1", ("form", 1), Form.basis(3, (1,))),
        ("dx1 + 0", ("form", 1), Form.basis(3, (1,))),
        ("dx1 - dx1 + 0*x1", ("form", 1), Form.zero(3, 1)),
        ("x1\u3000+\u2003x2", "scalar", Poly.var(3, 1) + Poly.var(3, 2)),
    ],
)
def test_accepted_edge_cases(text, expected, value):
    assert parse(text, CTX32, expected) == value


# -- the parser against values built without it ---------------------------------


def _term_text(rng, coeff, exps):
    """|coeff| * x^exps with shuffled factors and the coefficient, sometimes unreduced, anywhere."""
    factors = [f"x{i + 1}" for i, e in enumerate(exps) for _ in range(e)]
    rng.shuffle(factors)
    if coeff != 1 or not factors or rng.random() < 0.3:
        scale = rng.choice((1, 1, 2, 3))
        num, den = coeff.numerator * scale, coeff.denominator * scale
        factors.insert(rng.randint(0, len(factors)), str(num) if den == 1 else f"{num}/{den}")
    return "*".join(factors)


def _chain_text(rng, entries):
    """A sum of signed (sign, coeff, exps) entries, some runs under a sign in parentheses."""
    pieces, i = [], 0
    while i < len(entries):
        run = entries[i : i + rng.choice((1, 1, 1, 2, 3))]
        i += len(run)
        if len(run) == 1:
            pieces.append((run[0][0], _term_text(rng, run[0][1], run[0][2])))
            continue
        outer = rng.choice((1, -1))
        pieces.append((outer, "(" + _chain_text(rng, [(s * outer, c, e) for s, c, e in run]) + ")"))
    (sign, text), rest = pieces[0], pieces[1:]
    return ("-" if sign < 0 else "") + text + "".join(f" {'-' if s < 0 else '+'} {t}" for s, t in rest)


def _scalar_operand(rng, m, terms):
    """(text, {exps: coeff}): a chain of rational monomials with repeats and one cancelling term."""
    pool = [tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(max(1, terms // 2))]
    entries = [
        (rng.choice((1, -1)), Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4, 5))), rng.choice(pool))
        for _ in range(terms)
    ]
    sign, coeff, exps = rng.choice(entries)
    entries.insert(rng.randint(0, len(entries)), (-sign, coeff, exps))
    value = Counter()
    for sign, coeff, exps in entries:
        value[exps] += sign * coeff
    return _chain_text(rng, entries), value


def _tensor_operand(rng, m, degree, symbol, terms):
    """(text, {index: {exps: coeff}}): "(chain)*basis" per index, each basis in a shuffled
    order, plus one repeated index whose coefficient chain is its negation."""
    parts, value = [], {}
    indices = list(combinations(range(1, m + 1), degree))
    for idx in indices + [rng.choice(indices)]:
        order = list(idx)
        rng.shuffle(order)
        parity = sum(a > b for k, a in enumerate(order) for b in order[k + 1 :]) % 2
        text, coeffs = _scalar_operand(rng, m, terms)
        parts.append(f"({text})*" + "^".join(f"{symbol}{i}" for i in order))
        for exps, coeff in coeffs.items():
            row = value.setdefault(idx, Counter())
            row[exps] += -coeff if parity else coeff
    return " + ".join(parts), value


def _tensor(cls, m, degree, value):
    return cls(m, degree, {idx: Poly(m, dict(row)) for idx, row in value.items()})


@pytest.mark.parametrize("m,n,terms", [(5, 2, 12), (4, 1, 30), (4, 2, 18), (3, 1, 4)])
def test_io_shaped_sections_match_values_built_without_the_parser(m, n, terms):
    rng = random.Random(f"{m}-{n}-{terms}")
    ctx = Context(m, n)
    for _ in range(3):
        vec_text, vec = _tensor_operand(rng, m, 1, "@", terms)
        form_text, form = _tensor_operand(rng, m, n, "dx", terms)
        expected = Section(ctx, _tensor(MultiVec, m, 1, vec), _tensor(Form, m, n, form))
        assert parse_section(f"({vec_text} ; {form_text})", ctx) == expected
        text, value = _scalar_operand(rng, m, terms)
        assert parse_scalar(text, ctx) == Poly(m, dict(value))


def _counted_entries(monkeypatch) -> Counter:
    """Counter whose "entries" grows by the coefficient entries that each sum_of_products reads
    (|p| * |q| per product, |p| for a lone p), by both operands' entries per Poly.__add__, and
    by the numerators that each scalar chain's one Poly is made from."""
    work = Counter()
    real_sum, real_add, real_merge = scalar.sum_of_products, Poly.__add__, dsl.merge_sums

    def counted_merge(m, sums):
        work["entries"] += sum(len(acc) for acc in sums.values())
        return real_merge(m, sums)

    def counted_sum(m, products):
        products = list(products)
        work["entries"] += sum(len(p.terms) * (1 if q is None else len(q.terms)) for _, p, q in products)
        return real_sum(m, products)

    def counted_add(self, other):
        work["entries"] += len(self.terms) + len(getattr(other, "terms", ()))
        return real_add(self, other)

    for module in (scalar, exterior, dsl):
        if hasattr(module, "sum_of_products"):
            monkeypatch.setattr(module, "sum_of_products", counted_sum)
    monkeypatch.setattr(Poly, "__add__", counted_add)
    monkeypatch.setattr(dsl, "merge_sums", counted_merge)
    return work


def _distinct_chain(terms: int, tail: str) -> str:
    """terms distinct monomials of x1..x4, exponents 0..6, each with a rational coefficient."""
    pieces = []
    for t in range(terms):
        factors = [f"x{i + 1}" for i in range(4) for _ in range(t // 7**i % 7)]
        pieces.append("*".join([f"{t % 9 + 1}/{t % 5 + 1}", *factors]) + tail)
    return " + ".join(pieces)


@pytest.mark.parametrize("expected,tail", [("scalar", ""), (("form", 2), "*dx1^dx2")])
def test_chain_work_per_term_is_flat(monkeypatch, expected, tail):
    ctx = Context(4, 2)
    per_term = {}
    for terms in (250, 500, 1000, 2000):
        text = _distinct_chain(terms, tail)
        work = _counted_entries(monkeypatch)
        value = parse(text, ctx, expected)
        monkeypatch.undo()
        assert len(value.terms if expected == "scalar" else value.coeffs[(1, 2)].terms) == terms
        per_term[terms] = work["entries"] / terms
    assert max(per_term.values()) <= 1.01 * min(per_term.values()), per_term


# -- the parser against the one-token-per-factor oracle --------------------------

# fragments of fuzz inputs: factors, a few of them refused (index out of range,
# zero or missing denominator), joins, and characters or names that no token
# takes, spliced in at random
_REFUSED = ("x9", "x0", "1/0", "5/", "dx9", "@0")
_JOINS = (" + ", " - ", "+", "-", "*", "*", " * ", "^", " ^ ", " ")
_STARS = ("*", "*", " * ", "*\u3000")
_SPLICES = ("*", "-", "(", ")", ";", "/", "x", "$", "y1", "dx", "@", " ", "\u3000", "1/0", "x7")


def _outcome(parser, text, ctx, expected):
    """The rendered value, or the error as (class, position, message)."""
    try:
        return str(parser(text, ctx, expected))
    except Exception as exc:  # every refusal must match, whatever its class
        return type(exc).__name__, getattr(exc, "position", None), str(exc)


def _pick(rng, seq):
    """An element of seq from one rng.random() draw, cheaper than rng.choice."""
    return seq[int(rng.random() * len(seq))]


def _fuzz_expr(rng, factors, tensors, depth=0):
    """One to three joined terms, each after zero to two "-": a run of one to four
    factors, a tensor, or a parenthesized expression."""
    parts = []
    for i in range(1 + int(rng.random() * 3)):
        parts.append((_pick(rng, _JOINS) if i else "") + _pick(rng, ("", "", "", "-", "--")))
        pick = rng.random()
        if pick < 0.6:
            for _ in range(int(rng.random() * 4)):
                parts += (_pick(rng, factors), _pick(rng, _STARS))
            parts.append(_pick(rng, factors) if rng.random() < 0.98 else _pick(rng, _REFUSED))
        elif pick < 0.85 or depth:
            parts.append(_pick(rng, tensors))
        else:
            parts.append(f"({_fuzz_expr(rng, factors, tensors, depth + 1)})")
    return "".join(parts)


def _fuzz_case(rng, m):
    """(text, expected kind) on chart m: a section, or an expression with tensors of one
    variance read as a scalar or as a tensor of that variance and degree 0 to 2."""
    factors, vecs, covecs = _FUZZ_ATOMS[m]
    pick = rng.random()
    if pick < 0.3:
        text, expected = f"({_fuzz_expr(rng, factors, vecs)} ; {_fuzz_expr(rng, factors, covecs)})", "section"
    else:
        kind, tensors = ("form", covecs) if pick < 0.65 else ("multivec", vecs)
        text = _fuzz_expr(rng, factors, tensors)
        expected = _pick(rng, ("scalar", (kind, 0), (kind, 1), (kind, 1), (kind, 2)))
    if rng.random() < 0.2:  # splice a fragment in, in place of nothing or of one character
        at = int(rng.random() * (len(text) + 1))
        text = text[:at] + _pick(rng, _SPLICES) + text[at + _pick(rng, (0, 0, 1)) :]
    return text, expected


_FUZZ_ATOMS = {
    m: (
        ("0", "1", "2", "12", "3/4", "6/2", "00", *(f"x{i}" for i in range(1, m + 1))),
        tuple(f"@{i}" for i in range(1, m + 1)),
        tuple(f"dx{i}" for i in range(1, m + 1)),
    )
    for m in (2, 3, 5)
}


def test_parser_matches_the_one_token_per_factor_oracle_on_fuzz():
    rng = random.Random(2024)
    contexts = [Context(m, n) for m in (2, 3, 5) for n in (1, 2)]
    differ = []
    for _ in range(50_000):
        ctx = contexts[int(rng.random() * len(contexts))]
        text, expected = _fuzz_case(rng, ctx.m)
        if _outcome(parse, text, ctx, expected) != _outcome(oracle_parse, text, ctx, expected):
            differ.append((text, ctx.m, ctx.n, expected))
    assert differ == []


def test_parser_matches_the_oracle_on_io_sections_and_their_mutants():
    rng = random.Random(711)
    for m, n, terms in ((5, 2, 12), (4, 1, 30), (4, 2, 18)) * 2:
        ctx = Context(m, n)
        text = io_section_text(rng, m, n, terms)
        assert 1_500 <= len(text) <= 2_600
        assert _outcome(parse, text, ctx, "section") == _outcome(oracle_parse, text, ctx, "section")
        for _ in range(25):  # one character dropped, doubled or replaced
            at = rng.randrange(len(text))
            edit = rng.choice(("", text[at] * 2, rng.choice("*+-^()/;0x9 ")))
            mutant = text[:at] + edit + text[at + 1 :]
            assert _outcome(parse, mutant, ctx, "section") == _outcome(oracle_parse, mutant, ctx, "section"), at


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


def _x(m, i):
    return Poly.var(m, i)


PRINTER_EDGES = [
    Poly.zero(3),
    Poly.const(3, 1),
    Poly.const(3, -1),
    Poly.const(3, Fraction(-1, 2)),
    -_x(3, 2),
    _x(3, 1) * _x(3, 1) * _x(3, 2) - Fraction(3, 4) * _x(3, 3) + Fraction(1, 6),
    _x(12, 12) ** 3 - _x(12, 1),
    Form.zero(3, 2),
    MultiVec.zero(3, 0),
    Form(3, 0, {(): Poly.const(3, -1)}),
    Form(3, 0, {(): -_x(3, 1)}),
    Form(3, 0, {(): _x(3, 1) + Fraction(1, 2)}),
    MultiVec(3, 0, {(): Poly.const(3, Fraction(7, 3))}),
    -Form.basis(3, (1, 2)),
    Fraction(-1, 3) * Form.basis(3, (2,)) + Form.basis(3, (3,)) * -_x(3, 1),
    MultiVec(3, 2, {(1, 3): _x(3, 2) - 1, (2, 3): Fraction(5, 4) * _x(3, 2) * _x(3, 2)}),
    Section.zero(CTX21),
    Section(CTX21, -MultiVec.basis(2, (1,)), Fraction(1, 2) * _x(2, 2) * Form.basis(2, (2,))),
]


def _scaled(rng, value):
    """value times a random rational, so that coefficients get denominators."""
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 6))) * value


def _seeded_values():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(1, 5)
        ctx = Context(m, rng.randint(1, m))
        yield _scaled(rng, random_poly(rng, m))
        yield _scaled(rng, random_form(rng, m, rng.randint(0, m)))
        yield _scaled(rng, random_multivec(rng, m, rng.randint(0, m)))
        yield _scaled(rng, random_section(rng, ctx))
    for m, n, terms in ((5, 2, 12), (4, 1, 30), (4, 2, 18)):
        yield _io_section(random.Random(terms), m, n, terms)


def _io_section(rng, m, n, terms):
    """A Section with coefficient chains like those of the io workload's operands."""
    vec = _tensor(MultiVec, m, 1, _tensor_operand(rng, m, 1, "@", terms)[1])
    return Section(Context(m, n), vec, _tensor(Form, m, n, _tensor_operand(rng, m, n, "dx", terms)[1]))


@pytest.mark.parametrize("value", PRINTER_EDGES, ids=lambda v: oracle_text(v))
def test_printer_edges_match_the_fraction_route(value):
    assert str(value) == oracle_text(value)


def test_printer_matches_the_fraction_route_on_seeded_values():
    for value in _seeded_values():
        assert str(value) == oracle_text(value)


@pytest.mark.skipif(not INT_DIGITS, reason="no int-string limit")
@pytest.mark.parametrize("coeff", [10**INT_DIGITS, Fraction(1, 10**INT_DIGITS)], ids=["numerator", "denominator"])
def test_printer_refuses_a_coefficient_over_the_int_string_limit(coeff):
    x1 = _x(2, 1)
    wide = Poly(2, {(1, 0): coeff})
    for value in (wide, wide + 1, wide * Form.basis(2, (2,)), (wide + x1) * Form.basis(2, (2,))):
        for printer in (str, oracle_text):
            with pytest.raises(InputError, match="int-string limit"):
                printer(value)


class CountedFraction(Fraction):
    """A Fraction that counts its constructions."""

    made = 0

    def __new__(cls, *args, **kwargs):
        CountedFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def test_printing_constructs_no_fraction(monkeypatch):
    value = _io_section(random.Random(3), 4, 1, 14)
    assert 50 <= sum(len(p.terms) for t in (value.vec, value.form) for p in t.coeffs.values()) <= 70
    for module in (scalar, exterior, courant):  # every module of the print path that binds Fraction
        monkeypatch.setattr(module, "Fraction", CountedFraction)
    CountedFraction.made = 0
    text = str(value)
    assert CountedFraction.made == 0
    value.form.coeffs[(1,)].coefficients()  # the wrapper sees a Fraction built at the boundary
    assert CountedFraction.made > 0
    monkeypatch.undo()
    assert text == oracle_text(value)
