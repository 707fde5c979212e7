"""Text syntax for scalars, forms, multivector fields, and sections.

The grammar, used verbatim by the command line and by failure witnesses
in JSON reports:

    expr      := wedgeTerm (("+"|"-") wedgeTerm)* ;
    wedgeTerm := prod ("^" prod)* ;
    prod      := atom ("*" atom)* ;
    atom      := RATIONAL | VAR | COVEC | VEC | "(" expr ")" | "-" atom ;
    RATIONAL  := INT ("/" INT)? ;
    VAR       := "x" INDEX ;   COVEC := "dx" INDEX ;   VEC := "@" INDEX ;
    section   := "(" expr ";" expr ")" ;

"*" needs at least one scalar operand; "^" needs operands of one
variance, scalars acting as scale factors on either side.  Values print
back through str() in a canonical order, and parsing that text returns
an equal value.

One compiled regex scans the tokens, as (kind, text, position, value)
tuples; one recursive descent evaluates as it reads.  A "+"/"-" chain
grades each term as it arrives and is summed once, through
scalar.sum_of_products or one tensor `summed`, so the cost of a parse is
linear in the length of its input.
"""

from __future__ import annotations

import re

from .courant import Section
from .exterior import Context, Form, MultiVec
from .scalar import FIELD_BITS, ExponentBoundError, InputError, Poly, exponent_guard, sum_of_products


class DslError(InputError):
    """Base for all surface-syntax errors; carries the source position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class LexError(DslError):
    pass


class ParseError(DslError):
    pass


class GradingError(DslError):
    pass


# -- lexer ---------------------------------------------------------------

# Whitespace (str.isspace), then one token; BAD, any other character, starts
# an anomaly that _lex_error names.  Digits are ASCII only.
_TOKEN = re.compile(
    r"\s*(?:(?P<OP>[-+*^();])|(?P<RATIONAL>[0-9]+(?:/[0-9]*)?)|(?P<VAR>x[0-9]+)"
    r"|(?P<COVEC>dx[0-9]+)|(?P<VEC>@[0-9]+)|(?P<BAD>\S))"
)


def _lex_error(text: str, start: int) -> LexError:
    """The error for the character at `start`, which starts no token."""
    if text[start] == "@":
        return LexError(start, "expected a coordinate index after '@'")
    if not text[start].isalpha():
        return LexError(start, f"unexpected character {text[start]!r}")
    end = start
    while end < len(text) and text[end].isalpha():
        end += 1
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    return LexError(start, f"unrecognized name {text[start:end]!r}")


def _int(digits: str, position: int) -> int:
    """int(digits), or a LexError at `position` for more digits than the interpreter converts."""
    try:
        return int(digits)
    except ValueError:
        raise LexError(position, f"{len(digits)} digits exceed Python's int-string limit") from None


def tokenize(text: str) -> list[tuple]:
    """(kind, text, position, value) tuples ending in EOF; kind is OP, RATIONAL
    (value: int numerator and denominator), VAR, COVEC or VEC (value: the index)."""
    tokens = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token = match[kind]
        start = match.end() - len(token)
        if kind == "OP":
            append((kind, token, start, None))
        elif kind == "RATIONAL":
            numerator, slash, denominator = token.partition("/")
            numerator = _int(numerator, start)
            if slash and not denominator:
                raise LexError(start + len(token) - 1, "expected digits after '/' in a rational literal")
            denominator = _int(denominator, start) if slash else 1
            if not denominator:
                raise LexError(start, "rational literal with zero denominator")
            append((kind, token, start, (numerator, denominator)))
        elif kind == "BAD":
            raise _lex_error(text, start)
        else:
            append((kind, token, start, _int(token[2 if kind == "COVEC" else 1 :], start)))
    append(("EOF", "", len(text), None))
    return tokens


# -- one-pass parser with grading checks -------------------------------------

# Parentheses are the only construct that recurses; this bounds their
# nesting well inside Python's recursion limit.
MAX_PAREN_DEPTH = 100


def _kind_name(value) -> str:
    if isinstance(value, Poly):
        return "scalar"
    if isinstance(value, Form):
        return f"form of degree {value.degree}"
    return f"multivector of degree {value.degree}"


def _combine(op: str, position: int, left, right):
    """Apply "*" or "^" after checking the grading of its operands."""
    if isinstance(left, Poly) or isinstance(right, Poly):
        return left * right
    if op == "*":
        raise GradingError(position, "'*' needs at least one scalar operand; use '^' on tensors")
    if type(left) is not type(right):
        raise GradingError(position, f"cannot wedge {_kind_name(left)} with {_kind_name(right)}")
    return left.wedge(right)


def _sum(m: int, lead, terms: list):
    """The sum of the signed (sign, value) terms, all of the kind of `lead`."""
    if len(terms) == 1 and terms[0][0] > 0:
        return terms[0][1]
    if isinstance(lead, Poly):
        return sum_of_products(m, [(sign, p, None) for sign, p in terms])
    return lead.summed(*(t.terms(sign) for sign, t in terms))


class _Parser:
    """Recursive descent over the token tuples that evaluates each value as it is parsed."""

    def __init__(self, tokens: list[tuple], ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.m = ctx.m
        self.guard = exponent_guard(ctx.m)
        self.depth = 0

    def advance(self) -> tuple:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> tuple:
        token = self.tokens[self.pos]
        if token[1] != text:
            raise ParseError(token[2], f"expected {text!r}, found {token[1] or 'end of input'!r}")
        return self.advance()

    def expect_end(self) -> None:
        _, text, position, _ = self.tokens[self.pos]
        if text:
            raise ParseError(position, f"unexpected trailing input {text!r}")

    def combine(self, op: tuple, left, right):
        try:
            return _combine(op[1], op[2], left, right)
        except ExponentBoundError as exc:
            raise DslError(op[2], str(exc)) from None

    def parse_expr(self):
        """A "+"/"-" chain, graded term by term at each operator and summed once.
        Until a tensor arrives the chain is scalar; a tensor after a scalar prefix
        that sums to zero sets the chain's kind, and a later scalar term must be zero."""
        lead = self.parse_wedge()
        terms = [(1, lead)]
        while self.tokens[self.pos][1] in ("+", "-"):
            _, op, position, _ = self.advance()
            sign = 1 if op == "+" else -1
            right = self.parse_wedge()
            if type(right) is type(lead) and getattr(right, "degree", None) == getattr(lead, "degree", None):
                terms.append((sign, right))
            elif isinstance(right, Poly) and not right.terms:
                continue
            elif isinstance(lead, Poly) and not _sum(self.m, lead, terms).terms:
                lead, terms = right, [(sign, right)]
            else:
                raise GradingError(
                    position,
                    f"cannot {'add' if op == '+' else 'subtract'} {_kind_name(right)} and {_kind_name(lead)}",
                )
        return _sum(self.m, lead, terms)

    def parse_wedge(self):
        value = self.parse_product()
        while self.tokens[self.pos][1] == "^":
            op = self.advance()
            value = self.combine(op, value, self.parse_product())
        return value

    def parse_product(self):
        """Left-associative "*" chain.  Its leading RATIONAL and in-range VAR
        factors fold into one pending monomial num/den * x^key, made a Poly when
        another operand appears; values, errors and positions stay the same."""
        tokens, m = self.tokens, self.m
        num, den, key, op, value = 1, 1, 0, None, None
        while True:
            kind, _, _, token_value = tokens[self.pos]
            if value is None and kind == "RATIONAL":
                self.pos += 1
                num *= token_value[0]
                den *= token_value[1]
            elif value is None and kind == "VAR" and 1 <= token_value <= m:
                self.pos += 1
                key += 1 << FIELD_BITS * (token_value - 1)
                if num and key & self.guard:
                    raise DslError(op[2], str(ExponentBoundError()))
            elif op is None:
                value = self.parse_atom()
            else:
                left = Poly.monomial(m, num, den, key) if value is None else value
                value = self.combine(op, left, self.parse_atom())
            if tokens[self.pos][1] != "*":
                return Poly.monomial(m, num, den, key) if value is None else value
            op = self.advance()

    def parse_atom(self):
        negations = 0
        while self.tokens[self.pos][1] == "-":
            self.pos += 1
            negations += 1
        kind, text, position, token_value = self.advance()
        if kind == "RATIONAL":
            value = Poly.monomial(self.m, *token_value, 0)
        elif kind in ("VAR", "COVEC", "VEC"):
            if not 1 <= token_value <= self.m:
                raise GradingError(position, f"coordinate index {token_value} out of range 1..{self.m}")
            if kind == "VAR":
                value = Poly.var(self.m, token_value)
            else:
                value = (Form if kind == "COVEC" else MultiVec).basis(self.m, (token_value,))
        elif text == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(position, f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels")
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            self.expect(")")
        else:
            raise ParseError(position, f"expected a value, found {text or 'end of input'!r}")
        return -value if negations % 2 else value


def _coerce(value, ctx: Context, expected, position: int = 0):
    if expected == "scalar":
        if isinstance(value, Poly):
            return value
        raise GradingError(position, f"expected a scalar, got {_kind_name(value)}")
    kind, degree = expected
    cls = Form if kind == "form" else MultiVec
    if isinstance(value, cls) and value.degree == degree:
        return value
    if isinstance(value, Poly) and value.is_zero:
        return cls.zero(ctx.m, degree)
    if isinstance(value, Poly) and degree == 0:
        return cls(ctx.m, 0, {(): value})
    raise GradingError(
        position, f"expected a {kind} of degree {degree}, got {_kind_name(value)}"
    )


def parse(text: str, ctx: Context, expected):
    """Parse and grade-check a value of the expected kind.

    expected is "scalar", "section", ("form", k), or ("multivec", k).
    """
    parser = _Parser(tokenize(text), ctx)
    if expected == "section":
        parser.expect("(")
        vec_start = parser.tokens[parser.pos][2]
        vec_value = parser.parse_expr()
        parser.expect(";")
        form_start = parser.tokens[parser.pos][2]
        form_value = parser.parse_expr()
        parser.expect(")")
        parser.expect_end()
        vec_value = _coerce(vec_value, ctx, ("multivec", 1), vec_start)
        form_value = _coerce(form_value, ctx, ("form", ctx.n), form_start)
        return Section(ctx, vec_value, form_value)
    start = parser.tokens[parser.pos][2]
    value = parser.parse_expr()
    parser.expect_end()
    return _coerce(value, ctx, expected, start)


def parse_scalar(text: str, ctx: Context) -> Poly:
    return parse(text, ctx, "scalar")


def parse_form(text: str, ctx: Context, degree: int) -> Form:
    return parse(text, ctx, ("form", degree))


def parse_multivec(text: str, ctx: Context, degree: int) -> MultiVec:
    return parse(text, ctx, ("multivec", degree))


def parse_section(text: str, ctx: Context) -> Section:
    return parse(text, ctx, "section")


def render(value) -> str:
    """Canonical text for any value; parse(render(v)) returns v exactly."""
    return str(value)
