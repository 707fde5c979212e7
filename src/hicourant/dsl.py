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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .courant import Section
from .exterior import Context, Form, MultiVec
from .scalar import FIELD_BITS, ExponentBoundError, InputError, Poly, exponent_guard


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


@dataclass(frozen=True)
class Token:
    kind: str  # RATIONAL VAR COVEC VEC OP EOF
    text: str
    position: int
    value: object = None


_OPERATORS = set("+-*^();")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in _OPERATORS:
            tokens.append(Token("OP", ch, start))
            i += 1
            continue
        if "0" <= ch <= "9":
            while i < length and "0" <= text[i] <= "9":
                i += 1
            numerator = int(text[start:i])
            if i < length and text[i] == "/":
                j = i + 1
                if j >= length or not "0" <= text[j] <= "9":
                    raise LexError(i, "expected digits after '/' in a rational literal")
                i = j
                while i < length and "0" <= text[i] <= "9":
                    i += 1
                denominator = int(text[j:i])
                if denominator == 0:
                    raise LexError(start, "rational literal with zero denominator")
                value = Fraction(numerator, denominator)
            else:
                value = Fraction(numerator)
            tokens.append(Token("RATIONAL", text[start:i], start, value))
            continue
        if ch == "@":
            i += 1
            j = i
            while i < length and "0" <= text[i] <= "9":
                i += 1
            if i == j:
                raise LexError(start, "expected a coordinate index after '@'")
            tokens.append(Token("VEC", text[start:i], start, int(text[j:i])))
            continue
        if ch.isalpha():
            while i < length and text[i].isalpha():
                i += 1
            word = text[start:i]
            j = i
            while i < length and "0" <= text[i] <= "9":
                i += 1
            if i == j or word not in ("x", "dx"):
                raise LexError(start, f"unrecognized name {text[start:i]!r}")
            index = int(text[j:i])
            kind = "VAR" if word == "x" else "COVEC"
            tokens.append(Token(kind, text[start:i], start, index))
            continue
        raise LexError(start, f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", length))
    return tokens


# -- one-pass parser with grading checks -------------------------------------

# Parentheses are the only construct that recurses; this bounds their
# nesting well inside Python's recursion limit.
MAX_PAREN_DEPTH = 100

# binary operators from the loosest binding level to "^"; "*" binds tightest
_LEVELS = ("+-", "^")


def _is_zero_scalar(value) -> bool:
    return isinstance(value, Poly) and value.is_zero


def _kind_name(value) -> str:
    if isinstance(value, Poly):
        return "scalar"
    if isinstance(value, Form):
        return f"form of degree {value.degree}"
    return f"multivector of degree {value.degree}"


def _combine(op: Token, left, right, m: int):
    """Apply a binary operator after checking the grading of its operands."""
    if op.text in "+-":
        if _is_zero_scalar(left) and not isinstance(right, Poly):
            left = type(right).zero(m, right.degree)
        if _is_zero_scalar(right) and not isinstance(left, Poly):
            right = type(left).zero(m, left.degree)
        if type(left) is not type(right) or getattr(left, "degree", None) != getattr(
            right, "degree", None
        ):
            raise GradingError(
                op.position,
                f"cannot {'add' if op.text == '+' else 'subtract'} "
                f"{_kind_name(right)} and {_kind_name(left)}",
            )
        return left + right if op.text == "+" else left - right
    if isinstance(left, Poly) or isinstance(right, Poly):
        return left * right
    if op.text == "*":
        raise GradingError(op.position, "'*' needs at least one scalar operand; use '^' on tensors")
    if type(left) is not type(right):
        raise GradingError(op.position, f"cannot wedge {_kind_name(left)} with {_kind_name(right)}")
    return left.wedge(right)


class _Parser:
    """Recursive descent that evaluates each value as soon as it is parsed."""

    def __init__(self, tokens: list[Token], ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.m = ctx.m
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.kind != "OP" or token.text != text:
            raise ParseError(token.position, f"expected {text!r}, found {token.text or 'end of input'!r}")
        return self.advance()

    def expect_end(self) -> None:
        tail = self.peek()
        if tail.kind != "EOF":
            raise ParseError(tail.position, f"unexpected trailing input {tail.text!r}")

    def combine(self, op: Token, left, right):
        try:
            return _combine(op, left, right, self.m)
        except ExponentBoundError as exc:
            raise DslError(op.position, str(exc)) from None

    def parse_expr(self, level: int = 0):
        """Left-associative chain of the operators at `level` and tighter."""
        if level == len(_LEVELS):
            return self.parse_product()
        value = self.parse_expr(level + 1)
        while self.peek().kind == "OP" and self.peek().text in _LEVELS[level]:
            op = self.advance()
            value = self.combine(op, value, self.parse_expr(level + 1))
        return value

    def parse_product(self):
        """Left-associative "*" chain.  Its leading RATIONAL and in-range VAR
        factors fold into one pending monomial coeff * x^key, made a Poly when
        another operand appears; values, errors and positions stay the same."""
        coeff, key, op, value = Fraction(1), 0, None, None
        while True:
            token = self.peek()
            if value is None and token.kind == "RATIONAL":
                coeff *= self.advance().value
            elif value is None and token.kind == "VAR" and 1 <= token.value <= self.m:
                key += 1 << FIELD_BITS * (self.advance().value - 1)
                if coeff and key & exponent_guard(self.m):
                    raise DslError(op.position, str(ExponentBoundError()))
            elif op is None:
                value = self.parse_atom()
            else:
                left = Poly.monomial(self.m, coeff, key) if value is None else value
                value = self.combine(op, left, self.parse_atom())
            if self.peek().kind != "OP" or self.peek().text != "*":
                return Poly.monomial(self.m, coeff, key) if value is None else value
            op = self.advance()

    def parse_atom(self):
        negations = 0
        while self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            negations += 1
        token = self.advance()
        if token.kind == "RATIONAL":
            value = Poly.const(self.m, token.value)
        elif token.kind in ("VAR", "COVEC", "VEC"):
            if not 1 <= token.value <= self.m:
                raise GradingError(
                    token.position, f"coordinate index {token.value} out of range 1..{self.m}"
                )
            if token.kind == "VAR":
                value = Poly.var(self.m, token.value)
            else:
                value = (Form if token.kind == "COVEC" else MultiVec).basis(self.m, (token.value,))
        elif token.kind == "OP" and token.text == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(
                    token.position, f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels"
                )
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            self.expect(")")
        else:
            raise ParseError(token.position, f"expected a value, found {token.text or 'end of input'!r}")
        return -value if negations % 2 else value


def _coerce(value, ctx: Context, expected, position: int = 0):
    if expected == "scalar":
        if isinstance(value, Poly):
            return value
        if isinstance(value, Form) and value.degree == 0:
            return value.coeff(())
        raise GradingError(position, f"expected a scalar, got {_kind_name(value)}")
    kind, degree = expected
    cls = Form if kind == "form" else MultiVec
    if isinstance(value, cls) and value.degree == degree:
        return value
    if _is_zero_scalar(value):
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
        vec_start = parser.peek().position
        vec_value = parser.parse_expr()
        parser.expect(";")
        form_start = parser.peek().position
        form_value = parser.parse_expr()
        parser.expect(")")
        parser.expect_end()
        vec_value = _coerce(vec_value, ctx, ("multivec", 1), vec_start)
        form_value = _coerce(form_value, ctx, ("form", ctx.n), form_start)
        return Section(ctx, vec_value, form_value)
    start = parser.peek().position
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


def kind_of(value):
    """The `expected` descriptor matching a value, for round-tripping."""
    if isinstance(value, Poly):
        return "scalar"
    if isinstance(value, Form):
        return ("form", value.degree)
    if isinstance(value, MultiVec):
        return ("multivec", value.degree)
    if isinstance(value, Section):
        return "section"
    raise TypeError(f"no surface syntax for {type(value).__name__}")
