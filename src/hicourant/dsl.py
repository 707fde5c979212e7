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

One compiled regex scans (kind, text, position, value) tuples of kind OP,
MONO, VAR, COVEC, VEC or EOF: a valid factor or run of factors is one MONO
monomial, any other run one token per factor, and "*" multiplies left to right.
One recursive descent evaluates as it reads.  A "+"/"-" chain grades each
term as it arrives and is summed once, its bare monomials straight from
their tokens, so the cost of a parse is linear in the length of its input.
"""

from __future__ import annotations

import re

from .courant import Section
from .exterior import Context, Form, MultiVec
from .scalar import FIELD_BITS, MAX_EXPONENT, ExponentBoundError, InputError, Poly, merge_sums


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

# Whitespace (str.isspace), then one token; BAD, any other character, starts an anomaly that
# _lex_error names.  Digits are ASCII only.  MONO: 2+ factors joined by "*"; TAIL: factors after "*".
_FACTOR = r"(?:[0-9]+(?:/[0-9]*)?|x[0-9]+)"
_MORE = rf"(?:\s*\*\s*{_FACTOR})"
_SINGLE = r"(?P<RATIONAL>[0-9]+(?:/[0-9]*)?)|(?P<VAR>x[0-9]+)|(?P<COVEC>dx[0-9]+)|(?P<VEC>@[0-9]+)|(?P<BAD>\S)"
_TOKEN = re.compile(
    rf"\s*(?:(?P<TAIL>\*[\s-]*{_FACTOR}{_MORE}*)|(?P<OP>[-+*^();])|(?P<MONO>(?P<HEAD>{_FACTOR}){_MORE}+)|{_SINGLE})"
)
_FACTOR_TOKEN = re.compile(rf"\s*(?:(?P<OP>[-+*^();])|{_SINGLE})")


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


def _fold(run: str, m: int) -> tuple | None:
    """(num, den, key) of one factor or a run of them; None, for one token each, where a
    factor would be refused or an exponent could pass MAX_EXPONENT."""
    factors = run.split("*")
    num, den, key = 1, 1, 0
    try:
        for factor in factors:
            numerator, slash, denominator = factor.strip().partition("/")
            if numerator[0] != "x":
                num, den = num * int(numerator), den * (int(denominator) if slash else 1)
            elif 0 < (index := int(numerator[1:])) <= m:
                key += 1 << FIELD_BITS * (index - 1)
            else:
                return None
    except ValueError:  # more digits than int() converts, or "/" without digits
        return None
    return (num, den, key) if den and len(factors) <= MAX_EXPONENT else None


def tokenize(text: str, m: int) -> list[tuple]:
    """(kind, text, position, value) tuples ending in EOF.  MONO is a valid factor or run of
    factors (value: num, den, packed key on chart m; text: its first factor); VAR is an x
    with an index outside 1..m, COVEC and VEC hold their index, and OP holds None."""
    tokens = []
    _scan(text, _TOKEN.finditer(text), m, tokens)
    tokens.append(("EOF", "", len(text), None))
    return tokens


def _scan(text: str, matches, m: int, tokens: list) -> None:
    append = tokens.append
    for match in matches:
        kind = match.lastgroup
        token = match[kind]
        start = match.end() - len(token)
        if kind == "OP":
            append((kind, token, start, None))
        elif kind in ("MONO", "RATIONAL", "VAR") and (value := _fold(token, m)):
            append(("MONO", match["HEAD"] if kind == "MONO" else token, start, value))
        elif kind in ("MONO", "TAIL"):
            _scan(text, _FACTOR_TOKEN.finditer(text, start, match.end()), m, tokens)
        elif kind == "RATIONAL":  # a literal _fold refused: too many digits, no digits after "/", or zero
            numerator, _, denominator = token.partition("/")
            _int(numerator, start)
            if not denominator:
                raise LexError(start + len(token) - 1, "expected digits after '/' in a rational literal")
            _int(denominator, start)
            raise LexError(start, "rational literal with zero denominator")
        elif kind == "BAD":
            raise _lex_error(text, start)
        else:
            append((kind, token, start, _int(token[2 if kind == "COVEC" else 1 :], start)))


# -- one-pass parser with grading checks -------------------------------------

# Parentheses are the only construct that recurses; this bounds their
# nesting well inside Python's recursion limit.
MAX_PAREN_DEPTH = 100


def _kind_name(value) -> str:
    if isinstance(value, Form):
        return f"form of degree {value.degree}"
    if isinstance(value, MultiVec):
        return f"multivector of degree {value.degree}"
    return "scalar"


class _Parser:
    """Recursive descent over the token tuples that evaluates each value as it is parsed."""

    def __init__(self, tokens: list[tuple], ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.m = ctx.m
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
        """Apply the "*" or "^" token op after checking the grading of its operands."""
        _, text, position, _ = op
        try:
            if isinstance(left, Poly) or isinstance(right, Poly):
                return left * right
            if text == "*":
                raise GradingError(position, "'*' needs at least one scalar operand; use '^' on tensors")
            if type(left) is not type(right):
                raise GradingError(position, f"cannot wedge {_kind_name(left)} with {_kind_name(right)}")
            return left.wedge(right)
        except ExponentBoundError as exc:
            raise DslError(position, str(exc)) from None

    def bare_monomial(self) -> tuple | None:
        """(den, ((key, num),)) of a MONO term after any unary "-" and not followed
        by "*" or "^", which it consumes; None for any other term."""
        tokens, pos = self.tokens, self.pos
        while tokens[pos][1] == "-":
            pos += 1
        kind, _, _, value = tokens[pos]
        if kind != "MONO" or tokens[pos + 1][1] in ("*", "^"):
            return None
        num, den, key = value
        negated, self.pos = (pos - self.pos) % 2, pos + 1
        return den, ((key, -num if negated else num),)

    def parse_expr(self):
        """A "+"/"-" chain, graded at each operator and summed once, its scalar terms as
        int numerators per denominator.  It is scalar until a tensor arrives after a prefix
        that sums to zero; that tensor sets its kind, and later scalar terms must be zero."""
        sums, lead, terms, sign, op, position = {}, None, [], 1, "+", 0
        while True:
            bare = self.bare_monomial()
            right = None if bare else self.parse_wedge()
            scalar = bare or isinstance(right, Poly) and (right.den, right.terms.items())
            if scalar and lead is None:
                acc = sums.setdefault(scalar[0], {})
                for key, c in scalar[1]:
                    acc[key] = acc.get(key, 0) + sign * c
            elif lead is None and not (sums and merge_sums(self.m, sums).terms):  # consumes sums, not used again
                lead, terms = right, [(sign, right)]
            elif type(right) is type(lead) and right.degree == lead.degree:
                terms.append((sign, right))
            elif not scalar or any(c for _, c in scalar[1]):  # a zero scalar leaves the chain as it is
                verb = "add" if op == "+" else "subtract"
                raise GradingError(position, f"cannot {verb} {_kind_name(right)} and {_kind_name(lead)}")
            if self.tokens[self.pos][1] not in ("+", "-"):
                break
            _, op, position, _ = self.advance()
            sign = 1 if op == "+" else -1
        return merge_sums(self.m, sums) if lead is None else lead.summed(*(t.terms(s) for s, t in terms))

    def parse_wedge(self):
        value = self.parse_product()
        while self.tokens[self.pos][1] == "^":
            value = self.combine(self.advance(), value, self.parse_product())
        return value

    def parse_product(self):
        value = self.parse_atom()
        while self.tokens[self.pos][1] == "*":
            value = self.combine(self.advance(), value, self.parse_atom())
        return value

    def parse_atom(self):
        negations = 0
        while self.tokens[self.pos][1] == "-":
            self.pos += 1
            negations += 1
        kind, text, position, token_value = self.advance()
        if kind == "MONO":
            value = Poly.monomial(self.m, *token_value)
        elif kind in ("VAR", "COVEC", "VEC"):
            if not 1 <= token_value <= self.m:
                raise GradingError(position, f"coordinate index {token_value} out of range 1..{self.m}")
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
    parser = _Parser(tokenize(text, ctx.m), ctx)
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
