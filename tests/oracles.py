"""Dense reference implementations of the alternating-tensor operators.

Everything here works on full permutation expansions of the component
functions, independent of the sparse merge-and-sign paths in the
package, so the two can be cross-checked against each other exactly.
The Cartan-route Lie derivative i_X d + d i_X and the textbook Dorfman
and Courant brackets built on it are the second route for the package's
component-formula Lie derivative and its one bracket kernel.
`oracle_flat_matrix` and `oracle_rank_consistent` are a dense `Fraction`
Gauss-Jordan for the linear algebra of X -> i_X omega.
`hamiltonian_pairs` is the exhaustive sweep of Hamiltonian pairs that
the hemi- and semi-bracket tests share.  `oracle_text` prints a value by
the `Fraction` route: `coefficients()`, one `monomial_text` per term, and
the terms sorted by total degree, then exponents, descending.
`kind_of` gives the `expected` descriptor that round-trips a value
through `dsl.parse`, and `io_section_text` writes sections in the shape of
the io workload's bracket operands.  `oracle_parse` is the one-token-per-factor parser
that `dsl.parse` replaced: every factor of a "*" run is its own token,
and a "+"/"-" chain sums the Polys of its terms through
`sum_of_products`; values and refusals (class, position, message) are
the reference for the folding lexer and the direct chain sum.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product
from random import Random

from hicourant.courant import Section
from hicourant.dsl import DslError, GradingError, LexError, ParseError
from hicourant.exterior import Form, MultiVec, ext_d, i_vec
from hicourant.plectic import solve_hamiltonian
from hicourant.scalar import (
    FIELD_BITS,
    ExponentBoundError,
    InputError,
    Poly,
    exponent_guard,
    join_signed_terms,
    monomials_up_to,
    sum_of_products,
)


def signed_lookup(tensor, seq) -> Poly:
    """Component at an arbitrary index tuple, sign via explicit bubble sort."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return Poly.zero(tensor.m)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    base = tensor.coeffs.get(tuple(seq))
    if base is None:
        return Poly.zero(tensor.m)
    return sign * base


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sort_sign(seq) -> int:
    """Parity of the permutation that sorts the distinct entries of seq, from its cycles."""
    return _perm_sign(sorted(range(len(seq)), key=seq.__getitem__))


def oracle_wedge(a, b):
    """Wedge via the shuffle antisymmetrization of the component functions."""
    assert type(a) is type(b)
    m = a.m
    p, q = a.degree, b.degree
    out = {}
    for full in combinations(range(1, m + 1), p + q):
        total = Poly.zero(m)
        positions = list(range(p + q))
        for left_pos in combinations(positions, p):
            right_pos = tuple(t for t in positions if t not in left_pos)
            perm = list(left_pos) + list(right_pos)
            sign = _perm_sign(perm)
            part = signed_lookup(a, [full[t] for t in left_pos]) * signed_lookup(
                b, [full[t] for t in right_pos]
            )
            total = total + (part if sign > 0 else -part)
        if not total.is_zero:
            out[full] = total
    return type(a)(m, p + q, out) if p + q <= m else type(a)(m, p + q)


def oracle_i_vec(X: MultiVec, a: Form) -> Form:
    """First-slot contraction by summing X^j a(e_j, e_rest)."""
    m = a.m
    if a.degree == 0:
        return Form.zero(m, 0)
    out = {}
    for rest in combinations(range(1, m + 1), a.degree - 1):
        total = Poly.zero(m)
        for j in range(1, m + 1):
            xj = X.coeffs.get((j,))
            if xj is None:
                continue
            total = total + xj * signed_lookup(a, (j,) + rest)
        if not total.is_zero:
            out[rest] = total
    return Form(m, a.degree - 1, out)


def oracle_ext_d(a: Form) -> Form:
    """(da)_{i0..ik} = sum_t (-1)^t  d_{i_t} a_{I minus i_t}."""
    m = a.m
    out = {}
    for idx in combinations(range(1, m + 1), a.degree + 1):
        total = Poly.zero(m)
        for t, it in enumerate(idx):
            part = signed_lookup(a, idx[:t] + idx[t + 1 :]).partial(it)
            total = total + (part if t % 2 == 0 else -part)
        if not total.is_zero:
            out[idx] = total
    return Form(m, a.degree + 1, out)


def oracle_full_pair(P: MultiVec, a: Form) -> Poly:
    total = Poly.zero(P.m)
    for idx, p in P.coeffs.items():
        total = total + p * signed_lookup(a, idx)
    return total


def oracle_contract_form_into_vec(xi: Form, P: MultiVec) -> MultiVec:
    """Straight from the defining pairing <i_xi P, eta> = <P, xi ^ eta>."""
    m = P.m
    out = {}
    for rest in combinations(range(1, m + 1), P.degree - xi.degree):
        eta = Form.basis(m, rest)
        value = oracle_full_pair(P, oracle_wedge(xi, eta))
        if not value.is_zero:
            out[rest] = value
    return MultiVec(m, P.degree - xi.degree, out)


def oracle_contract_vec_into_form(P: MultiVec, a: Form) -> Form:
    """(i_P a)(rest) = sum_I P^I a(i_1..i_p, rest)."""
    m = a.m
    out = {}
    for rest in combinations(range(1, m + 1), a.degree - P.degree):
        total = Poly.zero(m)
        for idx, p in P.coeffs.items():
            total = total + p * signed_lookup(a, idx + rest)
        if not total.is_zero:
            out[rest] = total
    return Form(m, a.degree - P.degree, out)


def _bracket_with_basis(X: MultiVec, j: int) -> MultiVec:
    """[X, e_j] = -sum_i (d_j X^i) e_i."""
    m = X.m
    out = {}
    for (i,), xi in X.coeffs.items():
        d = xi.partial(j)
        if not d.is_zero:
            out[(i,)] = -d
    return MultiVec(m, 1, out)


def oracle_lie_multivec(X: MultiVec, P: MultiVec) -> MultiVec:
    """Decomposable expansion: L_X(f e_I) = X(f) e_I + f sum_t e_.. ^ [X, e_t] ^ e_.."""
    m = P.m
    total = MultiVec.zero(m, P.degree)
    for idx, f in P.coeffs.items():
        transported = Poly.zero(m)
        for (j,), xj in X.coeffs.items():
            transported = transported + xj * f.partial(j)
        total = total + transported * MultiVec.basis(m, idx)
        for t in range(len(idx)):
            piece = _bracket_with_basis(X, idx[t])
            for s, i in enumerate(idx):
                factor = MultiVec.basis(m, (i,)) if s != t else piece
                piece_total = factor if s == 0 else oracle_wedge(piece_total, factor)
            total = total + f * piece_total
    return total


def oracle_lie_form(X: MultiVec, a: Form) -> Form:
    """Lie derivative of a form via the Cartan formula i_X d + d i_X."""
    transported = i_vec(X, ext_d(a))
    if a.degree == 0:
        # a scalar has no slot to contract, so the d i_X term is vacuous
        return transported
    return transported + ext_d(i_vec(X, a))


def oracle_vec_bracket(X: MultiVec, Y: MultiVec) -> MultiVec:
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i), straight from the components."""
    m = X.m
    out = {}
    for i in range(1, m + 1):
        total = Poly.zero(m)
        for j in range(1, m + 1):
            xj, yj = X.coeff((j,)), Y.coeff((j,))
            total = total + xj * Y.coeff((i,)).partial(j) - yj * X.coeff((i,)).partial(j)
        if not total.is_zero:
            out[(i,)] = total
    return MultiVec(m, 1, out)


def oracle_dorfman(e1: Section, e2: Section) -> Section:
    """Textbook Dorfman bracket [X,Y] + L_X b - L_Y a + d i_Y a, Lie derivatives by Cartan."""
    x, a, y, b = e1.vec, e1.form, e2.vec, e2.form
    form = oracle_lie_form(x, b) - oracle_lie_form(y, a) + ext_d(i_vec(y, a))
    return Section(e1.ctx, oracle_vec_bracket(x, y), form)


def oracle_courant(e1: Section, e2: Section) -> Section:
    """Textbook Courant bracket [X,Y] + L_X b - L_Y a + (d i_Y a - d i_X b) / 2."""
    x, a, y, b = e1.vec, e1.form, e2.vec, e2.form
    form = oracle_lie_form(x, b) - oracle_lie_form(y, a)
    form = form + Fraction(1, 2) * (ext_d(i_vec(y, a)) - ext_d(i_vec(x, b)))
    return Section(e1.ctx, oracle_vec_bracket(x, y), form)


def oracle_flat_matrix(omega: Form, n: int) -> list[list[Fraction]]:
    """Constant terms of X -> i_X omega: row I (the basis n-forms in combinations order),
    column j holds the dx^I component of oracle_i_vec(d/dx_j, omega)."""
    m = omega.m
    columns = [oracle_i_vec(MultiVec.basis(m, (j,)), omega) for j in range(1, m + 1)]
    return [
        [signed_lookup(col, idx).constant_term() for col in columns]
        for idx in combinations(range(1, m + 1), n)
    ]


def _dense_rank(rows: list[list[Fraction]]) -> int:
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * p for a, p in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_rank_consistent(matrix: list[list[Fraction]], rhs: list[Fraction]) -> tuple[int, bool]:
    """Rank of A and whether A x = b has a solution, i.e. rank [A | b] = rank A."""
    rank = _dense_rank(matrix)
    return rank, _dense_rank([row + [b] for row, b in zip(matrix, rhs)]) == rank


def hamiltonian_pairs(c, count: int) -> list:
    """Every ordered pair of Hamiltonian pairs whose potentials are the monomial
    (n-1)-forms x^a dx^I with |a| <= 2, each solved by solve_hamiltonian.

    Asserts that every potential solves and that there are `count` ordered
    pairs.  Where the flat map is bijective, X_xi is linear in xi, so an
    identity that is R-bilinear in (xi, eta) and holds on every pair here
    holds for all potentials of degree <= 2.
    """
    m, n = c.ctx.m, c.ctx.n
    solved = []
    for exps in monomials_up_to(m, 2):
        for idx in combinations(range(1, m + 1), n - 1):
            xi = Poly(m, {exps: 1}) * Form.basis(m, idx)
            pair = solve_hamiltonian(c, xi)
            assert pair is not None, f"{xi} has no Hamiltonian field"
            solved.append(pair)
    pairs = list(product(solved, repeat=2))
    assert len(pairs) == count
    return pairs


def monomial_text(coeff: Fraction, exps, tail: str = "") -> tuple[bool, str]:
    """Render ``|coeff| * x^exps * tail``; returns (is_negative, text).

    Powers are spelled as repeated factors ("x1*x1") because the surface
    grammar reserves "^" for the wedge product.
    """
    parts: list[str] = []
    magnitude = abs(coeff)
    has_factors = any(exps) or bool(tail)
    if magnitude != 1 or not has_factors:
        try:
            parts.append(str(magnitude))
        except ValueError:
            raise InputError("a coefficient has more digits than Python's int-string limit") from None
    for i, e in enumerate(exps):
        parts.extend([f"x{i + 1}"] * e)
    if tail:
        parts.append(tail)
    return coeff < 0, "*".join(parts)


def oracle_text(value) -> str:
    """The canonical text of a Poly, Form, MultiVec or Section, printed from Fractions."""
    if isinstance(value, Section):
        return f"({oracle_text(value.vec)} ; {oracle_text(value.form)})"
    if isinstance(value, Poly):
        ordered = sorted(value.coefficients().items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return join_signed_terms([monomial_text(c, e) for e, c in ordered])
    symbol = "dx" if isinstance(value, Form) else "@"
    rendered = []
    for idx in sorted(value.coeffs):
        poly = value.coeffs[idx]
        basis = "^".join(f"{symbol}{i}" for i in idx)
        if len(poly.terms) == 1:
            ((exps, coeff),) = poly.coefficients().items()
            rendered.append(monomial_text(coeff, exps, basis))
        else:
            text = oracle_text(poly)
            rendered.append((False, f"({text})*{basis}" if basis else text))
    return join_signed_terms(rendered)


def kind_of(value):
    """The `expected` descriptor of dsl.parse that matches a value, for round-tripping."""
    if isinstance(value, Poly):
        return "scalar"
    if isinstance(value, Form):
        return ("form", value.degree)
    if isinstance(value, MultiVec):
        return ("multivec", value.degree)
    if isinstance(value, Section):
        return "section"
    raise TypeError(f"no surface syntax for {type(value).__name__}")


def io_section_text(rng: Random, m: int, n: int, terms: int) -> str:
    """A section like the io workload's bracket operands: dense rational coefficients of
    degree <= 3, printed in a non-canonical order with repeated monomials."""

    def poly_text() -> str:
        pieces = []
        for t in range(terms):
            coeff = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4, 5)))
            text = "*".join([str(coeff)] + [f"x{rng.randint(1, m)}" for _ in range(rng.randint(0, 3))])
            sign = rng.choice("+-")
            pieces.append((f"-{text}" if sign == "-" else text) if t == 0 else f" {sign} {text}")
        return "".join(pieces)

    vec = " + ".join(f"({poly_text()})*@{i}" for i in range(1, m + 1))
    form = " + ".join(f"({poly_text()})*" + "^".join(f"dx{i}" for i in idx) for idx in combinations(range(1, m + 1), n))
    return f"({vec} ; {form})"


# -- the one-token-per-factor parser ------------------------------------------

_ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<OP>[-+*^();])|(?P<RATIONAL>[0-9]+(?:/[0-9]*)?)|(?P<VAR>x[0-9]+)"
    r"|(?P<COVEC>dx[0-9]+)|(?P<VEC>@[0-9]+)|(?P<BAD>\S))"
)
ORACLE_MAX_PAREN_DEPTH = 100


def _oracle_lex_error(text: str, start: int) -> LexError:
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


def _oracle_int(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise LexError(position, f"{len(digits)} digits exceed Python's int-string limit") from None


def oracle_tokenize(text: str) -> list[tuple]:
    """(kind, text, position, value) tuples ending in EOF, one per factor."""
    tokens = []
    for match in _ORACLE_TOKEN.finditer(text):
        kind = match.lastgroup
        token = match[kind]
        start = match.end() - len(token)
        if kind == "OP":
            tokens.append((kind, token, start, None))
        elif kind == "RATIONAL":
            numerator, slash, denominator = token.partition("/")
            numerator = _oracle_int(numerator, start)
            if slash and not denominator:
                raise LexError(start + len(token) - 1, "expected digits after '/' in a rational literal")
            denominator = _oracle_int(denominator, start) if slash else 1
            if not denominator:
                raise LexError(start, "rational literal with zero denominator")
            tokens.append((kind, token, start, (numerator, denominator)))
        elif kind == "BAD":
            raise _oracle_lex_error(text, start)
        else:
            tokens.append((kind, token, start, _oracle_int(token[2 if kind == "COVEC" else 1 :], start)))
    tokens.append(("EOF", "", len(text), None))
    return tokens


def _oracle_kind_name(value) -> str:
    if isinstance(value, Poly):
        return "scalar"
    if isinstance(value, Form):
        return f"form of degree {value.degree}"
    return f"multivector of degree {value.degree}"


def _oracle_combine(op: str, position: int, left, right):
    if isinstance(left, Poly) or isinstance(right, Poly):
        return left * right
    if op == "*":
        raise GradingError(position, "'*' needs at least one scalar operand; use '^' on tensors")
    if type(left) is not type(right):
        raise GradingError(position, f"cannot wedge {_oracle_kind_name(left)} with {_oracle_kind_name(right)}")
    return left.wedge(right)


def _oracle_sum(m: int, lead, terms: list):
    if len(terms) == 1 and terms[0][0] > 0:
        return terms[0][1]
    if isinstance(lead, Poly):
        return sum_of_products(m, [(sign, p, None) for sign, p in terms])
    return lead.summed(*(t.terms(sign) for sign, t in terms))


class _OracleParser:
    def __init__(self, tokens: list[tuple], m: int):
        self.tokens = tokens
        self.pos = 0
        self.m = m
        self.guard = exponent_guard(m)
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
            return _oracle_combine(op[1], op[2], left, right)
        except ExponentBoundError as exc:
            raise DslError(op[2], str(exc)) from None

    def parse_expr(self):
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
            elif isinstance(lead, Poly) and not _oracle_sum(self.m, lead, terms).terms:
                lead, terms = right, [(sign, right)]
            else:
                raise GradingError(
                    position,
                    f"cannot {'add' if op == '+' else 'subtract'} {_oracle_kind_name(right)} "
                    f"and {_oracle_kind_name(lead)}",
                )
        return _oracle_sum(self.m, lead, terms)

    def parse_wedge(self):
        value = self.parse_product()
        while self.tokens[self.pos][1] == "^":
            op = self.advance()
            value = self.combine(op, value, self.parse_product())
        return value

    def parse_product(self):
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
            if self.depth == ORACLE_MAX_PAREN_DEPTH:
                raise ParseError(position, f"parentheses nested deeper than {ORACLE_MAX_PAREN_DEPTH} levels")
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            self.expect(")")
        else:
            raise ParseError(position, f"expected a value, found {text or 'end of input'!r}")
        return -value if negations % 2 else value


def _oracle_coerce(value, ctx, expected, position: int = 0):
    if expected == "scalar":
        if isinstance(value, Poly):
            return value
        raise GradingError(position, f"expected a scalar, got {_oracle_kind_name(value)}")
    kind, degree = expected
    cls = Form if kind == "form" else MultiVec
    if isinstance(value, cls) and value.degree == degree:
        return value
    if isinstance(value, Poly) and value.is_zero:
        return cls.zero(ctx.m, degree)
    if isinstance(value, Poly) and degree == 0:
        return cls(ctx.m, 0, {(): value})
    raise GradingError(position, f"expected a {kind} of degree {degree}, got {_oracle_kind_name(value)}")


def oracle_parse(text: str, ctx, expected):
    """dsl.parse by one token per factor and one Poly per chain term."""
    parser = _OracleParser(oracle_tokenize(text), ctx.m)
    if expected == "section":
        parser.expect("(")
        vec_start = parser.tokens[parser.pos][2]
        vec_value = parser.parse_expr()
        parser.expect(";")
        form_start = parser.tokens[parser.pos][2]
        form_value = parser.parse_expr()
        parser.expect(")")
        parser.expect_end()
        vec_value = _oracle_coerce(vec_value, ctx, ("multivec", 1), vec_start)
        form_value = _oracle_coerce(form_value, ctx, ("form", ctx.n), form_start)
        return Section(ctx, vec_value, form_value)
    start = parser.tokens[parser.pos][2]
    value = parser.parse_expr()
    parser.expect_end()
    return _oracle_coerce(value, ctx, expected, start)
