"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials stand in for smooth scalar functions on a fixed coordinate
chart R^m.  Every geometric object in this package keeps Poly
coefficients, so each identity check downstream reduces to an exact
zero test instead of a floating-point tolerance.

The kernel works on ints: a monomial is one packed key with a field of
FIELD_BITS bits per exponent, so a product of monomials is an integer
addition, and coefficients are int numerators over one denominator per
polynomial.  `Fraction` and exponent tuples appear only at the boundary:
the constructor, `const`, `coefficients`, `constant_term` and `eval_at`;
`term_texts` prints each term from its int numerator and cached key text.
Every sum and product (`+`, `-`, `*` and the tensor operators) runs
through one fused multiply-accumulate, `sum_of_products`, which adds every
product into one dict of int numerators over a running lcm of the sum's
denominators and makes one Poly per sum, not one per product, so it takes
a whole residual's term stream at once.

`partial(i)` keeps each derivative it builds in a private per-variable
memo, so term streams that differentiate one coefficient again reuse it,
and `variables()` lists the variables that occur, whose partials are nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import or_

Exponents = tuple[int, ...]

FIELD_BITS = 16
# The top bit of each field stays clear, so adding two keys never carries
# into the next field and an exponent past the bound shows as that bit.
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class ChartMismatchError(ValueError):
    """Raised when operands live over charts of different dimension."""


def same_chart(a, b) -> None:
    """The one chart check: Polys, tensors and contexts on one chart dimension m."""
    if a.m != b.m:
        raise ChartMismatchError(f"chart dimension mismatch: {a.m} vs {b.m}")


class InputError(ValueError):
    """Raised when the caller's input breaks a documented condition or range."""


class ExponentBoundError(InputError):
    """Raised when an exponent of a monomial would exceed MAX_EXPONENT."""

    def __init__(self):
        super().__init__(f"exponent of a variable exceeds the bound {MAX_EXPONENT}")


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _pack(exps: Exponents) -> int:
    if max(exps) > MAX_EXPONENT:
        raise ExponentBoundError()
    return sum(e << (FIELD_BITS * i) for i, e in enumerate(exps))


def _unpack(key: int, m: int) -> Exponents:
    return tuple((key >> (FIELD_BITS * i)) & _FIELD_MASK for i in range(m))


@cache
def exponent_guard(m: int) -> int:
    """The top bit of each of m fields: a packed key has an exponent past MAX_EXPONENT iff key & guard."""
    return ((1 << FIELD_BITS * m) - 1) // _FIELD_MASK << (FIELD_BITS - 1)


def monomials_up_to(m: int, max_degree: int) -> list[Exponents]:
    """All exponent tuples of length m with total degree <= max_degree, grlex order."""
    out: list[Exponents] = []
    for total in range(max_degree + 1):
        for combo in combinations_with_replacement(range(m), total):
            exps = [0] * m
            for v in combo:
                exps[v] += 1
            out.append(tuple(exps))
    return out


@lru_cache(maxsize=1024)
def _monomial(key: int, m: int) -> tuple[int, Exponents, str]:
    """Total degree, exponents and factor text ("x1*x1*x3") of a packed key on chart m."""
    exps = _unpack(key, m)
    return sum(exps), exps, "*".join(f"x{i}" for i, e in enumerate(exps, 1) for _ in range(e))


def term_texts(p: Poly, tail: str = "") -> list[tuple[bool, str]]:
    """(is_negative, text) of each term |c| * x^exps * tail of p, highest total degree
    first, then exponents descending.  Each key's factors come from one bounded cache and
    each coefficient is written from its numerator and p.den; the magnitude is left out when
    it is 1 and the term has factors or a tail.  Powers are spelled as repeated factors
    ("x1*x1") because the surface grammar reserves "^" for the wedge product.
    """
    den = p.den
    rows = []
    for key, c in p.terms.items():
        degree, exps, text = _monomial(key, p.m)
        text = f"{text}*{tail}" if text and tail else text or tail
        g = gcd(c, den)
        num, d = abs(c) // g, den // g
        if num != 1 or d != 1 or not text:
            try:
                magnitude = f"{num}/{d}" if d != 1 else str(num)
            except ValueError:
                raise InputError("a coefficient has more digits than Python's int-string limit") from None
            text = f"{magnitude}*{text}" if text else magnitude
        rows.append((degree, exps, c < 0, text))
    rows.sort(reverse=True)
    return [(negative, text) for _, _, negative, text in rows]


def join_signed_terms(terms: list[tuple[bool, str]]) -> str:
    if not terms:
        return "0"
    negative, text = terms[0]
    pieces = [f"-{text}" if negative else text]
    for negative, text in terms[1:]:
        pieces.append(f" - {text}" if negative else f" + {text}")
    return "".join(pieces)


class Poly:
    """Sparse polynomial: packed monomial keys -> int numerators over `den`.

    The form is canonical: no zero numerator is stored, `den` is positive,
    gcd(den, *numerators) is 1, and so `den` is 1 for zero.  Two
    polynomials are therefore equal iff m, `den` and `terms` are equal.
    Values are immutable; the lazily filled `_partials` memo and the text `_text`, kept by the
    first str() that succeeds, are not part of ==, hash or repr.
    """

    __slots__ = ("m", "terms", "den", "_partials", "_text")

    def __init__(self, m: int, terms: dict[Exponents, Fraction | int] | None = None):
        if m < 1:
            raise ValueError("chart dimension must be positive")
        coeffs: dict[int, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != m or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for dimension {m}")
            c = _coerce(coeff)
            if c:
                coeffs[_pack(exps)] = c
        # already reduced: a prime's full power in the lcm divides some reduced denominator
        self.den = lcm(*(c.denominator for c in coeffs.values()))
        self.terms = {key: c.numerator * (self.den // c.denominator) for key, c in coeffs.items()}
        self.m = m

    @classmethod
    def _raw(cls, m: int, terms: dict[int, int], den: int = 1) -> "Poly":
        # internal fast path: the caller gives nonzero numerators over a positive den
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {key: c // g for key, c in terms.items()}
                den //= g
        p = object.__new__(cls)
        p.m = m
        p.terms = terms
        p.den = den
        return p

    @classmethod
    def zero(cls, m: int) -> "Poly":
        return cls._raw(m, {})

    @classmethod
    def const(cls, m: int, value) -> "Poly":
        return cls(m, {(0,) * m: value})

    @classmethod
    def monomial(cls, m: int, num: int, den: int, key: int) -> "Poly":
        """num/den * x^key for ints, den > 0, and a packed key within the exponent bound."""
        return cls._raw(m, {key: num}, den) if num else cls.zero(m)

    @classmethod
    def var(cls, m: int, i: int) -> "Poly":
        """The coordinate function x_i, 1-based."""
        if not 1 <= i <= m:
            raise ValueError(f"coordinate index {i} out of range 1..{m}")
        return cls._raw(m, {1 << (FIELD_BITS * (i - 1)): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not any(self.terms)

    def coefficients(self) -> dict[Exponents, Fraction]:
        """The nonzero terms as exponent tuple -> Fraction."""
        return {_unpack(key, self.m): Fraction(c, self.den) for key, c in self.terms.items()}

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def _lift(self, other):
        if isinstance(other, Poly):
            same_chart(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.m, other)
        return None

    def __add__(self, other, sign: int = 1):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return sum_of_products(self.m, ((1, self, None), (sign, other, None)))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.m, {key: -c for key, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return sum_of_products(self.m, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = Poly.const(self.m, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def variables(self) -> list[int]:
        """The 1-based indices of the variables that occur, exactly the i with partial(i) nonzero."""
        occurs = reduce(or_, self.terms, 0)
        return [i for i in range(1, self.m + 1) if occurs >> (FIELD_BITS * (i - 1)) & _FIELD_MASK]

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based), built once per variable."""
        try:
            return self._partials[i]
        except AttributeError:
            self._partials = {}
        except KeyError:
            pass
        if not 1 <= i <= self.m:
            raise ValueError(f"coordinate index {i} out of range 1..{self.m}")
        # lowering one exponent field is injective, so terms never collide
        shift = FIELD_BITS * (i - 1)
        unit = 1 << shift
        out: dict[int, int] = {}
        for key, c in self.terms.items():
            e = (key >> shift) & _FIELD_MASK
            if e:
                out[key - unit] = c * e
        self._partials[i] = derivative = Poly._raw(self.m, out, self.den)
        return derivative

    def eval_at(self, point) -> Fraction:
        """Exact evaluation at a rational point of length m."""
        values = [_coerce(v) for v in point]
        if len(values) != self.m:
            raise ValueError(f"point has length {len(values)}, expected {self.m}")
        total = Fraction(0)
        for exps, c in self.coefficients().items():
            term = c
            for v, e in zip(values, exps):
                term *= v**e
            total += term
        return total

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.m == other.m and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            self._text = text = join_signed_terms(term_texts(self))
            return text

    def __repr__(self):
        return f"Poly({self.m}, {str(self)!r})"


def sum_of_products(m: int, products) -> Poly:
    """Sum of scale * p * q over (scale, p, q) triples of chart m, where q is None for a lone
    p and scale is an int or a Fraction, whose denominator joins the product's den.

    Each product adds its int numerators, the shorter factor outermost, into one dict over
    a running lcm of the denominators, which rises at most log2(lcm) times and rescales the
    dict once per rise; so one call sums a whole term stream and holds none of it.  Every key
    a product made is checked against MAX_EXPONENT before cancellation, so the sum refuses
    whatever one of its products would.
    """
    den = 1
    acc: dict[int, int] = {}
    get = acc.get
    for scale, p, q in products:
        d = p.den if q is None else p.den * q.den
        if scale.__class__ is Fraction:
            scale, d = scale.numerator, d * scale.denominator
        if den % d:
            rise = d // gcd(den, d)
            for key in acc:
                acc[key] *= rise
            den *= rise
        scale *= den // d
        if q is None:
            if scale == 1 and not acc:
                acc.update(p.terms)  # one dict copy, so a long sum plus a short one stays cheap
                continue
            outer, right = p.terms, ((0, 1),)
        elif len(q.terms) < len(p.terms):
            outer, right = q.terms, p.terms.items()
        else:
            outer, right = p.terms, q.terms.items()
        for k1, c1 in outer.items():
            c1 *= scale
            for k2, c2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    if reduce(or_, acc, 0) & exponent_guard(m):
        raise ExponentBoundError()
    if 0 in acc.values():
        acc = {key: c for key, c in acc.items() if c}
    return Poly._raw(m, acc, den)


def merge_sums(m: int, sums: dict[int, dict[int, int]]) -> Poly:
    """One Poly from the int numerators per denominator of a DSL `+`/`-` chain, merged once
    over their lcm.  It consumes `sums`: it pops the lcm's dict, adds the others into it and
    keeps it as the terms."""
    den = lcm(*sums)
    total = sums.pop(den, {})
    get = total.get
    for d, acc in sums.items():
        scale = den // d
        for key, c in acc.items():
            total[key] = get(key, 0) + c * scale
    if 0 in total.values():
        total = {key: c for key, c in total.items() if c}
    return Poly._raw(m, total, den)
