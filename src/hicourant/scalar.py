"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials stand in for smooth scalar functions on a fixed coordinate
chart R^m.  Every geometric object in this package keeps Poly
coefficients, so each identity check downstream reduces to an exact
zero test instead of a floating-point tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

Exponents = tuple[int, ...]


class ChartMismatchError(ValueError):
    """Raised when operands live over charts of different dimension."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


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


def monomial_text(coeff: Fraction, exps: Exponents, tail: str = "") -> tuple[bool, str]:
    """Render ``|coeff| * x^exps * tail``; returns (is_negative, text).

    Powers are spelled as repeated factors ("x1*x1") because the surface
    grammar reserves "^" for the wedge product.
    """
    parts: list[str] = []
    magnitude = abs(coeff)
    has_factors = any(exps) or bool(tail)
    if magnitude != 1 or not has_factors:
        parts.append(str(magnitude))
    for i, e in enumerate(exps):
        parts.extend([f"x{i + 1}"] * e)
    if tail:
        parts.append(tail)
    return coeff < 0, "*".join(parts)


def join_signed_terms(terms: list[tuple[bool, str]]) -> str:
    if not terms:
        return "0"
    negative, text = terms[0]
    pieces = [f"-{text}" if negative else text]
    for negative, text in terms[1:]:
        pieces.append(f" - {text}" if negative else f" + {text}")
    return "".join(pieces)


class Poly:
    """Sparse polynomial: dense exponent tuples of length m -> Fraction.

    Zero coefficients are never stored, so two polynomials are equal iff
    their term maps are equal.  Values are immutable after construction.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[Exponents, Fraction | int] | None = None):
        if m < 1:
            raise ValueError("chart dimension must be positive")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != m or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for dimension {m}")
                c = _coerce(coeff)
                if c:
                    clean[exps] = c
        self.m = m
        self.terms = clean

    @classmethod
    def _raw(cls, m: int, terms: dict[Exponents, Fraction]) -> "Poly":
        # internal fast path: caller guarantees canonical, nonzero terms
        p = object.__new__(cls)
        p.m = m
        p.terms = terms
        return p

    @classmethod
    def zero(cls, m: int) -> "Poly":
        return cls._raw(m, {})

    @classmethod
    def const(cls, m: int, value) -> "Poly":
        return cls(m, {(0,) * m: _coerce(value)})

    @classmethod
    def var(cls, m: int, i: int) -> "Poly":
        """The coordinate function x_i, 1-based."""
        if not 1 <= i <= m:
            raise ValueError(f"coordinate index {i} out of range 1..{m}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(m))
        return cls(m, {exps: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.m, Fraction(0))

    def _lift(self, other):
        if isinstance(other, Poly):
            if self.m != other.m:
                raise ChartMismatchError(f"chart dimension mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.m, other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            s = merged.get(exps)
            s = c if s is None else s + c
            if s:
                merged[exps] = s
            else:
                merged.pop(exps, None)
        return Poly._raw(self.m, merged)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return Poly.zero(self.m)
            return Poly._raw(self.m, {e: c * v for e, v in self.terms.items()})
        other = self._lift(other)
        if other is None:
            return NotImplemented
        product: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = product.get(e)
                s = c if s is None else s + c
                if s:
                    product[e] = s
                else:
                    product.pop(e, None)
        return Poly._raw(self.m, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = Poly.const(self.m, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"coordinate index {i} out of range 1..{self.m}")
        # lowering one exponent slot is injective, so terms never collide
        out: dict[Exponents, Fraction] = {}
        pos = i - 1
        for exps, c in self.terms.items():
            e = exps[pos]
            if e == 0:
                continue
            out[exps[:pos] + (e - 1,) + exps[pos + 1 :]] = c * e
        return Poly._raw(self.m, out)

    def eval_at(self, point) -> Fraction:
        """Exact evaluation at a rational point of length m."""
        values = [_coerce(v) for v in point]
        if len(values) != self.m:
            raise ValueError(f"point has length {len(values)}, expected {self.m}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(values, exps):
                term *= v**e
            total += term
        return total

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero

    def single_term(self) -> tuple[Fraction, Exponents] | None:
        if len(self.terms) != 1:
            return None
        ((exps, coeff),) = self.terms.items()
        return coeff, exps

    def __str__(self):
        ordered = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return join_signed_terms([monomial_text(c, e) for e, c in ordered])

    def __repr__(self):
        return f"Poly({self.m}, {str(self)!r})"
