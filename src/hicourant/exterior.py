"""Sparse alternating tensor calculus on a polynomial coordinate chart.

Forms and multivector fields of degree k store Poly coefficients against
strictly increasing index tuples.  All Cartan operators live here, with
one fixed set of sign conventions that every other module inherits:

* the basis pairing is <dx_I, @_I> = 1, with no 1/k! factors;
* a form contracts into a multivector through the leading slots,
  defined by <i_xi P, eta> = <P, xi ^ eta> for all test forms eta;
* a decomposable multivector contracts into a form left factor first,
  i_{X ^ Y} = i_Y o i_X, so (i_{X ^ Y} a)(...) = a(X, Y, ...).

Index signs come only from _merge_indices (dx^I ^ dx^J: wedge, ext_d and
the index moves of lie_terms) and _split_sign (dx^I ^ dx^rest = s dx^J:
every contraction and the pairing).  Both are pure functions of their
index tuples and cached, so each sign is computed once per index pair.
scalar.same_chart is the one chart check, of operands and in
Context.require_degree, which admits a structure tensor only on its
context's chart.  Each operator is a term stream of
(index, scale, p, q), that is scale * p * q at that index: lie_terms
(lie_form, lie_multivec and so vec_bracket), contract_terms (i_vec, both
contractions and full_pair) and ext_d_terms.  Each public operator is
one collect over its stream, one scalar.sum_of_products per output
index.  A caller that adds operators (a bracket, or an identity's
residual) chains their streams into one collect, so only values that are
differentiated or contracted again get built.  Derivatives come from
Poly.partial, which builds each once per polynomial, and lie_terms and
ext_d_terms take them only in the variables that occur.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations

from .scalar import InputError, Poly, join_signed_terms, monomials_up_to, same_chart
from .scalar import sum_of_products, term_texts

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Context:
    """Chart dimension m and bracket order n, with 1 <= n <= m."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise InputError("chart dimension m must be positive")
        if not 1 <= self.n <= self.m:
            raise InputError(f"bracket order n={self.n} must satisfy 1 <= n <= m={self.m}")

    def require_degree(self, what: str, offset: int, *tensors) -> None:
        """Admit tensors on this chart at degree n + offset: same_chart refuses another chart,
        then an InputError names the expected degree and that of the first tensor that misses it."""
        for tensor in tensors:
            same_chart(self, tensor)
            if tensor.degree != self.n + offset:
                formula = f"n{offset:+d}" if offset else "n"
                raise InputError(f"{what} must have degree {formula}={self.n + offset}, got {tensor.degree}")


@cache
def _merge_indices(left: MultiIndex, right: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Sign s and sorted union K with dx^left ^ dx^right = s * dx^K, None on overlap."""
    for k in left:
        if k in right:
            return None
    inversions = sum(1 for k in left for l in right if k > l)
    return -1 if inversions % 2 else 1, tuple(sorted(left + right))


def collect(cls, m: int, degree: int, terms):
    """Tensor summing scale * p * q (p alone when q is None) over (index, scale, p, q)
    terms, one sum_of_products per index, with zero sums dropped."""
    groups: dict[MultiIndex, list] = {}
    for idx, scale, p, q in terms:
        groups.setdefault(idx, []).append((scale, p, q))
    out: dict[MultiIndex, Poly] = {}
    for idx, group in groups.items():
        scale, p, q = group[0]
        total = p if len(group) == 1 and scale == 1 and q is None else sum_of_products(m, group)
        if total.terms:
            out[idx] = total
    return cls._raw(m, degree, out)


@cache
def _split_sign(sub: MultiIndex, full: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Sign s with dx^sub ^ dx^rest = s * dx^full, rest = full minus sub; None if sub not in full."""
    rest = tuple(x for x in full if x not in sub)
    if len(rest) + len(sub) != len(full):
        return None
    inversions = sum(1 for k in sub for l in rest if k > l)
    return -1 if inversions % 2 else 1, rest


class _Alternating:
    """Shared storage and ring operations for forms and multivector fields."""

    __slots__ = ("m", "degree", "coeffs")
    _symbol = "?"

    def __init__(self, m: int, degree: int, coeffs: dict[MultiIndex, Poly] | None = None):
        if m < 1:
            raise ValueError("chart dimension must be positive")
        if degree < 0:
            raise ValueError("tensor degree must be nonnegative")
        self.m = m
        self.degree = degree
        self.coeffs = {}
        for idx, poly in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} does not have degree {degree}")
            if any(not 1 <= v <= m for v in idx) or any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"index {idx} is not strictly increasing within 1..{m}")
            if not isinstance(poly, Poly):
                poly = Poly.const(m, poly)
            same_chart(self, poly)
            if not poly.is_zero:
                self.coeffs[idx] = poly

    @classmethod
    def _raw(cls, m: int, degree: int, coeffs: dict[MultiIndex, Poly]):
        # internal fast path: caller guarantees canonical indices and nonzero Polys
        t = object.__new__(cls)
        t.m = m
        t.degree = degree
        t.coeffs = coeffs
        return t

    @classmethod
    def zero(cls, m: int, degree: int):
        return cls._raw(m, degree, {})

    @classmethod
    def basis(cls, m: int, idx: MultiIndex):
        idx = tuple(idx)
        return cls(m, len(idx), {idx: Poly.monomial(m, 1, 1, 0)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idx: MultiIndex) -> Poly:
        return self.coeffs.get(tuple(idx), Poly.zero(self.m))

    def terms(self, scale=1, q: Poly | None = None):
        """The (index, scale, p, q) stream of scale * q * self, or of scale * self when q is None."""
        return ((idx, scale, p, q) for idx, p in self.coeffs.items())

    def summed(self, *streams):
        """The tensor of self's type, chart and degree summing the term streams in one collect."""
        return collect(type(self), self.m, self.degree, chain(*streams))

    def __add__(self, other, sign: int = 1):
        _require(other, type(self), self.degree, "summand")
        same_chart(self, other)
        return self.summed(self.terms(), other.terms(sign))

    def __neg__(self):
        return type(self)._raw(self.m, self.degree, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.summed(self.terms(scalar))
        if not isinstance(scalar, Poly):
            return NotImplemented
        same_chart(self, scalar)
        return self.summed(self.terms(1, scalar))

    __rmul__ = __mul__

    def wedge(self, other):
        """Alternating product of two same-variance tensors."""
        _require(other, type(self), label="wedge factor")
        terms = _bilinear_terms(self, other, _merge_indices)
        return collect(type(self), self.m, self.degree + other.degree, terms)

    __xor__ = wedge

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.m == other.m and self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.m, self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        rendered = []
        for idx in sorted(self.coeffs):
            poly = self.coeffs[idx]
            basis = "^".join(f"{self._symbol}{i}" for i in idx)
            if len(poly.terms) == 1:
                rendered.extend(term_texts(poly, basis))
            else:
                rendered.append((False, f"({poly})*{basis}" if basis else str(poly)))
        return join_signed_terms(rendered)

    def __repr__(self):
        return f"{type(self).__name__}({self.m}, {self.degree}, {str(self)!r})"


class Form(_Alternating):
    """Alternating covariant tensor of fixed degree with Poly coefficients."""

    _symbol = "dx"


class MultiVec(_Alternating):
    """Alternating contravariant tensor of fixed degree with Poly coefficients."""

    _symbol = "@"


def wedge(a, b):
    return a.wedge(b)


def _require(value, kind, degree=None, label="argument"):
    if not isinstance(value, kind):
        raise TypeError(f"{label} must be a {kind.__name__}, got {type(value).__name__}")
    if degree is not None and value.degree != degree:
        raise ValueError(f"{label} must have degree {degree}, got {value.degree}")


def _bilinear_terms(a, b, rule, scale=1):
    """The stream of scale * sign * a_I * b_J at index K over coefficient pairs,
    where rule(I, J) gives (sign, K), or None when the pair does not combine."""
    same_chart(a, b)
    for I, p in a.coeffs.items():
        for J, q in b.coeffs.items():
            hit = rule(I, J)
            if hit is not None:
                yield hit[1], hit[0] * scale, p, q


def contract_terms(P, a, scale=1):
    """The stream of scale times the contraction of a by the lower-degree P: i_P a of a
    form by a multivector P, or the leading-slot i_P a of a multivector by a form P."""
    return _bilinear_terms(P, a, _split_sign, scale)


def i_vec(X: MultiVec, a: Form) -> Form:
    """First-slot contraction of a form by a vector field; zero on scalars."""
    _require(X, MultiVec, 1, "vector field")
    _require(a, Form, label="form")
    return collect(Form, a.m, max(a.degree - 1, 0), contract_terms(X, a))


def contract_form_into_vec(xi: Form, P: MultiVec) -> MultiVec:
    """Leading-slot contraction i_xi P, defined by <i_xi P, eta> = <P, xi ^ eta>."""
    _require(xi, Form, label="contracting form")
    _require(P, MultiVec, label="multivector")
    if xi.degree > P.degree:
        raise ValueError(f"form degree {xi.degree} exceeds multivector degree {P.degree}")
    return collect(MultiVec, P.m, P.degree - xi.degree, contract_terms(xi, P))


def contract_vec_into_form(P: MultiVec, a: Form) -> Form:
    """Iterated interior product i_P a with the left factor contracted first."""
    _require(P, MultiVec, label="multivector")
    _require(a, Form, label="form")
    if P.degree > a.degree:
        raise ValueError(f"multivector degree {P.degree} exceeds form degree {a.degree}")
    return collect(Form, a.m, a.degree - P.degree, contract_terms(P, a))


def full_pair(P: MultiVec, a: Form) -> Poly:
    """Full basis pairing <P, a> of a multivector and a form of equal degree."""
    _require(P, MultiVec, label="multivector")
    _require(a, Form, P.degree, "form")
    return collect(Form, a.m, 0, contract_terms(P, a)).coeff(())


def ext_d_terms(a: Form, scale=1):
    """The stream of scale * d a, with d(f dx^I) = sum_j (d_j f) dx_j ^ dx^I."""
    for I, p in a.coeffs.items():
        for j in p.variables():
            merged = _merge_indices((j,), I)
            if merged is not None:
                yield merged[1], merged[0] * scale, p.partial(j), None


def ext_d(a: Form) -> Form:
    """Coordinate exterior derivative d(f dx^I) = sum_j (d_j f) dx_j ^ dx^I."""
    _require(a, Form, label="form")
    return collect(Form, a.m, a.degree + 1, ext_d_terms(a))


def d_scalar(f: Poly) -> Form:
    """Differential of a scalar function as a 1-form."""
    return ext_d(Form(f.m, 0, {(): f}))


def lie_terms(X: MultiVec, T, scale=1):
    """The stream of scale * L_X T for a vector field X and a form or multivector T, by
    the component formula (L_X T)_I = X(T_I) + sum_t sum_j T_{I[t -> j]} A_{i_t j}.

    A is read off the nonzero entries d_l X^k of the Jacobian, those with x_l in
    X^k: A_{ij} = d_i X^j on forms and A_{ij} = -d_j X^i on multivectors.  The
    sum is scattered from T's nonzero coefficients: T_J adds X^k d_k T_J at J
    for each x_k in T_J, and for each slot t and each entry A_{i, J_t} it adds
    T_J A_{i, J_t} at the sorted index of J[t -> i], with sign (-1)^t times
    that of dx^i ^ dx^(J without J_t).
    """
    same_chart(X, T)
    covariant = isinstance(T, Form)
    columns: dict[int, list[tuple[int, int, Poly]]] = {}  # j -> (i, s, d) with scale * A_{ij} = s * d
    for (k,), xk in X.coeffs.items():
        for l in xk.variables():
            i, j, sign = (l, k, scale) if covariant else (k, l, -scale)
            columns.setdefault(j, []).append((i, sign, xk.partial(l)))
    for J, p in T.coeffs.items():
        occurs = p.variables()
        for (k,), xk in X.coeffs.items():
            if k in occurs:
                yield J, scale, xk, p.partial(k)
        for t, jt in enumerate(J):
            rest = J[:t] + J[t + 1 :]
            for i, sign, d in columns.get(jt, ()):
                hit = _merge_indices((i,), rest)
                if hit is not None:
                    yield hit[1], -sign * hit[0] if t % 2 else sign * hit[0], p, d


def lie_form(X: MultiVec, a: Form) -> Form:
    """Lie derivative L_X a; the Cartan route i_X d + d i_X is the test oracle."""
    _require(X, MultiVec, 1, "vector field")
    _require(a, Form, label="form")
    return collect(Form, a.m, a.degree, lie_terms(X, a))


def lie_multivec(X: MultiVec, P: MultiVec) -> MultiVec:
    """Lie derivative L_X P, on decomposables sum_t Y_1 ^ ... ^ [X, Y_t] ^ ... ^ Y_k."""
    _require(X, MultiVec, 1, "vector field")
    _require(P, MultiVec, label="multivector")
    return collect(MultiVec, P.m, P.degree, lie_terms(X, P))


def vec_bracket(X: MultiVec, Y: MultiVec) -> MultiVec:
    """Jacobi-Lie bracket [X, Y] = L_X Y, so [X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i)."""
    _require(X, MultiVec, 1)
    _require(Y, MultiVec, 1)
    return lie_multivec(X, Y)


def vec_apply(X: MultiVec, f: Poly) -> Poly:
    """Directional derivative X(f) = sum_j X^j d_j f."""
    _require(X, MultiVec, 1, "vector field")
    same_chart(X, f)
    return sum_of_products(f.m, ((1, xj, f.partial(j)) for (j,), xj in X.coeffs.items()))


# -- seeded random generators -------------------------------------------------
#
# Coefficients are polynomials of total degree <= 2 with integer
# coefficients in [-3, 3], deterministic from the supplied Random; small
# degrees keep exact arithmetic fast while exercising every derivative
# path.

_COEFF_CHOICES = (-3, -2, -1, 1, 2, 3)


@cache
def _draw_monomials(m: int) -> tuple[Poly, ...]:
    return tuple(Poly(m, {exps: 1}) for exps in monomials_up_to(m, 2))


def random_poly(rng: random.Random, m: int) -> Poly:
    # each monomial of degree <= 2 in turn gets a coefficient with probability 1/4
    picks = [(rng.choice(_COEFF_CHOICES), x, None) for x in _draw_monomials(m) if rng.random() < 0.25]
    return sum_of_products(m, picks)


def _random_tensor(cls, rng, m, degree):
    coeffs = {}
    for idx in combinations(range(1, m + 1), degree):
        if rng.random() < 0.75:
            p = random_poly(rng, m)
            if not p.is_zero:
                coeffs[idx] = p
    return cls(m, degree, coeffs)


def random_form(rng: random.Random, m: int, degree: int) -> Form:
    return _random_tensor(Form, rng, m, degree)


def random_multivec(rng: random.Random, m: int, degree: int) -> MultiVec:
    return _random_tensor(MultiVec, rng, m, degree)


def random_point(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(m))
