"""Sparse alternating tensor calculus on a polynomial coordinate chart.

Forms and multivector fields of degree k store Poly coefficients against
strictly increasing index tuples.  All Cartan operators live here --
wedge, interior products, exterior derivative, one Lie derivative each
of forms and multivectors, the vector field bracket [X, Y] = L_X Y --
with one fixed set of sign conventions that every other module inherits:

* the basis pairing is <dx_I, @_I> = 1, with no 1/k! factors;
* a form contracts into a multivector through the leading slots,
  defined by <i_xi P, eta> = <P, xi ^ eta> for all test forms eta;
* a decomposable multivector contracts into a form left factor first,
  i_{X ^ Y} = i_Y o i_X, so (i_{X ^ Y} a)(...) = a(X, Y, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .scalar import ChartMismatchError, Poly, join_signed_terms, monomial_text, monomials_up_to

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Context:
    """Chart dimension m and bracket order n, with 1 <= n <= m."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("chart dimension m must be positive")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"bracket order n={self.n} must satisfy 1 <= n <= m={self.m}")


def _merge_indices(left: MultiIndex, right: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Koszul sign and sorted union of two strictly increasing tuples, None on overlap."""
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return None
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps over the remaining left entries
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def _collect(cls, m: int, degree: int, terms):
    """Tensor summing (index, Poly) terms per index, with zero sums dropped."""
    out: dict[MultiIndex, Poly] = {}
    for idx, term in terms:
        cur = out.get(idx)
        s = term if cur is None else cur + term
        if s.is_zero:
            out.pop(idx, None)
        else:
            out[idx] = s
    return cls._raw(m, degree, out)


def _split_sign(sub: MultiIndex, full: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Sign s with dx^sub ^ dx^rest = s * dx^full, rest = full minus sub; None if sub not in full."""
    sub_set = set(sub)
    if not sub_set <= set(full):
        return None
    rest = tuple(x for x in full if x not in sub_set)
    inversions = sum(1 for k in sub for l in rest if k > l)
    return (-1) ** inversions, rest


class _Alternating:
    """Shared storage and ring operations for forms and multivector fields."""

    __slots__ = ("m", "degree", "coeffs")
    _symbol = "?"

    def __init__(self, m: int, degree: int, coeffs: dict[MultiIndex, Poly] | None = None):
        if m < 1:
            raise ValueError("chart dimension must be positive")
        if degree < 0:
            raise ValueError("tensor degree must be nonnegative")
        clean: dict[MultiIndex, Poly] = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index {idx} does not have degree {degree}")
                if any(not 1 <= v <= m for v in idx) or any(
                    idx[t] >= idx[t + 1] for t in range(len(idx) - 1)
                ):
                    raise ValueError(f"index {idx} is not strictly increasing within 1..{m}")
                if not isinstance(poly, Poly):
                    poly = Poly.const(m, poly)
                if poly.m != m:
                    raise ChartMismatchError(f"coefficient chart {poly.m} != {m}")
                if not poly.is_zero:
                    clean[idx] = poly
        self.m = m
        self.degree = degree
        self.coeffs = clean

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
        return cls(m, len(idx), {idx: Poly.const(m, 1)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idx: MultiIndex) -> Poly:
        return self.coeffs.get(tuple(idx), Poly.zero(self.m))

    def component(self, seq: MultiIndex) -> Poly:
        """Signed coefficient for an arbitrary index tuple; zero on repeats."""
        if len(set(seq)) != len(seq):
            return Poly.zero(self.m)
        base = self.coeffs.get(tuple(sorted(seq)))
        if base is None:
            return Poly.zero(self.m)
        inversions = sum(
            1 for s in range(len(seq)) for t in range(s + 1, len(seq)) if seq[s] > seq[t]
        )
        return -base if inversions % 2 else base

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.m != other.m:
            raise ChartMismatchError(f"chart dimension mismatch: {self.m} vs {other.m}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        return _collect(
            type(self), self.m, self.degree, chain(self.coeffs.items(), other.coeffs.items())
        )

    def __neg__(self):
        return type(self)._raw(self.m, self.degree, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = Poly.const(self.m, scalar)
        if not isinstance(scalar, Poly):
            return NotImplemented
        terms = ((idx, p * scalar) for idx, p in self.coeffs.items())
        return _collect(type(self), self.m, self.degree, terms)

    __rmul__ = __mul__

    def wedge(self, other):
        """Alternating product of two same-variance tensors."""
        if type(self) is not type(other):
            raise TypeError("wedge requires both factors of the same variance")
        if self.m != other.m:
            raise ChartMismatchError(f"chart dimension mismatch: {self.m} vs {other.m}")

        def terms():
            for i1, p1 in self.coeffs.items():
                for i2, p2 in other.coeffs.items():
                    merged = _merge_indices(i1, i2)
                    if merged is not None:
                        sign, idx = merged
                        yield idx, p1 * p2 if sign > 0 else -(p1 * p2)

        return _collect(type(self), self.m, self.degree + other.degree, terms())

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
            single = poly.single_term()
            if single is None:
                rendered.append((False, f"({poly})*{basis}" if basis else str(poly)))
            else:
                coeff, exps = single
                rendered.append(monomial_text(coeff, exps, basis))
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


def _i_basis(idx: int, a: Form) -> Form:
    """Interior product with the coordinate vector field @idx."""

    def terms():
        for I, p in a.coeffs.items():
            if idx in I:
                t = I.index(idx)
                yield I[:t] + I[t + 1 :], -p if t % 2 else p

    return _collect(Form, a.m, a.degree - 1, terms())


def i_vec(X: MultiVec, a: Form) -> Form:
    """First-slot contraction of a form by a vector field."""
    _require(X, MultiVec, 1, "vector field")
    _require(a, Form, label="form")
    if X.m != a.m:
        raise ChartMismatchError(f"chart dimension mismatch: {X.m} vs {a.m}")
    if a.degree == 0:
        return Form.zero(a.m, 0)

    def terms():
        for I, p in a.coeffs.items():
            for t, idx in enumerate(I):
                xc = X.coeffs.get((idx,))
                if xc is not None:
                    yield I[:t] + I[t + 1 :], -(xc * p) if t % 2 else xc * p

    return _collect(Form, a.m, a.degree - 1, terms())


def contract_form_into_vec(xi: Form, P: MultiVec) -> MultiVec:
    """Leading-slot contraction i_xi P, defined by <i_xi P, eta> = <P, xi ^ eta>."""
    _require(xi, Form, label="contracting form")
    _require(P, MultiVec, label="multivector")
    if xi.m != P.m:
        raise ChartMismatchError(f"chart dimension mismatch: {xi.m} vs {P.m}")
    if xi.degree > P.degree:
        raise ValueError(f"form degree {xi.degree} exceeds multivector degree {P.degree}")

    def terms():
        for K, c in xi.coeffs.items():
            for J, p in P.coeffs.items():
                split = _split_sign(K, J)
                if split is not None:
                    sign, rest = split
                    yield rest, c * p if sign > 0 else -(c * p)

    return _collect(MultiVec, P.m, P.degree - xi.degree, terms())


def contract_vec_into_form(P: MultiVec, a: Form) -> Form:
    """Iterated interior product i_P a with the left factor contracted first."""
    _require(P, MultiVec, label="multivector")
    _require(a, Form, label="form")
    if P.m != a.m:
        raise ChartMismatchError(f"chart dimension mismatch: {P.m} vs {a.m}")
    if P.degree > a.degree:
        raise ValueError(f"multivector degree {P.degree} exceeds form degree {a.degree}")
    total = Form.zero(a.m, a.degree - P.degree)
    for I, p in P.coeffs.items():
        current = a
        for idx in I:
            current = _i_basis(idx, current)
            if current.is_zero:
                break
        if not current.is_zero:
            total = total + p * current
    return total


def ext_d(a: Form) -> Form:
    """Coordinate exterior derivative d(f dx^I) = sum_j (d_j f) dx_j ^ dx^I."""
    _require(a, Form, label="form")

    def terms():
        for I, p in a.coeffs.items():
            for j in range(1, a.m + 1):
                if j in I:
                    continue
                dp = p.partial(j)
                if not dp.is_zero:
                    below = sum(1 for i in I if i < j)
                    yield I[:below] + (j,) + I[below:], -dp if below % 2 else dp

    return _collect(Form, a.m, a.degree + 1, terms())


def d_scalar(f: Poly) -> Form:
    """Differential of a scalar function as a 1-form."""
    return ext_d(Form(f.m, 0, {(): f}))


def lie_form(X: MultiVec, a: Form) -> Form:
    """Lie derivative of a form via the component formula.

    (L_X a)_I = sum_j X^j d_j a_I + sum_t sum_j a_{I[t -> j]} d_{i_t} X^j.
    The Cartan route i_X d + d i_X is the independent cross-check in the
    test oracles.
    """
    _require(X, MultiVec, 1, "vector field")
    _require(a, Form, label="form")
    if X.m != a.m:
        raise ChartMismatchError(f"chart dimension mismatch: {X.m} vs {a.m}")
    out: dict[MultiIndex, Poly] = {}
    for I in combinations(range(1, a.m + 1), a.degree):
        base = a.coeffs.get(I)
        total = Poly.zero(a.m) if base is None else vec_apply(X, base)
        for t, it in enumerate(I):
            for (j,), xj in X.coeffs.items():
                comp = a.component(I[:t] + (j,) + I[t + 1 :])
                if not comp.is_zero:
                    total = total + comp * xj.partial(it)
        if not total.is_zero:
            out[I] = total
    return Form._raw(a.m, a.degree, out)


def lie_multivec(X: MultiVec, P: MultiVec) -> MultiVec:
    """Lie derivative of a multivector field along a vector field.

    (L_X P)^I = sum_j X^j d_j P^I - sum_t sum_j P^{I[t -> j]} d_j X^{i_t};
    on decomposables this is sum_t Y_1 ^ ... ^ [X, Y_t] ^ ... ^ Y_k
    extended by the Leibniz rule in the coefficients.
    """
    _require(X, MultiVec, 1, "vector field")
    _require(P, MultiVec, label="multivector")
    out: dict[MultiIndex, Poly] = {}
    for I in combinations(range(1, P.m + 1), P.degree):
        base = P.coeffs.get(I)
        total = Poly.zero(P.m) if base is None else vec_apply(X, base)
        for t, it in enumerate(I):
            xit = X.coeffs.get((it,))
            if xit is None:
                continue
            for j in range(1, P.m + 1):
                dxit = xit.partial(j)
                if dxit.is_zero:
                    continue
                comp = P.component(I[:t] + (j,) + I[t + 1 :])
                if not comp.is_zero:
                    total = total - comp * dxit
        if not total.is_zero:
            out[I] = total
    return MultiVec._raw(P.m, P.degree, out)


def vec_bracket(X: MultiVec, Y: MultiVec) -> MultiVec:
    """Jacobi-Lie bracket [X, Y] = L_X Y, so [X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i)."""
    _require(X, MultiVec, 1)
    _require(Y, MultiVec, 1)
    if X.m != Y.m:
        raise ChartMismatchError(f"chart dimension mismatch: {X.m} vs {Y.m}")
    return lie_multivec(X, Y)


def vec_apply(X: MultiVec, f: Poly) -> Poly:
    """Directional derivative X(f) = sum_j X^j d_j f."""
    _require(X, MultiVec, 1, "vector field")
    total = Poly.zero(f.m)
    for (j,), xj in X.coeffs.items():
        total = total + xj * f.partial(j)
    return total


def full_pair(P: MultiVec, a: Form) -> Poly:
    """Full basis pairing <P, a> of a multivector and a form of equal degree."""
    _require(P, MultiVec, label="multivector")
    _require(a, Form, label="form")
    if P.m != a.m:
        raise ChartMismatchError(f"chart dimension mismatch: {P.m} vs {a.m}")
    if P.degree != a.degree:
        raise ValueError(f"degree mismatch: {P.degree} vs {a.degree}")
    total = Poly.zero(P.m)
    for idx, p in P.coeffs.items():
        q = a.coeffs.get(idx)
        if q is not None:
            total = total + p * q
    return total


# -- seeded random generators -------------------------------------------------
#
# Coefficients are polynomials of total degree <= 2 with integer
# coefficients in [-3, 3], deterministic from the supplied Random; small
# degrees keep exact arithmetic fast while exercising every derivative
# path.

_COEFF_CHOICES = (-3, -2, -1, 1, 2, 3)


def random_poly(rng: random.Random, m: int, max_degree: int = 2, density: float = 0.25) -> Poly:
    terms = {}
    for exps in monomials_up_to(m, max_degree):
        if rng.random() < density:
            terms[exps] = Fraction(rng.choice(_COEFF_CHOICES))
    return Poly(m, terms)


def _random_tensor(cls, rng, m, degree, max_degree, density):
    coeffs = {}
    for idx in combinations(range(1, m + 1), degree):
        if rng.random() < 0.75:
            p = random_poly(rng, m, max_degree, density)
            if not p.is_zero:
                coeffs[idx] = p
    return cls(m, degree, coeffs)


def random_form(rng: random.Random, m: int, degree: int, max_degree: int = 2) -> Form:
    return _random_tensor(Form, rng, m, degree, max_degree, 0.25)


def random_multivec(rng: random.Random, m: int, degree: int, max_degree: int = 2) -> MultiVec:
    return _random_tensor(MultiVec, rng, m, degree, max_degree, 0.25)


def random_point(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(m))
