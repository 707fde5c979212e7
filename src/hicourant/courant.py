"""Brackets on sections of the generalized tangent bundle TM (+) Wedge^n T*M.

A section pairs a vector field with an n-form.  This module provides the
symmetric pairing, the non-skew higher-order Dorfman bracket that every
other bracket is derived from, the skew higher-order Courant bracket,
deformations by an (n+2)-form, gauge shears by an (n+1)-form, and seeded
exact verification suites for the identities those operations satisfy.

Each bracket and the pairing is a term stream (see `exterior`) that its public
function collects once; a residual builds only its inner brackets and sums its
outer brackets, pairings and products f*e as streams, one collect per part.
Suites look their brackets and term streams up when they run, so rebinding `dorfman_terms` in
every module reaches every bracket; rebinding a public bracket (as bench/tracer.py does) reaches
only the inner brackets a residual builds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import chain, product

from .exterior import (
    Context,
    Form,
    MultiVec,
    Value,
    collect,
    contract_terms,
    d_scalar,
    ext_d,
    ext_d_terms,
    lie_terms,
    random_form,
    random_multivec,
    random_poly,
    vec_apply,
    wedge,
)
from .scalar import ChartMismatchError, InputError, same_chart

HALF = Fraction(1, 2)


class Section(Value):
    """An element X + alpha of the generalized tangent bundle."""

    _fields = ("ctx", "vec", "form")

    def _check(self):
        if self.vec.degree != 1:
            raise InputError("vector part must have degree 1")
        same_chart(self.ctx, self.vec)
        self.ctx.require_degree("form part", 0, self.form)

    @classmethod
    def zero(cls, ctx: Context) -> "Section":
        return cls(ctx, MultiVec.zero(ctx.m, 1), Form.zero(ctx.m, ctx.n))

    @classmethod
    def of_vec(cls, ctx: Context, X: MultiVec) -> "Section":
        return cls(ctx, X, Form.zero(ctx.m, ctx.n))

    @classmethod
    def of_form(cls, ctx: Context, a: Form) -> "Section":
        return cls(ctx, MultiVec.zero(ctx.m, 1), a)

    @property
    def is_zero(self) -> bool:
        return self.vec.is_zero and self.form.is_zero

    def _check_ctx(self, other: "Section") -> None:
        if self.ctx != other.ctx:
            raise ChartMismatchError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "Section", sign: int = 1) -> "Section":
        self._check_ctx(other)
        return self.summed(self.terms(), other.terms(sign))

    def __sub__(self, other: "Section") -> "Section":
        return self.__add__(other, -1)

    def __neg__(self) -> "Section":
        return Section(self.ctx, -self.vec, -self.form)

    def __mul__(self, scalar):
        return Section(self.ctx, scalar * self.vec, scalar * self.form)

    __rmul__ = __mul__

    def terms(self, scale=1, q=None):
        """The (vector terms, form terms) streams of scale * q * self, or of scale * self."""
        return self.vec.terms(scale, q), self.form.terms(scale, q)

    def summed(self, *streams):
        """The Section of self's context summing (vector terms, form terms) streams."""
        vecs, forms = zip(*streams)
        return Section(self.ctx, self.vec.summed(*vecs), self.form.summed(*forms))

    def __str__(self):
        return f"({self.vec} ; {self.form})"


def pairing_terms(e1: Section, e2: Section, scale=1):
    """The stream of scale * <e1, e2>, see pairing."""
    e1._check_ctx(e2)
    half = HALF * scale
    return chain(contract_terms(e1.vec, e2.form, half), contract_terms(e2.vec, e1.form, half))


def pairing(e1: Section, e2: Section) -> Form:
    """Symmetric pairing <X + a, Y + b> = (i_X b + i_Y a) / 2, an (n-1)-form."""
    return collect(Form, e1.ctx.m, e1.ctx.n - 1, pairing_terms(e1, e2))


def dorfman_terms(e1: Section, e2: Section, scale=1):
    """The (vector terms, form terms) streams of scale * [e1, e2], see dorfman_bracket.

    The form part L_X b - i_Y da is, by the Cartan formula, L_X b - L_Y a + d i_Y a
    with one Lie derivative instead of two; the test oracles build that form.
    """
    e1._check_ctx(e2)
    form = chain(lie_terms(e1.vec, e2.form, scale), contract_terms(e2.vec, ext_d(e1.form), -scale))
    return lie_terms(e1.vec, e2.vec, scale), form


def dorfman_bracket(e1: Section, e2: Section) -> Section:
    """Non-skew bracket [X,Y] + L_X b - i_Y da of e1 = X + a and e2 = Y + b."""
    return e1.summed(dorfman_terms(e1, e2))


def courant_terms(e1: Section, e2: Section, scale=1):
    """The (vector terms, form terms) streams of scale * the Courant bracket [e1, e2]."""
    vec, form = dorfman_terms(e1, e2, scale)
    return vec, chain(form, ext_d_terms(pairing(e1, e2), -scale))


def courant_bracket(e1: Section, e2: Section) -> Section:
    """Skew bracket [X,Y] + L_X b - L_Y a + (d i_Y a - d i_X b) / 2 = Dorfman - d<e1,e2>."""
    return e1.summed(courant_terms(e1, e2))


def anchor(e: Section) -> MultiVec:
    """Projection onto the vector field part."""
    return e.vec


def _cyclic_defect(e1, e2, e3, e12, e23, e31) -> Form:
    """T(e1, e2, e3) given the Courant brackets e12 = [e1,e2], e23 = [e2,e3] and e31 = [e3,e1]."""
    streams = (pairing_terms(x, e, Fraction(-1, 3)) for x, e in ((e12, e3), (e23, e1), (e31, e2)))
    return collect(Form, e1.ctx.m, e1.ctx.n - 1, chain(*streams))


def t_map(e1: Section, e2: Section, e3: Section) -> Form:
    """Cyclic pairing defect T = -(<[e1,e2], e3> + c.p.) / 3, an (n-1)-form."""
    brackets = courant_bracket(e1, e2), courant_bracket(e2, e3), courant_bracket(e3, e1)
    return _cyclic_defect(e1, e2, e3, *brackets)


def deformed_terms(e1: Section, e2: Section, theta: Form, scale=1):
    """The (vector terms, form terms) streams of scale * [e1, e2]_theta, see deformed_dorfman."""
    e1.ctx.require_degree("deformation form", 2, theta)
    vec, form = dorfman_terms(e1, e2, scale)
    return vec, chain(form, contract_terms(wedge(e1.vec, e2.vec), theta, scale))


def deformed_dorfman(e1: Section, e2: Section, theta: Form) -> Section:
    """Dorfman bracket twisted by an (n+2)-form: add i_{X ^ Y} theta."""
    return e1.summed(deformed_terms(e1, e2, theta))


def gauge(phi: Form, e: Section) -> Section:
    """Shear X + a -> X + a + i_X phi for an (n+1)-form phi."""
    e.ctx.require_degree("gauge form", 1, phi)
    return e.summed(e.terms(), ((), contract_terms(e.vec, phi)))


def random_section(rng: random.Random, ctx: Context) -> Section:
    return Section(ctx, random_multivec(rng, ctx.m, 1), random_form(rng, ctx.m, ctx.n))


# -- check reporting ----------------------------------------------------------


class Failure(Value):
    """One counterexample: the inputs that produced it, a tuple of texts, and the nonzero residual's text."""

    _fields = ("inputs", "residual")


class CheckResult:
    """Outcome of one identity check (a sweep, a rank probe or an iff verdict) with counterexample
    witnesses.  The field order here and in Failure is the key order of a check in the JSON report."""

    def __init__(self, name: str, identity: str, cases: int = 0, failures=()):
        self.name, self.identity, self.cases = name, identity, cases
        self.failures: list[Failure] = list(failures)

    def __eq__(self, other):  # an __eq__ without a __hash__ leaves the class unhashable
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, inputs, residual) -> None:
        self.record_verdict(inputs, residual.is_zero, residual)

    def record_verdict(self, inputs, agree: bool, note) -> None:
        self.cases += 1
        if not agree:
            self.failures.append(Failure(tuple(str(v) for v in inputs), str(note)))

    @classmethod
    def iff(cls, name, identity, inputs, left: tuple[str, CheckResult], right: tuple[str, CheckResult]):
        """The one-case check that passes iff the two (label, check) pairs both pass or both fail."""
        agreement = cls(name, identity)
        note = " ".join(f"{label}={check.passed}" for label, check in (left, right))
        agreement.record_verdict(inputs, left[1].passed == right[1].passed, note)
        return agreement


def cases(seed: int, samples: int, draw, exhaustive=()):
    """Cases of one sweep: the exhaustive cases in order, then `samples` draws draw(rng)
    from one Random seeded with seed.  Refuses samples < 1 at the call, before any draw."""
    if samples < 1:
        raise InputError("samples must be at least 1")
    rng = random.Random(seed)
    return chain(exhaustive, (draw(rng) for _ in range(samples)))


def leibniz_residual(terms, a, b, c, ab, ac, bc):
    """[a,[b,c]] - ([[a,b],c] + [b,[a,c]]) for any bracket on Sections or forms, given as
    its term streams terms(x, y, scale=1), with ab = [a,b], ac = [a,c] and bc = [b,c]."""
    return a.summed(terms(a, bc), terms(ab, c, scale=-1), terms(b, ac, scale=-1))


def scalar_residual(terms, anchor, a, b, f, ab, *extra):
    """[a, f*b] - (f*[a,b] + anchor(a)(f)*b) plus the extra streams, for any bracket, given ab = [a,b]."""
    return b.summed(terms(a, f * b), ab.terms(-1, f), b.terms(-1, vec_apply(anchor(a), f)), *extra)


def _pairing_residual(e1, e2, e3, x, y):
    """L_rho(e1)<e2,e3> - (<x, e3> + <e2, y>), with x and y standing for [e1,e2] and [e1,e3]."""
    p23 = pairing(e2, e3)
    return p23.summed(lie_terms(anchor(e1), p23), pairing_terms(x, e3, -1), pairing_terms(e2, y, -1))


def anchor_residual(anchor, a, b, ab):
    """anchor([a,b]) - [anchor(a), anchor(b)], given ab = [a,b]."""
    rho = anchor(ab)
    return rho.summed(rho.terms(), lie_terms(anchor(a), anchor(b), -1))


def _random_sections(ctx: Context, k: int, rng: random.Random) -> tuple[Section, ...]:
    return tuple(random_section(rng, ctx) for _ in range(k))


def _axiom_case(ctx: Context, rng: random.Random):
    """Three random sections e1, e2, e3 and a random scalar f."""
    return (*_random_sections(ctx, 3, rng), random_poly(rng, ctx.m))


def check_courant_axioms(ctx: Context, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Exact residual checks for the Courant-bracket identities on seeded sections."""
    sweep = cases(seed, samples, partial(_axiom_case, ctx))
    jacobi = CheckResult("jacobiator_exact_term", "[e1,[e2,e3]] + cyclic = d T(e1,e2,e3)")
    scalar_rule = CheckResult("scalar_rule", "[e1, f*e2] = f*[e1,e2] + rho(e1)(f)*e2 - df ^ <e1,e2>")
    morphism = CheckResult("anchor_morphism", "rho([e1,e2]) = [rho(e1), rho(e2)]")
    compat = CheckResult("pairing_compat", "L_rho(e1)<e2,e3> = <[e1,e2] + d<e1,e2>, e3> + <e2, [e1,e3] + d<e1,e3>>")
    for e1, e2, e3, f in sweep:
        e12, e23, e31 = courant_bracket(e1, e2), courant_bracket(e2, e3), courant_bracket(e3, e1)
        d_t = ext_d_terms(_cyclic_defect(e1, e2, e3, e12, e23, e31), -1)
        outer = courant_terms(e1, e23), courant_terms(e2, e31), courant_terms(e3, e12)
        jacobi.record((e1, e2, e3), e1.summed(*outer, ((), d_t)))
        p12 = pairing(e1, e2)
        correction = ((), wedge(d_scalar(f), p12).terms())
        scalar_rule.record((e1, e2, f), scalar_residual(courant_terms, anchor, e1, e2, f, e12, correction))
        morphism.record((e1, e2), anchor_residual(anchor, e1, e2, e12))
        e13 = dorfman_bracket(e1, e3)  # [e1,e3] + d<e1,e3>, built as one bracket
        e12_d = Section(e1.ctx, e12.vec, e12.form + ext_d(p12))  # [e1,e2] + d<e1,e2>
        compat.record((e1, e2, e3), _pairing_residual(e1, e2, e3, e12_d, e13))
    return [jacobi, scalar_rule, morphism, compat]


def check_dorfman_axioms(ctx: Context, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Exact residual checks for the Dorfman-bracket identities on seeded sections."""
    sweep = cases(seed, samples, partial(_axiom_case, ctx))
    leibniz = CheckResult("leibniz_identity", "[e1,[e2,e3]] = [[e1,e2],e3] + [e2,[e1,e3]]")
    left = CheckResult("scalar_rule_left", "[e1, f*e2] = f*[e1,e2] + rho(e1)(f)*e2")
    right = CheckResult("scalar_rule_right", "[f*e1, e2] = f*[e1,e2] - rho(e2)(f)*e1 + df ^ 2<e1,e2>")
    compat = CheckResult("pairing_compat", "L_rho(e1)<e2,e3> = <[e1,e2], e3> + <e2, [e1,e3]>")
    morphism = CheckResult("anchor_morphism", "rho([e1,e2]) = [rho(e1), rho(e2)]")
    for e1, e2, e3, f in sweep:
        e12, e13, e23 = dorfman_bracket(e1, e2), dorfman_bracket(e1, e3), dorfman_bracket(e2, e3)
        leibniz.record((e1, e2, e3), leibniz_residual(dorfman_terms, e1, e2, e3, e12, e13, e23))
        left.record((e1, e2, f), scalar_residual(dorfman_terms, anchor, e1, e2, f, e12))
        # [f*e1, e2] - (f*[e1,e2] - rho(e2)(f)*e1 + df ^ 2<e1,e2>)
        df_pair = ((), wedge(d_scalar(f), pairing(e1, e2)).terms(-2))
        rhs = e12.terms(-1, f), e1.terms(1, vec_apply(e2.vec, f)), df_pair
        right.record((e1, e2, f), e1.summed(dorfman_terms(f * e1, e2), *rhs))
        compat.record((e1, e2, e3), _pairing_residual(e1, e2, e3, e12, e13))
        morphism.record((e1, e2), anchor_residual(anchor, e1, e2, e12))
    return [leibniz, left, right, compat, morphism]


def check_deformation(
    ctx: Context, theta: Form, seed: int = 0, samples: int = 25
) -> list[CheckResult]:
    """Verify that the theta-twisted bracket obeys Leibniz exactly when d theta = 0.

    The Leibniz sweep always includes every triple of constant coordinate
    vector sections, which is what makes a non-closed theta fail
    deterministically rather than by luck of the sampler.  Each of the m^2
    brackets of two coordinate sections is built once per sweep.
    """
    ctx.require_degree("deformation form", 2, theta)
    terms = partial(deformed_terms, theta=theta)
    bracket = partial(deformed_dorfman, theta=theta)

    def coordinate():
        basis = [Section.of_vec(ctx, MultiVec.basis(ctx.m, (i,))) for i in range(1, ctx.m + 1)]
        inner = {(i, j): bracket(basis[i], basis[j]) for i, j in product(range(ctx.m), repeat=2)}
        for i, j, k in product(range(ctx.m), repeat=3):
            yield basis[i], basis[j], basis[k], inner[i, j], inner[i, k], inner[j, k]

    def draw(rng):
        e1, e2, e3 = _random_sections(ctx, 3, rng)
        return e1, e2, e3, bracket(e1, e2), bracket(e1, e3), bracket(e2, e3)

    sweep = cases(seed, samples, draw, coordinate())
    closed = CheckResult("theta_closed", "d theta = 0")
    closed.record((theta,), ext_d(theta))
    leibniz = CheckResult("deformed_leibniz", "[e1,[e2,e3]]_theta = [[e1,e2],e3]_theta + [e2,[e1,e3]]_theta")
    for e1, e2, e3, ab, ac, bc in sweep:
        leibniz.record((e1, e2, e3), leibniz_residual(terms, e1, e2, e3, ab, ac, bc))
    identity = "the twisted bracket obeys Leibniz iff d theta = 0"
    verdicts = ("d-closed", closed), ("leibniz", leibniz)
    return [closed, leibniz, CheckResult.iff("closed_iff_leibniz", identity, (theta,), *verdicts)]


def check_gauge_isomorphism(
    ctx: Context, phi: Form, seed: int = 0, samples: int = 25
) -> list[CheckResult]:
    """Verify the gauge shear intertwines the d(phi)-twisted and plain brackets.  When d phi = 0
    the twist adds nothing, and gauge_automorphism restates the intertwiner's cases and failures."""
    ctx.require_degree("gauge form", 1, phi)
    sweep = cases(seed, samples, partial(_random_sections, ctx, 2))
    dphi = ext_d(phi)
    check = CheckResult("gauge_intertwiner", "gauge(phi)[e1,e2]_{d phi} = [gauge(phi)e1, gauge(phi)e2]")
    for e1, e2 in sweep:
        vec, form = deformed_terms(e1, e2, dphi)
        xy = e1.vec.summed(vec)  # gauge(phi)[e1,e2]_{d phi} = [X,Y] + its form part + i_[X,Y] phi
        sheared = xy.terms(), chain(form, contract_terms(xy, phi))
        check.record((e1, e2), e1.summed(sheared, dorfman_terms(gauge(phi, e1), gauge(phi, e2), -1)))
    if not dphi.is_zero:
        return [check]
    identity = "d phi = 0: gauge(phi)[e1,e2] = [gauge(phi)e1, gauge(phi)e2]"
    return [check, CheckResult("gauge_automorphism", identity, check.cases, check.failures)]
