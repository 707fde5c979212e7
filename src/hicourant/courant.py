"""Brackets on sections of the generalized tangent bundle TM (+) Wedge^n T*M.

A section pairs a vector field with an n-form.  This module provides the
symmetric pairing, the non-skew higher-order Dorfman bracket that every
other bracket is derived from, the skew higher-order Courant bracket,
deformations by an (n+2)-form, gauge shears by an (n+1)-form, and seeded
exact verification suites for the identities those operations satisfy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, product

from .exterior import (
    Context,
    Form,
    MultiVec,
    contract_vec_into_form,
    d_scalar,
    ext_d,
    i_vec,
    lie_form,
    random_form,
    random_multivec,
    random_poly,
    vec_apply,
    vec_bracket,
    wedge,
)
from .scalar import ChartMismatchError, InputError

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Section:
    """An element X + alpha of the generalized tangent bundle."""

    ctx: Context
    vec: MultiVec
    form: Form

    def __post_init__(self):
        if self.vec.degree != 1:
            raise InputError("vector part must have degree 1")
        if self.form.degree != self.ctx.n:
            raise InputError(f"form part must have degree n={self.ctx.n}, got {self.form.degree}")
        if self.vec.m != self.ctx.m or self.form.m != self.ctx.m:
            raise ChartMismatchError("section parts live on a different chart than the context")

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

    def __add__(self, other: "Section") -> "Section":
        self._check_ctx(other)
        return Section(self.ctx, self.vec + other.vec, self.form + other.form)

    def __sub__(self, other: "Section") -> "Section":
        self._check_ctx(other)
        return Section(self.ctx, self.vec - other.vec, self.form - other.form)

    def __neg__(self) -> "Section":
        return Section(self.ctx, -self.vec, -self.form)

    def __mul__(self, scalar):
        return Section(self.ctx, scalar * self.vec, scalar * self.form)

    __rmul__ = __mul__

    def add_form(self, a: Form) -> "Section":
        return Section(self.ctx, self.vec, self.form + a)

    def __str__(self):
        return f"({self.vec} ; {self.form})"


def pairing(e1: Section, e2: Section) -> Form:
    """Symmetric pairing <X + a, Y + b> = (i_X b + i_Y a) / 2, an (n-1)-form."""
    e1._check_ctx(e2)
    return HALF * (i_vec(e1.vec, e2.form) + i_vec(e2.vec, e1.form))


def dorfman_form(e1: Section, e2: Section) -> Form:
    """Form part L_X b - i_Y da of the Dorfman bracket of e1 = X + a and e2 = Y + b.

    By the Cartan formula this is L_X b - L_Y a + d i_Y a, with one Lie
    derivative instead of two; the test oracles build that form.
    """
    e1._check_ctx(e2)
    return lie_form(e1.vec, e2.form) - i_vec(e2.vec, ext_d(e1.form))


def dorfman_bracket(e1: Section, e2: Section) -> Section:
    """Non-skew bracket [X,Y] + L_X b - i_Y da."""
    form = dorfman_form(e1, e2)
    return Section(e1.ctx, vec_bracket(e1.vec, e2.vec), form)


def courant_bracket(e1: Section, e2: Section) -> Section:
    """Skew bracket [X,Y] + L_X b - L_Y a + (d i_Y a - d i_X b) / 2 = Dorfman - d<e1,e2>."""
    return dorfman_bracket(e1, e2).add_form(-ext_d(pairing(e1, e2)))


def anchor(e: Section) -> MultiVec:
    """Projection onto the vector field part."""
    return e.vec


def t_map(e1: Section, e2: Section, e3: Section) -> Form:
    """Cyclic pairing defect T = -(<[e1,e2], e3> + c.p.) / 3, an (n-1)-form."""
    total = pairing(courant_bracket(e1, e2), e3)
    total = total + pairing(courant_bracket(e2, e3), e1)
    total = total + pairing(courant_bracket(e3, e1), e2)
    return Fraction(-1, 3) * total


def deformed_dorfman(e1: Section, e2: Section, theta: Form) -> Section:
    """Dorfman bracket twisted by an (n+2)-form: add i_{X ^ Y} theta."""
    n = e1.ctx.n
    if theta.degree != n + 2:
        raise InputError(f"deformation form must have degree n+2={n + 2}, got {theta.degree}")
    base = dorfman_bracket(e1, e2)
    twist = contract_vec_into_form(wedge(e1.vec, e2.vec), theta)
    return base.add_form(twist)


def gauge(phi: Form, e: Section) -> Section:
    """Shear X + a -> X + a + i_X phi for an (n+1)-form phi."""
    n = e.ctx.n
    if phi.degree != n + 1:
        raise InputError(f"gauge form must have degree n+1={n + 1}, got {phi.degree}")
    return e.add_form(i_vec(e.vec, phi))


def random_section(rng: random.Random, ctx: Context) -> Section:
    return Section(
        ctx,
        random_multivec(rng, ctx.m, 1),
        random_form(rng, ctx.m, ctx.n),
    )


# -- check reporting ----------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    """One counterexample: the inputs that produced it and the nonzero residual."""

    inputs: tuple[str, ...]
    residual: str


@dataclass
class CheckResult:
    """Outcome of one seeded identity check with counterexample witnesses."""

    name: str
    identity: str
    cases: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, inputs, residual) -> None:
        self.cases += 1
        if not residual.is_zero:
            self.failures.append(Failure(tuple(str(v) for v in inputs), str(residual)))

    def record_verdict(self, inputs, agree: bool, note: str) -> None:
        self.cases += 1
        if not agree:
            self.failures.append(Failure(tuple(str(v) for v in inputs), note))

    def record_iff(self, inputs, left: tuple[str, CheckResult], right: tuple[str, CheckResult]):
        """One case that passes iff the two (label, check) pairs both pass or both fail."""
        (left_label, left_check), (right_label, right_check) = left, right
        note = f"{left_label}={left_check.passed} {right_label}={right_check.passed}"
        self.record_verdict(inputs, left_check.passed == right_check.passed, note)


def cases(seed: int, samples: int, draw, exhaustive=()):
    """Cases of one sweep: the exhaustive cases in order, then `samples` draws draw(rng)
    from one Random seeded with seed.  Refuses samples < 1 at the call, before any draw."""
    if samples < 1:
        raise InputError("samples must be at least 1")
    rng = random.Random(seed)
    return chain(exhaustive, (draw(rng) for _ in range(samples)))


def sweep_checks(table, sweep, residuals) -> list[CheckResult]:
    """One CheckResult per (name, identity) row of table.  For each case of sweep,
    residuals(*case) yields one (inputs, residual) pair per row, in table order;
    a generator that yields more or fewer pairs than table has rows raises ValueError.
    Tables hold only strings and generators look their brackets up when they run,
    so rebinding a module's names (as bench/tracer.py does) reaches every bracket."""
    checks = [CheckResult(name, identity) for name, identity in table]
    for case in sweep:
        for check, (inputs, residual) in zip(checks, residuals(*case), strict=True):
            check.record(inputs, residual)
    return checks


def leibniz_residual(bracket, a, b, c, ab, ac):
    """[a,[b,c]] - ([[a,b],c] + [b,[a,c]]) for any bracket, given ab = [a,b] and ac = [a,c]."""
    return bracket(a, bracket(b, c)) - (bracket(ab, c) + bracket(b, ac))


def scalar_residual(bracket, anchor, a, b, f, ab):
    """[a, f*b] - (f*[a,b] + anchor(a)(f)*b) for any bracket, given ab = [a,b]."""
    return bracket(a, f * b) - (f * ab + vec_apply(anchor(a), f) * b)


def anchor_residual(anchor, a, b, ab):
    """anchor([a,b]) - [anchor(a), anchor(b)], given ab = [a,b]."""
    return anchor(ab) - vec_bracket(anchor(a), anchor(b))


def _random_sections(ctx: Context, k: int, rng: random.Random) -> tuple[Section, ...]:
    return tuple(random_section(rng, ctx) for _ in range(k))


def _axiom_case(ctx: Context, rng: random.Random):
    """Three random sections e1, e2, e3 and a random scalar f."""
    return (*_random_sections(ctx, 3, rng), random_poly(rng, ctx.m))


COURANT_AXIOMS = (
    ("jacobiator_exact_term", "[e1,[e2,e3]] + cyclic = d T(e1,e2,e3)"),
    ("scalar_rule", "[e1, f*e2] = f*[e1,e2] + rho(e1)(f)*e2 - df ^ <e1,e2>"),
    ("anchor_morphism", "rho([e1,e2]) = [rho(e1), rho(e2)]"),
    (
        "pairing_compat",
        "L_rho(e1)<e2,e3> = <[e1,e2] + d<e1,e2>, e3> + <e2, [e1,e3] + d<e1,e3>>",
    ),
)


def _courant_residuals(e1, e2, e3, f):
    e12 = courant_bracket(e1, e2)
    lhs = (
        courant_bracket(e1, courant_bracket(e2, e3))
        + courant_bracket(e2, courant_bracket(e3, e1))
        + courant_bracket(e3, e12)
    )
    yield (e1, e2, e3), lhs - Section.of_form(e1.ctx, ext_d(t_map(e1, e2, e3)))
    correction = Section.of_form(e1.ctx, wedge(d_scalar(f), pairing(e1, e2)))
    yield (e1, e2, f), scalar_residual(courant_bracket, anchor, e1, e2, f, e12) + correction
    yield (e1, e2), anchor_residual(anchor, e1, e2, e12)
    lhs = lie_form(anchor(e1), pairing(e2, e3))
    rhs = pairing(e12.add_form(ext_d(pairing(e1, e2))), e3)
    rhs = rhs + pairing(e2, courant_bracket(e1, e3).add_form(ext_d(pairing(e1, e3))))
    yield (e1, e2, e3), lhs - rhs


def check_courant_axioms(ctx: Context, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Exact residual checks for the Courant-bracket identities on seeded sections."""
    sweep = cases(seed, samples, partial(_axiom_case, ctx))
    return sweep_checks(COURANT_AXIOMS, sweep, _courant_residuals)


DORFMAN_AXIOMS = (
    ("leibniz_identity", "[e1,[e2,e3]] = [[e1,e2],e3] + [e2,[e1,e3]]"),
    ("scalar_rule_left", "[e1, f*e2] = f*[e1,e2] + rho(e1)(f)*e2"),
    ("scalar_rule_right", "[f*e1, e2] = f*[e1,e2] - rho(e2)(f)*e1 + df ^ 2<e1,e2>"),
    ("pairing_compat", "L_rho(e1)<e2,e3> = <[e1,e2], e3> + <e2, [e1,e3]>"),
    ("anchor_morphism", "rho([e1,e2]) = [rho(e1), rho(e2)]"),
)


def _dorfman_residuals(e1, e2, e3, f):
    e12 = dorfman_bracket(e1, e2)
    e13 = dorfman_bracket(e1, e3)
    yield (e1, e2, e3), leibniz_residual(dorfman_bracket, e1, e2, e3, e12, e13)
    yield (e1, e2, f), scalar_residual(dorfman_bracket, anchor, e1, e2, f, e12)
    rhs = f * e12 - vec_apply(e2.vec, f) * e1
    rhs = rhs + Section.of_form(e1.ctx, wedge(d_scalar(f), 2 * pairing(e1, e2)))
    yield (e1, e2, f), dorfman_bracket(f * e1, e2) - rhs
    lhs = lie_form(anchor(e1), pairing(e2, e3))
    yield (e1, e2, e3), lhs - (pairing(e12, e3) + pairing(e2, e13))
    yield (e1, e2), anchor_residual(anchor, e1, e2, e12)


def check_dorfman_axioms(ctx: Context, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Exact residual checks for the Dorfman-bracket identities on seeded sections."""
    sweep = cases(seed, samples, partial(_axiom_case, ctx))
    return sweep_checks(DORFMAN_AXIOMS, sweep, _dorfman_residuals)


DEFORMED_LEIBNIZ = (
    ("deformed_leibniz", "[e1,[e2,e3]]_theta = [[e1,e2],e3]_theta + [e2,[e1,e3]]_theta"),
)


def _leibniz_residuals(bracket, e1, e2, e3):
    yield (e1, e2, e3), leibniz_residual(bracket, e1, e2, e3, bracket(e1, e2), bracket(e1, e3))


def check_deformation(
    ctx: Context, theta: Form, seed: int = 0, samples: int = 25
) -> list[CheckResult]:
    """Verify that the theta-twisted bracket obeys Leibniz exactly when d theta = 0.

    The Leibniz sweep always includes every triple of constant coordinate
    vector sections, which is what makes a non-closed theta fail
    deterministically rather than by luck of the sampler.
    """
    if theta.degree != ctx.n + 2:
        raise InputError(f"deformation form must have degree n+2={ctx.n + 2}")
    coordinate = [Section.of_vec(ctx, MultiVec.basis(ctx.m, (i,))) for i in range(1, ctx.m + 1)]
    sweep = cases(seed, samples, partial(_random_sections, ctx, 3), product(coordinate, repeat=3))
    closed = CheckResult("theta_closed", "d theta = 0")
    closed.record((theta,), ext_d(theta))
    bracket = partial(deformed_dorfman, theta=theta)
    [leibniz] = sweep_checks(DEFORMED_LEIBNIZ, sweep, partial(_leibniz_residuals, bracket))
    agreement = CheckResult(
        "closed_iff_leibniz", "the twisted bracket obeys Leibniz iff d theta = 0"
    )
    agreement.record_iff((theta,), ("d-closed", closed), ("leibniz", leibniz))
    return [closed, leibniz, agreement]


GAUGE = (
    ("gauge_intertwiner", "gauge(phi)[e1,e2]_{d phi} = [gauge(phi)e1, gauge(phi)e2]"),
    ("gauge_automorphism", "d phi = 0: gauge(phi)[e1,e2] = [gauge(phi)e1, gauge(phi)e2]"),
)


def _gauge_residuals(phi, dphi, e1, e2):
    residual = gauge(phi, deformed_dorfman(e1, e2, dphi)) - dorfman_bracket(gauge(phi, e1), gauge(phi, e2))
    yield (e1, e2), residual
    if dphi.is_zero:
        # the twist by d phi = 0 adds nothing, so this is the same residual
        yield (e1, e2), residual


def check_gauge_isomorphism(
    ctx: Context, phi: Form, seed: int = 0, samples: int = 25
) -> list[CheckResult]:
    """Verify the gauge shear intertwines the d(phi)-twisted and plain brackets."""
    if phi.degree != ctx.n + 1:
        raise InputError(f"gauge form must have degree n+1={ctx.n + 1}")
    sweep = cases(seed, samples, partial(_random_sections, ctx, 2))
    dphi = ext_d(phi)
    table = GAUGE if dphi.is_zero else GAUGE[:1]
    return sweep_checks(table, sweep, partial(_gauge_residuals, phi, dphi))
