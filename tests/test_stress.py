"""Charts beyond the everyday matrix: minimal, wide, and cubic-coefficient runs.

Slower than the rest of the suite but kept within a few seconds per
test; these exist to catch sign or degree bookkeeping that only shows
up at higher bracket order or chart dimension.
"""

import random
from itertools import combinations

from hicourant.courant import (
    Section,
    check_courant_axioms,
    check_deformation,
    check_dorfman_axioms,
    courant_bracket,
    dorfman_bracket,
    random_section,
    t_map,
)
from hicourant.exterior import Context, Form, MultiVec, ext_d
from hicourant.nambu import NambuCandidate, graph_closure_check, np_fundamental_check
from hicourant.scalar import Poly, monomials_up_to


def test_minimal_chart_axioms():
    ctx = Context(1, 1)
    for result in check_courant_axioms(ctx, seed=31, samples=8) + check_dorfman_axioms(
        ctx, seed=31, samples=8
    ):
        assert result.passed, (result.name, result.failures[:1])


def test_wide_chart_axioms():
    for m, n in [(5, 2), (5, 3)]:
        ctx = Context(m, n)
        for result in check_courant_axioms(ctx, seed=31, samples=3) + check_dorfman_axioms(
            ctx, seed=31, samples=3
        ):
            assert result.passed, (m, n, result.name, result.failures[:1])


def test_desk_scale_limit_leibniz():
    ctx = Context(6, 4)
    rng = random.Random(64)
    for _ in range(3):
        e1 = random_section(rng, ctx)
        e2 = random_section(rng, ctx)
        e3 = random_section(rng, ctx)
        lhs = dorfman_bracket(e1, dorfman_bracket(e2, e3))
        rhs = dorfman_bracket(dorfman_bracket(e1, e2), e3) + dorfman_bracket(
            e2, dorfman_bracket(e1, e3)
        )
        assert (lhs - rhs).is_zero


def cubic_tensor(cls, rng, m, degree):
    """A seeded tensor drawn as exterior.random_form draws one, but with
    coefficients of total degree <= 3."""
    coeffs = {}
    for idx in combinations(range(1, m + 1), degree):
        if rng.random() < 0.75:
            terms = {
                exps: rng.choice((-3, -2, -1, 1, 2, 3))
                for exps in monomials_up_to(m, 3)
                if rng.random() < 0.25
            }
            if terms:
                coeffs[idx] = Poly(m, terms)
    return cls(m, degree, coeffs)


def cubic_section(rng, ctx):
    return Section(ctx, cubic_tensor(MultiVec, rng, ctx.m, 1), cubic_tensor(Form, rng, ctx.m, ctx.n))


def test_cubic_coefficients():
    ctx = Context(3, 2)
    rng = random.Random(77)
    for _ in range(10):
        e1 = cubic_section(rng, ctx)
        e2 = cubic_section(rng, ctx)
        e3 = cubic_section(rng, ctx)
        lhs = dorfman_bracket(e1, dorfman_bracket(e2, e3))
        rhs = dorfman_bracket(dorfman_bracket(e1, e2), e3) + dorfman_bracket(
            e2, dorfman_bracket(e1, e3)
        )
        assert (lhs - rhs).is_zero
        jacobiator = (
            courant_bracket(e1, courant_bracket(e2, e3))
            + courant_bracket(e2, courant_bracket(e3, e1))
            + courant_bracket(e3, courant_bracket(e1, e2))
        )
        assert (jacobiator - Section.of_form(ctx, ext_d(t_map(e1, e2, e3)))).is_zero


def test_wide_deformation_biconditional():
    ctx = Context(5, 2)
    theta = Poly.var(5, 5) * Form.basis(5, (1, 2, 3, 4))
    closed, leibniz, agreement = check_deformation(ctx, theta, seed=3, samples=2)
    assert not closed.passed and not leibniz.passed and agreement.passed
    assert leibniz.failures


def test_higher_order_nambu_biconditional():
    positive = NambuCandidate(Context(5, 3), MultiVec.basis(5, (1, 2, 3, 4)))
    assert np_fundamental_check(positive).passed
    assert graph_closure_check(positive, seed=4, samples=4).passed
    negative = NambuCandidate(
        Context(5, 3),
        MultiVec.basis(5, (1, 2, 3, 4)) + Poly.var(5, 2) * MultiVec.basis(5, (2, 3, 4, 5)),
    )
    fundamental = np_fundamental_check(negative)
    closure = graph_closure_check(negative, seed=4, samples=4)
    assert not fundamental.passed and fundamental.failures
    assert not closure.passed and closure.failures
