"""Pairing, Courant/Dorfman brackets, deformations, gauge shears."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hicourant import courant
from hicourant.courant import (
    CheckResult,
    Section,
    anchor,
    cases,
    check_courant_axioms,
    check_deformation,
    check_dorfman_axioms,
    check_gauge_isomorphism,
    courant_bracket,
    deformed_dorfman,
    dorfman_bracket,
    gauge,
    pairing,
    random_section,
    t_map,
)
from hicourant.exterior import Context, Form, MultiVec, ext_d, i_vec
from hicourant.nambu import (
    NambuCandidate,
    check_nambu,
    graph_closure_check,
)
from hicourant.plectic import (
    PlecticCandidate,
    check_admissible_lie_algebroid,
    check_plectic,
)
from hicourant.scalar import ChartMismatchError, Poly

from oracles import oracle_courant, oracle_dorfman

CTX21 = Context(2, 1)
CTX32 = Context(3, 2)


def dx(m, *idx):
    return Form.basis(m, idx)


def dd(m, *idx):
    return MultiVec.basis(m, idx)


def var(m, i):
    return Poly.var(m, i)


def sec(ctx, vec=None, form=None):
    return Section(
        ctx,
        vec if vec is not None else MultiVec.zero(ctx.m, 1),
        form if form is not None else Form.zero(ctx.m, ctx.n),
    )


def test_pairing_examples():
    e1 = sec(CTX32, dd(3, 1), dx(3, 1, 2))
    e2 = sec(CTX32, dd(3, 2), dx(3, 2, 3))
    assert pairing(e1, e2) == Fraction(-1, 2) * dx(3, 1)
    e = sec(CTX32, dd(3, 1) + var(3, 2) * dd(3, 2), var(3, 1) * dx(3, 1, 3))
    assert pairing(e, e) == i_vec(e.vec, e.form)
    assert pairing(sec(CTX32, dd(3, 1)), sec(CTX32, form=dx(3, 1, 2))) == Fraction(1, 2) * dx(3, 2)


def test_pairing_context_mismatch():
    with pytest.raises(ChartMismatchError):
        pairing(sec(CTX21, dd(2, 1)), sec(CTX32, dd(3, 1)))


def test_courant_bracket_examples():
    rng = random.Random(3)
    e = random_section(rng, CTX32)
    assert courant_bracket(e, e).is_zero
    e1 = sec(CTX32, dd(3, 1))
    e2 = sec(CTX32, form=var(3, 1) * dx(3, 2, 3))
    assert courant_bracket(e1, e2) == sec(CTX32, form=dx(3, 2, 3))
    assert courant_bracket(sec(CTX21, dd(2, 1)), sec(CTX21, dd(2, 2))).is_zero


def test_dorfman_bracket_examples():
    e = sec(CTX21, dd(2, 1) + var(2, 2) * dd(2, 2), var(2, 1) * dx(2, 2))
    assert dorfman_bracket(e, e) == sec(CTX21, form=ext_d(i_vec(e.vec, e.form)))
    e1 = sec(CTX21, dd(2, 1), var(2, 2) * dx(2, 1))
    e2 = sec(CTX21, dd(2, 2))
    assert dorfman_bracket(e1, e2) == sec(CTX21, form=-dx(2, 1))
    e1 = sec(CTX32, dd(3, 1))
    e2 = sec(CTX32, dd(3, 2), var(3, 1) * dx(3, 2, 3))
    assert dorfman_bracket(e1, e2) == sec(CTX32, form=dx(3, 2, 3))


@pytest.mark.parametrize("ctx", [CTX21, CTX32, Context(2, 2)])
def test_dorfman_two_construction_routes_agree(ctx):
    # the textbook brackets, built on the Cartan-formula Lie derivative
    rng = random.Random(11)
    for _ in range(20):
        e1 = random_section(rng, ctx)
        e2 = random_section(rng, ctx)
        assert dorfman_bracket(e1, e2) == oracle_dorfman(e1, e2)
        assert courant_bracket(e1, e2) == oracle_courant(e1, e2)


@pytest.mark.parametrize("ctx", [CTX21, CTX32])
def test_courant_skew_and_dorfman_symmetrization(ctx):
    rng = random.Random(12)
    for _ in range(20):
        e1 = random_section(rng, ctx)
        e2 = random_section(rng, ctx)
        assert (courant_bracket(e1, e2) + courant_bracket(e2, e1)).is_zero
        sym = dorfman_bracket(e1, e2) + dorfman_bracket(e2, e1)
        assert sym == Section.of_form(ctx, 2 * ext_d(pairing(e1, e2)))


def test_t_map_examples():
    rng = random.Random(13)
    e = random_section(rng, CTX21)
    e3 = random_section(rng, CTX21)
    assert t_map(e, e, e3).is_zero
    assert t_map(
        sec(CTX32, dd(3, 1)), sec(CTX32, dd(3, 2)), sec(CTX32, dd(3, 3))
    ).is_zero
    # direct-formula oracle
    e1 = sec(CTX21, dd(2, 1), var(2, 2) * dx(2, 1))
    e2 = sec(CTX21, dd(2, 2))
    e3 = sec(CTX21, dd(2, 1))
    expected = Fraction(-1, 3) * (
        pairing(courant_bracket(e1, e2), e3)
        + pairing(courant_bracket(e2, e3), e1)
        + pairing(courant_bracket(e3, e1), e2)
    )
    assert t_map(e1, e2, e3) == expected


def test_anchor_examples():
    e = sec(CTX32, dd(3, 1), dx(3, 1, 2))
    assert anchor(e) == dd(3, 1)
    assert anchor(sec(CTX32, form=dx(3, 1, 2))).is_zero
    f = var(3, 2)
    assert anchor(f * e) == f * anchor(e)


def test_deformed_dorfman_examples():
    rng = random.Random(14)
    ctx = Context(3, 1)
    theta = dx(3, 1, 2, 3)
    e1 = random_section(rng, ctx)
    e2 = random_section(rng, ctx)
    assert deformed_dorfman(e1, e2, Form.zero(3, 3)) == dorfman_bracket(e1, e2)
    assert deformed_dorfman(sec(ctx, dd(3, 1)), sec(ctx, dd(3, 2)), theta) == sec(
        ctx, form=dx(3, 3)
    )
    assert deformed_dorfman(sec(ctx, dd(3, 1)), sec(ctx, dd(3, 1)), theta).is_zero
    with pytest.raises(ValueError):
        deformed_dorfman(e1, e2, dx(3, 1, 2))


def test_deformation_above_top_degree_is_plain():
    # at (4,3) every (n+2)-form exceeds the chart dimension, so twisting
    # degenerates to the plain bracket
    ctx = Context(4, 3)
    rng = random.Random(16)
    theta = Form.zero(4, 5)
    for _ in range(5):
        e1 = random_section(rng, ctx)
        e2 = random_section(rng, ctx)
        assert deformed_dorfman(e1, e2, theta) == dorfman_bracket(e1, e2)


def test_gauge_examples():
    ctx = Context(2, 1)
    phi = dx(2, 1, 2)
    assert gauge(phi, sec(ctx, dd(2, 1))) == sec(ctx, dd(2, 1), dx(2, 2))
    rng = random.Random(15)
    e = random_section(rng, ctx)
    assert gauge(Form.zero(2, 2), e) == e
    pure = sec(ctx, form=var(2, 1) * dx(2, 2))
    assert gauge(phi, pure) == pure
    with pytest.raises(ValueError):
        gauge(dx(2, 1), e)


def test_pairing_nondegeneracy_on_basis_sections():
    for ctx in (CTX21, CTX32):
        m, n = ctx.m, ctx.n
        basis = [sec(ctx, dd(m, j)) for j in range(1, m + 1)]
        basis += [sec(ctx, form=Form.basis(m, idx)) for idx in combinations(range(1, m + 1), n)]
        for e in basis:
            assert any(not pairing(e, other).is_zero for other in basis), str(e)


@pytest.mark.parametrize("ctx", [CTX21, CTX32])
def test_courant_axiom_suite_passes(ctx):
    results = check_courant_axioms(ctx, seed=7, samples=12)
    assert [r.name for r in results] == [
        "jacobiator_exact_term",
        "scalar_rule",
        "anchor_morphism",
        "pairing_compat",
    ]
    for result in results:
        assert result.passed, result.failures[:1]
        assert result.cases == 12


@pytest.mark.parametrize("ctx", [CTX21, Context(4, 3)])
def test_dorfman_axiom_suite_passes(ctx):
    samples = 12 if ctx.m < 4 else 6
    for result in check_dorfman_axioms(ctx, seed=7, samples=samples):
        assert result.passed, (result.name, result.failures[:1])


def test_constant_basis_sections_have_zero_residual():
    e1 = sec(CTX21, dd(2, 1))
    e2 = sec(CTX21, dd(2, 2))
    lhs = dorfman_bracket(e1, dorfman_bracket(e2, e1))
    rhs = dorfman_bracket(dorfman_bracket(e1, e2), e1) + dorfman_bracket(
        e2, dorfman_bracket(e1, e1)
    )
    assert (lhs - rhs).is_zero


def test_check_samples_validation():
    with pytest.raises(ValueError):
        check_courant_axioms(CTX21, seed=0, samples=0)
    with pytest.raises(ValueError):
        check_dorfman_axioms(CTX21, seed=0, samples=0)


NAMBU32 = NambuCandidate(Context(3, 2), MultiVec.basis(3, (1, 2, 3)))
PLECTIC31 = PlecticCandidate(Context(3, 1), Form.basis(3, (1, 2)))

# every library suite that draws seeded samples, called with a given sample count
SAMPLED_SUITES = {
    "courant_axioms": lambda s: check_courant_axioms(CTX21, samples=s),
    "dorfman_axioms": lambda s: check_dorfman_axioms(CTX21, samples=s),
    "deformation": lambda s: check_deformation(Context(3, 1), Form.zero(3, 3), samples=s),
    "gauge": lambda s: check_gauge_isomorphism(Context(3, 1), Form.zero(3, 2), samples=s),
    "nambu": lambda s: check_nambu(NAMBU32, samples=s),
    "nambu_graph_closure": lambda s: graph_closure_check(NAMBU32, samples=s),
    "plectic_graph_closure": lambda s: check_plectic(PLECTIC31, samples=s),
    "plectic_deformed_graph": lambda s: check_plectic(PLECTIC31, samples=s, theta=Form.zero(3, 3)),
    "admissible_lie_algebroid": lambda s: check_admissible_lie_algebroid(PLECTIC31, samples=s),
}


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("suite", sorted(SAMPLED_SUITES))
def test_every_sampled_suite_refuses_samples_below_one(suite, samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        SAMPLED_SUITES[suite](samples)


def test_cases_yield_exhaustive_cases_first_and_in_order():
    sweep = list(cases(3, 2, lambda rng: ("draw", rng.random()), product("ab", repeat=2)))
    assert sweep[:4] == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert [case[0] for case in sweep[4:]] == ["draw", "draw"]


def test_cases_draw_in_order_from_one_random_per_seed():
    def draw(rng):
        return random_section(rng, CTX21), random_section(rng, CTX21)

    rng = random.Random(7)
    expected = [draw(rng) for _ in range(3)]
    assert list(cases(7, 3, draw)) == expected
    assert list(cases(7, 3, draw)) == expected
    assert list(cases(8, 3, draw)) != expected


@pytest.mark.parametrize("samples", [0, -5])
def test_cases_refuse_samples_below_one_before_drawing(samples):
    drawn = []
    with pytest.raises(ValueError, match="samples must be at least 1"):
        cases(0, samples, drawn.append, [("exhaustive",)])
    assert drawn == []


def test_deformation_biconditional_panel():
    # a non-closed (n+2)-form needs m >= n+3, hence the (4,1) negatives
    x = [None] + [Poly.var(4, i) for i in range(1, 5)]
    panel = [
        (Context(3, 1), dx(3, 1, 2, 3), True),
        (Context(3, 1), Form.zero(3, 3), True),
        (Context(4, 1), x[1] * dx(4, 1, 2, 3), True),
        (Context(4, 1), dx(4, 2, 3, 4), True),
        (Context(4, 2), dx(4, 1, 2, 3, 4), True),
        (Context(4, 1), x[4] * dx(4, 1, 2, 3), False),
        (Context(4, 1), x[1] * dx(4, 2, 3, 4), False),
        (Context(4, 1), x[2] * dx(4, 1, 3, 4), False),
        (Context(4, 1), x[3] * dx(4, 1, 2, 4), False),
    ]
    for ctx, theta, expect_closed in panel:
        closed, leibniz, agreement = check_deformation(ctx, theta, seed=5, samples=4)
        assert closed.passed is expect_closed, str(theta)
        assert leibniz.passed is expect_closed, str(theta)
        assert agreement.passed
        if not expect_closed:
            assert leibniz.failures, "expected a concrete Leibniz witness"


X4 = Poly.var(4, 4)


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize(
    "ctx,theta",
    [
        (Context(3, 1), dx(3, 1, 2, 3)),
        (Context(4, 1), X4 * dx(4, 1, 2, 3)),
        (Context(4, 2), dx(4, 1, 2, 3, 4)),
    ],
    ids=["closed-m3n1", "open-m4n1", "closed-m4n2"],
)
def test_deformation_sweeps_every_coordinate_triple(ctx, theta, samples):
    # the m^3 constant coordinate triples make a non-closed theta fail deterministically
    closed, leibniz, agreement = check_deformation(ctx, theta, seed=2, samples=samples)
    assert leibniz.cases == ctx.m**3 + samples
    coordinate = {f"(@{i} ; 0)" for i in range(1, ctx.m + 1)}
    assert any(set(f.inputs) <= coordinate for f in leibniz.failures) is not closed.passed
    assert agreement.passed


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("ctx,theta", [(Context(3, 1), dx(3, 1, 2, 3)), (Context(4, 1), X4 * dx(4, 1, 2, 3))])
def test_deformation_builds_each_coordinate_inner_bracket_once(monkeypatch, ctx, theta, samples):
    calls = []
    real = courant.deformed_terms

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(courant, "deformed_terms", counted)
    check_deformation(ctx, theta, seed=2, samples=samples)
    # m^2 inner brackets, three outer ones per coordinate triple, and six per seeded draw
    assert len(calls) == ctx.m**2 + 3 * ctx.m**3 + 6 * samples


def _verdict(passed: bool) -> CheckResult:
    check = CheckResult("verdict", "p")
    check.record_verdict(("case",), passed, "note")
    return check


@pytest.mark.parametrize("left,right", product((True, False), repeat=2))
def test_record_iff_fails_exactly_when_the_two_checks_disagree(left, right):
    verdicts = ("left", _verdict(left)), ("right", _verdict(right))
    agreement = CheckResult.iff("iff", "left iff right", ("input",), *verdicts)
    assert agreement.cases == 1
    assert agreement.passed is (left == right)
    if left != right:
        note = f"left={left} right={right}"
        assert [(f.inputs, f.residual) for f in agreement.failures] == [(("input",), note)]


def test_gauge_isomorphism_fixtures():
    fixtures = [
        (Context(3, 1), var(3, 3) * dx(3, 1, 2)),
        (Context(3, 1), dx(3, 1, 2)),
        (Context(3, 2), var(3, 1) * dx(3, 1, 2, 3)),
        (Context(3, 1), Form.zero(3, 2)),
    ]
    for ctx, phi in fixtures:
        results = check_gauge_isomorphism(ctx, phi, seed=5, samples=8)
        for result in results:
            assert result.passed, (str(phi), result.name)
        closed = ext_d(phi).is_zero
        assert (len(results) == 2) is closed


def test_gauge_automorphism_restates_a_failing_intertwiner(monkeypatch):
    plain = courant.dorfman_terms
    # drop the form part of every Dorfman bracket, so the intertwiner fails on some pairs
    monkeypatch.setattr(courant, "dorfman_terms", lambda e1, e2, scale=1: (plain(e1, e2, scale)[0], ()))
    ctx = Context(3, 1)
    intertwiner, automorphism = check_gauge_isomorphism(ctx, dx(3, 1, 2), seed=0, samples=4)
    assert (intertwiner.name, automorphism.name) == ("gauge_intertwiner", "gauge_automorphism")
    assert intertwiner.cases == automorphism.cases == 4
    assert len(intertwiner.failures) == 2
    assert automorphism.failures == intertwiner.failures
    assert automorphism.failures is not intertwiner.failures
    not_closed = check_gauge_isomorphism(ctx, var(3, 3) * dx(3, 1, 2), seed=0, samples=4)
    assert [r.name for r in not_closed] == ["gauge_intertwiner"]
