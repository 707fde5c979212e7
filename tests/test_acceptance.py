"""Acceptance gate: every criterion at its stated sample count and budget.

Each test prints one PASS line; every algebraic check is an exact
zero-residual test over rational polynomial coefficients, never a float
tolerance.
"""

import json
import random
import subprocess
import sys
import time

from hicourant.courant import (
    Section,
    check_deformation,
    courant_bracket,
    dorfman_bracket,
    gauge,
    deformed_dorfman,
    pairing,
    random_section,
    t_map,
)
from hicourant.dsl import parse, render
from hicourant.exterior import (
    Context,
    Form,
    MultiVec,
    ext_d,
    i_vec,
    lie_form,
    random_form,
    random_multivec,
    random_poly,
)
from hicourant.nambu import (
    NambuCandidate,
    check_nambu,
    graph_closure_check,
    leibniz_nm1_bracket,
    nambu_form_bracket,
    np_fundamental_check,
)
from hicourant.plectic import (
    AdmissiblePair,
    PlecticCandidate,
    admissible_bracket,
    check_admissible_lie_algebroid,
    check_plectic,
    hemi_bracket,
    semi_bracket,
)
from hicourant.scalar import Poly

from oracles import hamiltonian_pairs, kind_of, oracle_lie_form

CONTEXTS = [Context(2, 1), Context(3, 1), Context(3, 2), Context(4, 3)]


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds
        self.cases = 0
        self.start = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.start
        print(f"ACCEPTANCE {self.label}: PASS ({self.cases} cases, {elapsed:.1f}s < {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.label} exceeded its {self.seconds}s budget"


def dx(m, *idx):
    return Form.basis(m, idx)


def dd(m, *idx):
    return MultiVec.basis(m, idx)


def var(m, i):
    return Poly.var(m, i)


def test_criterion_01_dorfman_leibniz_identity():
    budget = Budget("01 dorfman-leibniz", 30)
    for ctx in CONTEXTS:
        rng = random.Random(101)
        for _ in range(100):
            e1 = random_section(rng, ctx)
            e2 = random_section(rng, ctx)
            e3 = random_section(rng, ctx)
            lhs = dorfman_bracket(e1, dorfman_bracket(e2, e3))
            rhs = dorfman_bracket(dorfman_bracket(e1, e2), e3) + dorfman_bracket(
                e2, dorfman_bracket(e1, e3)
            )
            assert (lhs - rhs).is_zero, (ctx, str(e1), str(e2), str(e3))
            budget.cases += 1
    budget.finish()


def test_criterion_02_courant_jacobiator_exact_term():
    budget = Budget("02 courant-jacobiator", 30)
    for ctx in CONTEXTS:
        rng = random.Random(102)
        for _ in range(50):
            e1 = random_section(rng, ctx)
            e2 = random_section(rng, ctx)
            e3 = random_section(rng, ctx)
            jacobiator = (
                courant_bracket(e1, courant_bracket(e2, e3))
                + courant_bracket(e2, courant_bracket(e3, e1))
                + courant_bracket(e3, courant_bracket(e1, e2))
            )
            expected = Section.of_form(ctx, ext_d(t_map(e1, e2, e3)))
            assert (jacobiator - expected).is_zero, (ctx, str(e1), str(e2), str(e3))
            budget.cases += 1
    budget.finish()


def test_criterion_03_pairing_compatibility():
    budget = Budget("03 pairing-compatibility", 10)
    for ctx in CONTEXTS:
        rng = random.Random(103)
        for _ in range(50):
            e1 = random_section(rng, ctx)
            e2 = random_section(rng, ctx)
            e3 = random_section(rng, ctx)
            lhs = lie_form(e1.vec, pairing(e2, e3))
            rhs = pairing(dorfman_bracket(e1, e2), e3) + pairing(e2, dorfman_bracket(e1, e3))
            assert lhs == rhs, (ctx, str(e1), str(e2), str(e3))
            budget.cases += 1
    budget.finish()


def test_criterion_04_deformation_biconditional():
    budget = Budget("04 deformation-biconditional", 20)
    x = [None] + [var(4, i) for i in range(1, 5)]
    closed_panel = [
        (Context(3, 1), dx(3, 1, 2, 3)),
        (Context(3, 1), Form.zero(3, 3)),
        (Context(4, 1), x[1] * dx(4, 1, 2, 3)),
        (Context(4, 1), dx(4, 2, 3, 4)),
        (Context(4, 2), dx(4, 1, 2, 3, 4)),
    ]
    open_panel = [
        (Context(4, 1), x[4] * dx(4, 1, 2, 3)),
        (Context(4, 1), x[1] * dx(4, 2, 3, 4)),
        (Context(4, 1), x[2] * dx(4, 1, 3, 4)),
        (Context(4, 1), x[3] * dx(4, 1, 2, 4)),
    ]
    assert len(closed_panel) >= 4 and len(open_panel) >= 4
    for expect_closed, panel in ((True, closed_panel), (False, open_panel)):
        for ctx, theta in panel:
            closed, leibniz, agreement = check_deformation(ctx, theta, seed=104, samples=5)
            assert closed.passed is expect_closed, str(theta)
            assert leibniz.passed is expect_closed, str(theta)
            assert agreement.passed, str(theta)
            budget.cases += closed.cases + leibniz.cases + agreement.cases
    budget.finish()


def test_criterion_05_gauge_identity():
    budget = Budget("05 gauge-identity", 10)
    fixtures = [
        (Context(3, 1), var(3, 3) * dx(3, 1, 2)),  # non-closed
        (Context(3, 1), dx(3, 1, 2)),
        (Context(3, 2), var(3, 1) * dx(3, 1, 2, 3)),
    ]
    assert any(not ext_d(phi).is_zero for _, phi in fixtures)
    for ctx, phi in fixtures:
        rng = random.Random(105)
        dphi = ext_d(phi)
        for _ in range(50):
            e1 = random_section(rng, ctx)
            e2 = random_section(rng, ctx)
            lhs = gauge(phi, deformed_dorfman(e1, e2, dphi))
            rhs = dorfman_bracket(gauge(phi, e1), gauge(phi, e2))
            assert (lhs - rhs).is_zero, (str(phi), str(e1), str(e2))
            budget.cases += 1
    budget.finish()


NP_PANEL = [
    ("normal_form", NambuCandidate(Context(3, 2), dd(3, 1, 2, 3)), True),
    ("scaled_x1", NambuCandidate(Context(3, 2), var(3, 1) * dd(3, 1, 2, 3)), True),
    ("scaled_x1x2", NambuCandidate(Context(3, 2), (var(3, 1) * var(3, 2)) * dd(3, 1, 2, 3)), True),
    (
        "scaled_quadratic",
        NambuCandidate(Context(3, 2), (Poly.const(3, 1) + var(3, 1) * var(3, 1)) * dd(3, 1, 2, 3)),
        True,
    ),
    # The decomposition @2^@3^(x1*@1 + @4) has pairwise commuting factors,
    # so this member satisfies the criterion; the sweep certifies it below.
    (
        "commuting_frame",
        NambuCandidate(Context(4, 2), var(4, 1) * dd(4, 1, 2, 3) + dd(4, 2, 3, 4)),
        True,
    ),
    (
        "noninvolutive_x2",
        NambuCandidate(Context(4, 2), dd(4, 1, 2, 3) + var(4, 2) * dd(4, 2, 3, 4)),
        False,
    ),
    (
        "noninvolutive_x3",
        NambuCandidate(Context(4, 2), var(4, 3) * dd(4, 1, 2, 3) + dd(4, 2, 3, 4)),
        False,
    ),
]


def test_criterion_06_nambu_biconditional():
    budget = Budget("06 nambu-biconditional", 60)
    for label, candidate, expected in NP_PANEL:
        fundamental = np_fundamental_check(candidate)
        # certification: negatives are only negatives if the sweep exhibits
        # a nonzero residual, never by assumption
        assert fundamental.passed is expected, label
        if not expected:
            assert fundamental.failures, label
        closure = graph_closure_check(candidate, seed=106, samples=10)
        assert closure.passed is expected, label
        assert fundamental.passed == closure.passed, label
        budget.cases += fundamental.cases + closure.cases
    budget.finish()


def test_criterion_07_induced_leibniz_structures():
    budget = Budget("07 induced-leibniz", 30)
    members = [c for _, c, ok in NP_PANEL if ok][:3] + [
        NambuCandidate(Context(3, 1), dd(3, 1, 2))
    ]
    for candidate in members:
        for result in check_nambu(candidate, seed=107, samples=13):
            assert result.passed, (result.name, result.failures[:1])
            budget.cases += result.cases
        # d{xi,eta}_pi = [d xi, d eta]_pi on the same sampling budget
        ctx = candidate.ctx
        rng = random.Random(107)
        for _ in range(13):
            xi = random_form(rng, ctx.m, ctx.n - 1)
            eta = random_form(rng, ctx.m, ctx.n - 1)
            lhs = ext_d(leibniz_nm1_bracket(candidate, xi, eta))
            rhs = nambu_form_bracket(candidate, ext_d(xi), ext_d(eta))
            assert lhs == rhs
            budget.cases += 1
    budget.finish()


def test_criterion_08_multisymplectic_closure_panels():
    budget = Budget("08 multisymplectic-closure", 20)
    panel = [
        PlecticCandidate(Context(3, 2), dx(3, 1, 2, 3)),
        PlecticCandidate(Context(4, 1), dx(4, 1, 2) + dx(4, 3, 4)),
        PlecticCandidate(Context(3, 1), var(3, 1) * dx(3, 1, 2)),
        PlecticCandidate(Context(3, 1), var(3, 1) * dx(3, 2, 3)),  # non-closed
        PlecticCandidate(Context(4, 1), var(4, 4) * dx(4, 1, 2)),  # non-closed
    ]
    for candidate in panel:
        expect_closed = ext_d(candidate.omega).is_zero
        # matched deformation must always restore closure
        checks = check_plectic(candidate, seed=108, samples=8, theta=-ext_d(candidate.omega))
        closed, closure, isotropy, agreement, matched, twisted, twisted_agreement = checks[1:]
        assert closed.passed is expect_closed
        assert closure.passed is expect_closed
        assert isotropy.passed  # exact isotropy on every sampled graph pair
        assert agreement.passed
        budget.cases += closure.cases + isotropy.cases
        assert matched.passed and twisted.passed and twisted_agreement.passed
        budget.cases += twisted.cases
        if not expect_closed:
            zero = Form.zero(candidate.ctx.m, candidate.ctx.n + 2)
            mismatched = check_plectic(candidate, seed=108, samples=8, theta=zero)[5:]
            assert not mismatched[0].passed and not mismatched[1].passed
            assert mismatched[2].passed
            budget.cases += mismatched[1].cases
    budget.finish()


def test_criterion_09_admissible_lie_algebroid():
    budget = Budget("09 admissible-algebroid", 30)
    fixtures = [
        PlecticCandidate(Context(3, 2), dx(3, 1, 2, 3)),
        PlecticCandidate(Context(4, 1), dx(4, 1, 2) + dx(4, 3, 4)),
    ]
    for candidate in fixtures:
        for result in check_admissible_lie_algebroid(candidate, seed=109, samples=50):
            assert result.passed, (result.name, result.failures[:1])
            assert result.cases >= 50
            budget.cases += result.cases
    budget.finish()


def test_criterion_10_hemi_semi_bracket_identities():
    budget = Budget("10 hemi-semi-brackets", 15)
    # ordered pairs of monomial potentials of degree <= 2: by bilinearity, all such potentials
    fixtures = [
        (PlecticCandidate(Context(3, 2), dx(3, 1, 2, 3)), 900),
        (PlecticCandidate(Context(4, 1), dx(4, 1, 2) + dx(4, 3, 4)), 225),
    ]

    def exact_term(X, form):
        if form.degree == 0:
            return Form.zero(form.m, 0)
        return ext_d(i_vec(X, form))

    for candidate, count in fixtures:
        for p, q in hamiltonian_pairs(candidate, count):
            hemi = hemi_bracket(candidate, p, q)
            semi = semi_bracket(candidate, p, q)
            da = AdmissiblePair(candidate, ext_d(p.xi), p.x_xi)
            db = AdmissiblePair(candidate, ext_d(q.xi), q.x_xi)
            assert ext_d(hemi) == admissible_bracket(candidate, da, db).alpha
            assert semi == hemi - exact_term(p.x_xi, q.xi)
            symmetrized = hemi + hemi_bracket(candidate, q, p)
            assert symmetrized == exact_term(p.x_xi, q.xi) + exact_term(q.x_xi, p.xi)
            budget.cases += 1
    budget.finish()


def test_criterion_11_infrastructure():
    budget = Budget("11 infrastructure", 30)
    # DSL round-trip on 500 seeded values
    rng = random.Random(111)
    from hicourant.courant import random_section as rand_sec

    for _ in range(500):
        m = rng.choice((2, 3, 4))
        ctx = Context(m, rng.randint(1, m))
        pick = rng.random()
        if pick < 0.25:
            value = random_poly(rng, m)
        elif pick < 0.5:
            value = random_form(rng, m, rng.randint(0, m))
        elif pick < 0.75:
            value = random_multivec(rng, m, rng.randint(0, m))
        else:
            value = rand_sec(rng, ctx)
        assert parse(render(value), ctx, kind_of(value)) == value
        budget.cases += 1
    # component-formula Lie derivative vs the oracle's Cartan formula
    for _ in range(200):
        m = rng.choice((2, 3, 4))
        a = random_form(rng, m, rng.randint(0, m))
        X = random_multivec(rng, m, 1)
        assert lie_form(X, a) == oracle_lie_form(X, a)
        budget.cases += 1
    # CLI determinism across the whole suite matrix
    matrix = [
        ("courant-axioms", "-m", "2", "-n", "1", "--samples", "5"),
        ("dorfman-axioms", "-m", "2", "-n", "1", "--samples", "5"),
        ("deformation", "-m", "3", "-n", "1", "--theta", "dx1^dx2^dx3", "--samples", "3"),
        ("gauge", "-m", "3", "-n", "1", "--phi", "x3*dx1^dx2", "--samples", "3"),
        ("nambu", "-m", "3", "-n", "2", "--pi", "@1^@2^@3", "--samples", "3"),
        ("plectic", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--samples", "3"),
        ("admissible", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--samples", "3"),
    ]
    for row in matrix:
        args = [sys.executable, "-m", "hicourant.cli", "check", row[0], *row[1:], "--seed", "17", "--json"]
        first = subprocess.run(args, capture_output=True, text=True)
        second = subprocess.run(args, capture_output=True, text=True)
        assert first.stdout == second.stdout and first.stdout, row[0]
        json.loads(first.stdout)
        budget.cases += 1
    budget.finish()
