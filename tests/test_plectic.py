"""Multisymplectic checks, admissible/Hamiltonian solves, form brackets."""

import random
from fractions import Fraction

import pytest

from hicourant import plectic
from hicourant.courant import Section, deformed_dorfman, dorfman_bracket, gauge, random_section
from hicourant.exterior import (
    Context,
    Form,
    MultiVec,
    ext_d,
    i_vec,
    lie_form,
    random_multivec,
    random_point,
    vec_bracket,
)
from hicourant.plectic import (
    AdmissiblePair,
    HamiltonianPair,
    InconsistentCandidateError,
    NotClosedError,
    PlecticCandidate,
    UnsupportedSolveError,
    admissible_bracket,
    RANK_POINTS,
    check_admissible_lie_algebroid,
    check_plectic,
    hemi_bracket,
    nondegeneracy_check,
    omega_flat,
    semi_bracket,
    solve_admissible,
    solve_hamiltonian,
)
from hicourant.scalar import InputError, Poly

from oracles import hamiltonian_pairs, oracle_lie_form, oracle_vec_bracket


def dx(m, *idx):
    return Form.basis(m, idx)


def dd(m, *idx):
    return MultiVec.basis(m, idx)


def var(m, i):
    return Poly.var(m, i)


VOLUME32 = PlecticCandidate(Context(3, 2), dx(3, 1, 2, 3))
SYMPLECTIC41 = PlecticCandidate(Context(4, 1), dx(4, 1, 2) + dx(4, 3, 4))
DEGENERATE31 = PlecticCandidate(Context(3, 1), dx(3, 1, 2))
NONCLOSED31 = PlecticCandidate(Context(3, 1), var(3, 1) * dx(3, 2, 3))


def exact_term(X, form):
    # i_X of a 0-form has no slot, so the exact term drops for n = 1
    if form.degree == 0:
        return Form.zero(form.m, 0)
    return ext_d(i_vec(X, form))


def test_omega_flat_examples():
    assert omega_flat(VOLUME32, dd(3, 1)) == dx(3, 2, 3)
    assert omega_flat(VOLUME32, dd(3, 2)) == -dx(3, 1, 3)
    assert omega_flat(VOLUME32, MultiVec.zero(3, 1)).is_zero


ORIGIN3 = [(Fraction(0), Fraction(0), Fraction(0))]
ORIGIN4 = [(Fraction(0), Fraction(0), Fraction(0), Fraction(0))]


def test_nondegeneracy_constant_cases():
    # constant omega gets one exact global rank verdict; the points are
    # still required by contract but do not enter the computation
    assert nondegeneracy_check(VOLUME32, ORIGIN3).passed
    result = nondegeneracy_check(DEGENERATE31, ORIGIN3)
    assert not result.passed
    assert result.failures[0].residual == "@3"
    assert nondegeneracy_check(SYMPLECTIC41, ORIGIN4).passed


def test_nondegeneracy_pointwise():
    points = [(Fraction(1), Fraction(2), Fraction(3)), (Fraction(0), Fraction(1), Fraction(1))]
    result = nondegeneracy_check(NONCLOSED31, points)
    assert result.name == "nondegeneracy_at_points"
    assert not result.passed  # @1 is always in the kernel of x1*dx2^dx3
    for candidate in (NONCLOSED31, VOLUME32):
        with pytest.raises(InputError, match="^at least one evaluation point is required$"):
            nondegeneracy_check(candidate, [])


def graph_checks(candidate, seed, samples, theta=None):
    """check_plectic without its leading rank check."""
    return check_plectic(candidate, seed, samples, theta)[1:]


def test_graph_closure_fixtures():
    closed, closure, isotropy, agreement = graph_checks(VOLUME32, seed=3, samples=8)
    assert closed.passed and closure.passed and isotropy.passed and agreement.passed

    closed, closure, isotropy, agreement = graph_checks(NONCLOSED31, seed=3, samples=8)
    assert not closed.passed
    assert not closure.passed and closure.failures
    assert isotropy.passed  # isotropy holds for any omega
    assert agreement.passed

    zero = PlecticCandidate(Context(3, 1), Form.zero(3, 2))
    results = graph_checks(zero, seed=3, samples=4)
    assert all(r.passed for r in results)


def test_deformed_graph_fixtures():
    theta = -dx(3, 1, 2, 3)
    matched, closure, agreement = graph_checks(NONCLOSED31, 3, 6, theta)[4:]
    assert matched.passed and closure.passed and agreement.passed

    matched, closure, agreement = graph_checks(NONCLOSED31, 3, 6, Form.zero(3, 3))[4:]
    assert not matched.passed and not closure.passed and agreement.passed

    matched, closure, agreement = graph_checks(VOLUME32, 3, 6, Form.zero(3, 4))[4:]
    assert matched.passed and closure.passed and agreement.passed

    with pytest.raises(InputError, match="^deformation form must have degree n\\+2=4$"):
        check_plectic(VOLUME32, seed=0, samples=2, theta=dx(3, 1, 2))


def test_check_plectic_refuses_theta_then_samples_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work before the refusal")

    for name in ("nondegeneracy_check", "omega_flat", "ext_d"):
        monkeypatch.setattr(plectic, name, no_work)
    with pytest.raises(InputError, match="^deformation form must have degree n\\+2=3$"):
        check_plectic(NONCLOSED31, samples=0, theta=dx(3, 1, 2))
    with pytest.raises(InputError, match="^samples must be at least 1$"):
        check_plectic(NONCLOSED31, samples=0, theta=dx(3, 1, 2, 3))


def test_check_plectic_with_theta_starts_with_the_checks_without_it():
    for candidate, theta in [
        (NONCLOSED31, -dx(3, 1, 2, 3)),
        (NONCLOSED31, Form.zero(3, 3)),
        (SYMPLECTIC41, Form.zero(4, 3)),
    ]:
        plain = check_plectic(candidate, seed=5, samples=4)
        twisted = check_plectic(candidate, seed=5, samples=4, theta=theta)
        assert [c.name for c in twisted] == [c.name for c in plain] + [
            "omega_theta_matched", "deformed_graph_closure", "deformed_closure_iff_matched"
        ]
        assert twisted[:5] == plain


def test_deformed_graph_closure_sweeps_the_same_pairs_as_graph_closure():
    for samples in (1, 6):
        checks = {c.name: c for c in check_plectic(NONCLOSED31, 3, samples, Form.zero(3, 3))}
        # all 3 x 3 coordinate pairs, then the seeded pairs
        assert checks["deformed_graph_closure"].cases == checks["graph_closure"].cases == 9 + samples


def test_check_plectic_rank_is_nondegeneracy_at_the_seeded_rank_points():
    for seed in (0, 7):
        rng = random.Random(seed)
        points = [random_point(rng, 3) for _ in range(RANK_POINTS)]
        rank = check_plectic(NONCLOSED31, seed=seed, samples=1)[0]
        assert rank.name == "nondegeneracy_at_points"
        assert rank == nondegeneracy_check(NONCLOSED31, points)
        assert rank.cases == RANK_POINTS


def test_gauge_untwists_matched_deformation():
    # d omega + theta = 0 makes gauge(-omega) intertwine twisted and plain brackets
    theta = -ext_d(NONCLOSED31.omega)
    rng = random.Random(23)
    for _ in range(10):
        e1 = random_section(rng, NONCLOSED31.ctx)
        e2 = random_section(rng, NONCLOSED31.ctx)
        lhs = gauge(-NONCLOSED31.omega, deformed_dorfman(e1, e2, theta))
        rhs = dorfman_bracket(gauge(-NONCLOSED31.omega, e1), gauge(-NONCLOSED31.omega, e2))
        assert lhs == rhs


def test_solve_admissible_examples():
    pair = solve_admissible(VOLUME32, dx(3, 2, 3))
    assert pair.x_alpha == dd(3, 1)
    pair = solve_admissible(VOLUME32, var(3, 1) * dx(3, 2, 3))
    assert pair.x_alpha == var(3, 1) * dd(3, 1)
    assert solve_admissible(DEGENERATE31, dx(3, 3)) is None
    with pytest.raises(UnsupportedSolveError):
        solve_admissible(NONCLOSED31, dx(3, 2))
    with pytest.raises(ValueError):
        solve_admissible(VOLUME32, dx(3, 1))


def test_admissible_pair_invariant_checked():
    with pytest.raises(ValueError):
        AdmissiblePair(VOLUME32, dx(3, 2, 3), dd(3, 2))
    AdmissiblePair(VOLUME32, dx(3, 2, 3), dd(3, 1))


def test_pairs_that_break_their_equation_are_inconsistent_candidates():
    with pytest.raises(InconsistentCandidateError, match="pair is not admissible"):
        AdmissiblePair(VOLUME32, dx(3, 2, 3), dd(3, 2))
    with pytest.raises(InconsistentCandidateError, match="pair is not Hamiltonian"):
        HamiltonianPair(VOLUME32, var(3, 3) * dx(3, 2), dd(3, 1))


def test_admissible_bracket_examples():
    a = solve_admissible(VOLUME32, dx(3, 2, 3))
    b = solve_admissible(VOLUME32, -dx(3, 1, 3))
    out = admissible_bracket(VOLUME32, a, b)
    assert out.alpha.is_zero and out.x_alpha.is_zero

    same = admissible_bracket(VOLUME32, a, a)
    assert same.alpha.is_zero and same.x_alpha.is_zero

    field_a = var(4, 2) * dd(4, 1)
    field_b = dd(4, 2)
    pa = AdmissiblePair(SYMPLECTIC41, omega_flat(SYMPLECTIC41, field_a), field_a)
    pb = AdmissiblePair(SYMPLECTIC41, omega_flat(SYMPLECTIC41, field_b), field_b)
    out = admissible_bracket(SYMPLECTIC41, pa, pb)
    assert out.x_alpha == -dd(4, 1)
    assert out.alpha == omega_flat(SYMPLECTIC41, -dd(4, 1)) == -dx(4, 2)


CLOSED_POLY41 = PlecticCandidate(
    Context(4, 1), SYMPLECTIC41.omega + ext_d(var(4, 1) * var(4, 3) * dx(4, 2))
)


@pytest.mark.parametrize(
    "candidate", [VOLUME32, SYMPLECTIC41, CLOSED_POLY41], ids=["volume32", "symplectic41", "poly41"]
)
def test_admissible_bracket_matches_textbook_formula(candidate):
    # L_{X_a} b - L_{X_b} a - d i_{X_a} i_{X_b} omega, Lie derivatives by the Cartan formula
    rng = random.Random(19)
    for _ in range(10):
        xa = random_multivec(rng, candidate.ctx.m, 1)
        xb = random_multivec(rng, candidate.ctx.m, 1)
        a = AdmissiblePair(candidate, omega_flat(candidate, xa), xa)
        b = AdmissiblePair(candidate, omega_flat(candidate, xb), xb)
        form = oracle_lie_form(xa, b.alpha) - oracle_lie_form(xb, a.alpha)
        form = form - ext_d(i_vec(xa, i_vec(xb, candidate.omega)))
        out = admissible_bracket(candidate, a, b)
        assert out.alpha == form
        assert out.x_alpha == oracle_vec_bracket(xa, xb)


@pytest.mark.parametrize("candidate", [VOLUME32, SYMPLECTIC41], ids=["volume32", "symplectic41"])
def test_admissible_lie_algebroid_suite(candidate):
    for result in check_admissible_lie_algebroid(candidate, seed=9, samples=8):
        assert result.passed, (result.name, result.failures[:1])


def test_admissible_suite_refuses_nonclosed():
    with pytest.raises(NotClosedError):
        check_admissible_lie_algebroid(NONCLOSED31, seed=0, samples=2)


def test_wrong_admissible_bracket_fails_anchor_property_with_a_witness(monkeypatch):
    # [X,Y] + L_X b + i_Y da: the sign of i_Y da flipped
    def flipped_dorfman(e1, e2):
        form = lie_form(e1.vec, e2.form) + i_vec(e2.vec, ext_d(e1.form))
        return Section(e1.ctx, vec_bracket(e1.vec, e2.vec), form)

    monkeypatch.setattr(plectic, "dorfman_bracket", flipped_dorfman)
    checks = {check.name: check for check in check_admissible_lie_algebroid(SYMPLECTIC41, 9, 4)}
    anchor = checks["anchor_property"]
    assert anchor.cases == 4
    assert not anchor.passed
    assert len(anchor.failures[0].inputs) == 2
    assert anchor.failures[0].residual != "0"


def test_bracket_breach_reports_inconsistent_candidate():
    # for a non-closed omega the bracket of valid pairs can leave the
    # admissible bundle, which the result invariant must catch
    from hicourant.plectic import InconsistentCandidateError

    a = AdmissiblePair(NONCLOSED31, omega_flat(NONCLOSED31, dd(3, 2)), dd(3, 2))
    b = AdmissiblePair(NONCLOSED31, omega_flat(NONCLOSED31, dd(3, 3)), dd(3, 3))
    with pytest.raises(InconsistentCandidateError):
        admissible_bracket(NONCLOSED31, a, b)


def test_hamiltonian_solve_and_brackets_fixture():
    xi = var(3, 3) * dx(3, 2)
    eta = var(3, 1) * dx(3, 3)
    p = solve_hamiltonian(VOLUME32, xi)
    q = solve_hamiltonian(VOLUME32, eta)
    assert p.x_xi == -dd(3, 1)
    assert q.x_xi == -dd(3, 2)
    assert hemi_bracket(VOLUME32, p, q) == -dx(3, 3)
    assert semi_bracket(VOLUME32, p, q) == -dx(3, 3)
    assert semi_bracket(VOLUME32, p, p).is_zero
    constant = HamiltonianPair(VOLUME32, dx(3, 2), MultiVec.zero(3, 1))
    assert hemi_bracket(VOLUME32, constant, p).is_zero


def test_hamiltonian_brackets_refuse_pairs_of_another_structure():
    doubled = PlecticCandidate(Context(3, 2), 2 * dx(3, 1, 2, 3))
    p = solve_hamiltonian(doubled, var(3, 3) * dx(3, 2))
    q = solve_hamiltonian(doubled, var(3, 1) * dx(3, 3))
    assert semi_bracket(doubled, p, q) == Fraction(-1, 2) * dx(3, 3)
    for bracket in (hemi_bracket, semi_bracket):
        for pair in ((p, q), (p, solve_hamiltonian(VOLUME32, var(3, 1) * dx(3, 3)))):
            with pytest.raises(ValueError, match="both pairs must belong to this structure"):
                bracket(VOLUME32, *pair)


def test_hamiltonian_iff_admissible_differential():
    xi = var(3, 1) * var(3, 3)  # scalar potential for the degenerate fixture
    zero_d = Form(3, 0, {(): Poly.const(3, 5)})
    assert solve_hamiltonian(DEGENERATE31, zero_d) is not None  # d(const) = 0 solves with X = 0
    bad = Form(3, 0, {(): xi})  # d has a dx3 component outside the image
    assert solve_hamiltonian(DEGENERATE31, bad) is None
    assert solve_admissible(DEGENERATE31, ext_d(bad)) is None


@pytest.mark.parametrize(
    "candidate,count", [(VOLUME32, 900), (SYMPLECTIC41, 225)], ids=["volume32", "symplectic41"]
)
def test_hemi_semi_identities(candidate, count):
    # every identity is R-bilinear in (xi, eta), so this sweep covers all potentials of degree <= 2
    for p, q in hamiltonian_pairs(candidate, count):
        hemi = hemi_bracket(candidate, p, q)
        semi = semi_bracket(candidate, p, q)
        da = AdmissiblePair(candidate, ext_d(p.xi), p.x_xi)
        db = AdmissiblePair(candidate, ext_d(q.xi), q.x_xi)
        bracket = admissible_bracket(candidate, da, db)
        # d{xi,eta}_h = [d xi, d eta]_w, which also equals d L_{X_xi} eta
        assert ext_d(hemi) == bracket.alpha
        assert bracket.alpha == ext_d(lie_form(p.x_xi, q.xi))
        # {xi,eta}_s = {xi,eta}_h - d i_{X_xi} eta
        assert semi == hemi - exact_term(p.x_xi, q.xi)
        # symmetrization is exact
        lhs = hemi + hemi_bracket(candidate, q, p)
        assert lhs == exact_term(p.x_xi, q.xi) + exact_term(q.x_xi, p.xi)
        # semi-bracket antisymmetry
        assert semi == -semi_bracket(candidate, q, p)
