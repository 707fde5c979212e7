"""Nambu-Poisson criterion, graph closure, and the induced form brackets."""

import random
from functools import reduce
from itertools import combinations
from math import comb

import pytest

from hicourant import nambu
from hicourant.courant import Section, courant_bracket, dorfman_bracket
from hicourant.exterior import (
    Context,
    Form,
    MultiVec,
    contract_form_into_vec,
    d_scalar,
    ext_d,
    full_pair,
    i_vec,
    lie_form,
    lie_multivec,
    random_form,
    vec_bracket,
    wedge,
)
from hicourant.nambu import (
    LEIBNIZ_ALGEBROID,
    NambuCandidate,
    check_nambu,
    graph_closure_check,
    leibniz_nm1_bracket,
    marrero_bracket,
    nambu_form_bracket,
    np_fundamental_check,
    pi_sharp,
)
from hicourant.scalar import Poly, monomials_up_to

from oracles import oracle_lie_form


def dx(m, *idx):
    return Form.basis(m, idx)


def dd(m, *idx):
    return MultiVec.basis(m, idx)


def var(m, i):
    return Poly.var(m, i)


NORMAL_FORM = NambuCandidate(Context(3, 2), dd(3, 1, 2, 3))


def scaled_normal(f):
    return NambuCandidate(Context(3, 2), f * dd(3, 1, 2, 3))


# The decomposability of the positive m=4 members is checkable by hand:
# d123 + d234 = @2^@3^(@1+@4) and x1*d123 + d234 = @2^@3^(x1*@1+@4), and
# in each case the three factors commute pairwise, so both are genuinely
# Nambu-Poisson; the brute-force sweep below certifies exactly that.  The
# negative members wedge a coefficient onto a direction that breaks the
# involutivity of the span, and the sweep certifies a nonzero residual.
PANEL = [
    ("normal_form", NORMAL_FORM, True),
    ("scaled_x1", scaled_normal(var(3, 1)), True),
    ("scaled_x1x2", scaled_normal(var(3, 1) * var(3, 2)), True),
    ("scaled_1_plus_x1sq", scaled_normal(Poly.const(3, 1) + var(3, 1) * var(3, 1)), True),
    ("sum_decomposable", NambuCandidate(Context(4, 2), dd(4, 1, 2, 3) + dd(4, 2, 3, 4)), True),
    (
        "sum_decomposable_scaled",
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


SWEPT_PAIRS_PANEL = PANEL[:1] + PANEL[4:7]


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("label,candidate,expected", SWEPT_PAIRS_PANEL, ids=[p[0] for p in SWEPT_PAIRS_PANEL])
def test_graph_closure_sweeps_every_basis_pair(label, candidate, expected, samples):
    # the C(m,n)^2 ordered pairs of constant basis n-forms make a failure deterministic
    ctx = candidate.ctx
    check = graph_closure_check(candidate, seed=4, samples=samples)
    assert check.cases == comb(ctx.m, ctx.n) ** 2 + samples
    assert check.passed is expected
    closure = check_nambu(candidate, seed=4, samples=samples)[1]
    assert (closure.name, closure.cases) == ("graph_closure_dorfman", check.cases)


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("candidate", [p[1] for p in SWEPT_PAIRS_PANEL], ids=[p[0] for p in SWEPT_PAIRS_PANEL])
def test_graph_closure_builds_each_basis_section_once(monkeypatch, candidate, samples):
    calls = []
    real = nambu.pi_sharp

    def counted(c, xi):
        calls.append(xi)
        return real(c, xi)

    monkeypatch.setattr(nambu, "pi_sharp", counted)
    graph_closure_check(candidate, seed=4, samples=samples)
    # one pi# contraction per basis n-form, and two per seeded pair
    assert len(calls) == comb(candidate.ctx.m, candidate.ctx.n) + 2 * samples


def test_pi_sharp_examples():
    assert pi_sharp(NORMAL_FORM, dx(3, 2, 3)) == dd(3, 1)
    assert pi_sharp(NORMAL_FORM, var(3, 1) * dx(3, 2, 3)) == var(3, 1) * dd(3, 1)
    sparse = NambuCandidate(Context(4, 2), dd(4, 1, 2, 3))
    assert pi_sharp(sparse, dx(4, 2, 4)).is_zero
    with pytest.raises(ValueError):
        pi_sharp(NORMAL_FORM, dx(3, 1))


@pytest.mark.parametrize("label,candidate,expected", PANEL, ids=[p[0] for p in PANEL])
def test_fundamental_identity_panel(label, candidate, expected):
    result = np_fundamental_check(candidate)
    assert result.passed is expected
    if not expected:
        assert result.failures, "negative members need a certified witness tuple"


@pytest.mark.parametrize("label,candidate,expected", PANEL, ids=[p[0] for p in PANEL])
def test_graph_closure_matches_fundamental_identity(label, candidate, expected):
    closure = graph_closure_check(candidate, seed=5, samples=8)
    assert closure.passed is expected
    if not expected:
        assert closure.failures


def test_zero_tensor_graph_is_closed():
    zero = NambuCandidate(Context(3, 2), MultiVec.zero(3, 3))
    assert graph_closure_check(zero, seed=0, samples=4).passed
    assert np_fundamental_check(zero).passed


def courant_graph_closed(c, seed, samples):
    """The pair sweep of graph_closure_check, bracketed with the Courant bracket."""
    m, n = c.ctx.m, c.ctx.n
    rng = random.Random(seed)
    basis = [Form.basis(m, idx) for idx in combinations(range(1, m + 1), n)]
    pairs = [(a, b) for a in basis for b in basis]
    pairs += [(random_form(rng, m, n), random_form(rng, m, n)) for _ in range(samples)]
    for a, b in pairs:
        out = courant_bracket(Section(c.ctx, pi_sharp(c, a), a), Section(c.ctx, pi_sharp(c, b), b))
        if out.vec != pi_sharp(c, out.form):
            return False
    return True


@pytest.mark.parametrize(
    "candidate",
    [NORMAL_FORM, scaled_normal(var(3, 1)), PANEL[4][1], PANEL[6][1]],
    ids=["normal", "scaled", "decomposable4", "negative"],
)
def test_courant_and_dorfman_closure_agree(candidate):
    dorfman = graph_closure_check(candidate, seed=6, samples=8)
    assert dorfman.passed == courant_graph_closed(candidate, seed=6, samples=8)


@pytest.mark.parametrize("label,candidate,expected", PANEL, ids=[p[0] for p in PANEL])
def test_form_bracket_matches_textbook_formula(label, candidate, expected):
    # L_{pi#a} b - L_{pi#b} a + d i_{pi#b} a, Lie derivatives by the Cartan formula
    m, n = candidate.ctx.m, candidate.ctx.n
    rng = random.Random(23)
    for _ in range(10):
        a = random_form(rng, m, n)
        b = random_form(rng, m, n)
        xa = pi_sharp(candidate, a)
        xb = pi_sharp(candidate, b)
        textbook = oracle_lie_form(xa, b) - oracle_lie_form(xb, a) + ext_d(i_vec(xb, a))
        assert nambu_form_bracket(candidate, a, b) == textbook


def test_graph_closure_residual_formula():
    # residual compares the bracket of graph sections against the graph
    c = PANEL[6][1]
    a = dx(4, 1, 3)
    b = dx(4, 2, 3)
    e1 = Section(c.ctx, pi_sharp(c, a), a)
    e2 = Section(c.ctx, pi_sharp(c, b), b)
    out = dorfman_bracket(e1, e2)
    assert out.vec != pi_sharp(c, out.form)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 1)])
def test_sharp_intertwines_lie_and_bracket(m, n):
    # pi#(L_{pi#a} b) = [pi#a, pi#b] + (-1)^n <pi, da> pi#(b)
    # pi#(i_{pi#a} d b) = (-1)^n <pi, db> pi#(a)
    if (m, n) == (3, 2):
        pi = dd(3, 1, 2, 3)
    elif (m, n) == (4, 2):
        pi = dd(4, 1, 2, 3) + dd(4, 2, 3, 4)
    else:
        pi = dd(3, 1, 2)
    c = NambuCandidate(Context(m, n), pi)
    sign = (-1) ** n
    rng = random.Random(77)
    for _ in range(15):
        a = random_form(rng, m, n)
        b = random_form(rng, m, n)
        xa = pi_sharp(c, a)
        xb = pi_sharp(c, b)
        lhs = contract_form_into_vec(lie_form(xa, b), pi)
        rhs = vec_bracket(xa, xb) + (sign * full_pair(pi, ext_d(a))) * xb
        assert lhs == rhs
        lhs = contract_form_into_vec(i_vec(xa, ext_d(b)), pi)
        rhs = (sign * full_pair(pi, ext_d(b))) * xa
        assert lhs == rhs


def test_form_bracket_examples():
    c = NORMAL_FORM
    a = var(3, 1) * dx(3, 2, 3)
    b = -dx(3, 1, 3)  # dx3 ^ dx1
    assert nambu_form_bracket(c, a, b).is_zero
    rng = random.Random(21)
    alpha = random_form(rng, 3, 2)
    self_bracket = nambu_form_bracket(c, alpha, alpha)
    assert self_bracket == ext_d(i_vec(pi_sharp(c, alpha), alpha))
    assert nambu_form_bracket(c, dx(3, 1, 2), dx(3, 2, 3)).is_zero


def test_marrero_bracket_examples():
    c = NORMAL_FORM
    b = dx(3, 2, 3)
    closed = dx(3, 1, 2)
    assert marrero_bracket(c, closed, b) == lie_form(pi_sharp(c, closed), b)
    a = var(3, 1) * dx(3, 2, 3)
    assert marrero_bracket(c, a, b) == -b
    rng = random.Random(22)
    for _ in range(10):
        a = random_form(rng, 3, 2)
        b = random_form(rng, 3, 2)
        lhs = contract_form_into_vec(marrero_bracket(c, a, b), c.pi)
        rhs = vec_bracket(pi_sharp(c, a), pi_sharp(c, b))
        assert lhs == rhs


def test_nm1_bracket_examples():
    c = NORMAL_FORM
    xi = var(3, 1) * dx(3, 2)
    eta = var(3, 3) * dx(3, 2)
    assert leibniz_nm1_bracket(c, xi, eta) == dx(3, 2)
    assert leibniz_nm1_bracket(c, dx(3, 2), eta).is_zero
    rng = random.Random(23)
    for _ in range(10):
        xi = random_form(rng, 3, 1)
        eta = random_form(rng, 3, 1)
        lhs = ext_d(leibniz_nm1_bracket(c, xi, eta))
        rhs = nambu_form_bracket(c, ext_d(xi), ext_d(eta))
        assert lhs == rhs


NAMBU_ROWS = ["fundamental_identity", "graph_closure_dorfman", "closure_iff_fundamental"]
ALGEBROID_ROWS = [name for name, _ in LEIBNIZ_ALGEBROID]


@pytest.mark.parametrize(
    "candidate",
    [NORMAL_FORM, scaled_normal(var(3, 1)), PANEL[4][1]],
    ids=["normal", "scaled", "decomposable4"],
)
def test_leibniz_algebroid_suite(candidate):
    results = check_nambu(candidate, seed=8, samples=8)
    assert [r.name for r in results[3:]] == ALGEBROID_ROWS
    for result in results:
        assert result.passed, (result.name, result.failures[:1])


def test_poisson_bivector_recovers_cotangent_algebroid():
    c = NambuCandidate(Context(3, 1), dd(3, 1, 2))
    results = check_nambu(c, seed=9, samples=10)
    assert [r.name for r in results[3:]] == ALGEBROID_ROWS
    for result in results:
        assert result.passed, result.name


def test_non_nambu_candidate_refused():
    """A tensor that fails the fundamental identity gets no algebroid rows."""
    assert [r.name for r in check_nambu(PANEL[6][1], seed=0, samples=2)] == NAMBU_ROWS


def fundamental_verdict_at_degree(c, degree):
    """Whether L_{pi#(df1^...^dfn)} pi vanishes on every n-tuple of distinct monomials
    of total degree 1..degree, each wedge built from scratch."""
    m = c.ctx.m
    monomials = [Poly(m, {exps: 1}) for exps in monomials_up_to(m, degree) if any(exps)]
    for fs in combinations(monomials, c.ctx.n):
        if not lie_multivec(pi_sharp(c, reduce(wedge, map(d_scalar, fs))), c.pi).is_zero:
            return False
    return True


# constant and not decomposable, so not Nambu-Poisson; a sweep of degree 1 misses it
NOT_DECOMPOSABLE_52 = NambuCandidate(Context(5, 2), dd(5, 1, 2, 3) + dd(5, 3, 4, 5))


def test_degree_two_sweep_fails_where_degree_one_passes():
    assert fundamental_verdict_at_degree(NOT_DECOMPOSABLE_52, 1)
    fundamental = np_fundamental_check(NOT_DECOMPOSABLE_52)
    assert (fundamental.cases, len(fundamental.failures)) == (190, 76)
    assert [r.name for r in check_nambu(NOT_DECOMPOSABLE_52, seed=0, samples=1)] == NAMBU_ROWS


DEGREE_THREE_PANEL = [(label, c) for label, c, _ in PANEL] + [
    ("noninvolutive_x1_m4", NambuCandidate(Context(4, 2), dd(4, 1, 2, 3) + var(4, 1) * dd(4, 1, 2, 4))),
    ("not_decomposable_m5", NOT_DECOMPOSABLE_52),
]


@pytest.mark.parametrize("label,candidate", DEGREE_THREE_PANEL, ids=[p[0] for p in DEGREE_THREE_PANEL])
def test_degree_three_sweep_gives_the_degree_two_verdict(label, candidate):
    # the identity depends only on 2-jets, so monomials of degree 3 can change nothing
    assert fundamental_verdict_at_degree(candidate, 3) is np_fundamental_check(candidate).passed
