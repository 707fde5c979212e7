"""Alternating tensor calculus: frozen examples, invariants, oracle cross-checks."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

from hicourant import exterior
from hicourant.exterior import (
    Context,
    Form,
    MultiVec,
    collect,
    contract_form_into_vec,
    contract_terms,
    contract_vec_into_form,
    ext_d,
    ext_d_terms,
    full_pair,
    i_vec,
    lie_form,
    lie_multivec,
    lie_terms,
    random_form,
    random_multivec,
    random_poly,
    vec_apply,
    vec_bracket,
    wedge,
)
from hicourant.scalar import MAX_EXPONENT, ChartMismatchError, ExponentBoundError, Poly, monomials_up_to

from oracles import (
    oracle_contract_form_into_vec,
    oracle_contract_vec_into_form,
    oracle_ext_d,
    oracle_full_pair,
    oracle_i_vec,
    oracle_lie_form,
    oracle_lie_multivec,
    oracle_vec_bracket,
    oracle_wedge,
    sort_sign,
)


def dx(m, *idx):
    return Form.basis(m, idx)


def dd(m, *idx):
    return MultiVec.basis(m, idx)


def var(m, i):
    return Poly.var(m, i)


def test_context_validation():
    Context(3, 2)
    with pytest.raises(ValueError):
        Context(3, 0)
    with pytest.raises(ValueError):
        Context(3, 4)
    with pytest.raises(ValueError):
        Context(0, 0)


def sign_rule_mismatches(m):
    """The index pairs of 1..m on which exterior's _merge_indices or _split_sign, as bound
    now, disagree with the permutation-parity oracle."""
    increasing = [I for k in range(m + 1) for I in combinations(range(1, m + 1), k)]
    wrong = []
    for I in increasing:
        for J in increasing:
            merged = None if set(I) & set(J) else (sort_sign(I + J), tuple(sorted(I + J)))
            if exterior._merge_indices(I, J) != merged:
                wrong.append(("merge", I, J))
            rest = tuple(j for j in J if j not in I)
            split = (sort_sign(I + rest), rest) if set(I) <= set(J) else None
            if exterior._split_sign(I, J) != split:
                wrong.append(("split", I, J))
    return wrong


def test_sign_rules_match_the_permutation_parity_oracle():
    for m in range(1, 6):
        assert sign_rule_mismatches(m) == []


@pytest.mark.parametrize("rule", ["_merge_indices", "_split_sign"])
def test_a_sign_rule_flipped_on_two_slot_indices_fails_the_oracle(monkeypatch, rule):
    original = getattr(exterior, rule)

    def flipped(left, right):
        hit = original(left, right)
        return hit if hit is None or len(left) != 2 else (-hit[0], hit[1])

    monkeypatch.setattr(exterior, rule, flipped)
    assert sign_rule_mismatches(3) != []


def test_wedge_examples():
    assert wedge(dx(3, 1), dx(3, 2)) == dx(3, 1, 2)
    assert wedge(dx(3, 2), dx(3, 1)) == -dx(3, 1, 2)
    assert wedge(var(3, 1) * dx(3, 1) + dx(3, 2), dx(3, 1)) == -dx(3, 1, 2)


def test_wedge_variance_mismatch():
    with pytest.raises(TypeError):
        wedge(dx(3, 1), dd(3, 2))


def test_i_vec_examples():
    assert i_vec(dd(3, 2), dx(3, 1, 2)) == -dx(3, 1)
    assert i_vec(dd(3, 1), dx(3, 1, 2, 3)) == dx(3, 2, 3)
    scalar = Form(3, 0, {(): var(3, 1)})
    assert i_vec(dd(3, 1), scalar) == Form.zero(3, 0)


def test_contract_form_into_vec_examples():
    assert contract_form_into_vec(dx(3, 2, 3), dd(3, 1, 2, 3)) == dd(3, 1)
    full = contract_form_into_vec(dx(3, 1, 2, 3), dd(3, 1, 2, 3))
    assert full == MultiVec(3, 0, {(): Poly.const(3, 1)})
    assert contract_form_into_vec(dx(4, 1, 2), dd(4, 1, 3, 4)).is_zero
    with pytest.raises(ValueError):
        contract_form_into_vec(dx(3, 1, 2), dd(3, 1))


def test_contract_vec_into_form_examples():
    assert contract_vec_into_form(dd(3, 1, 2), dx(3, 1, 2, 3)) == dx(3, 3)
    assert contract_vec_into_form(dd(3, 1, 2), dx(3, 1, 2)) == Form(3, 0, {(): Poly.const(3, 1)})
    assert contract_vec_into_form(dd(4, 3, 4), dx(4, 1, 2)).is_zero
    with pytest.raises(ValueError):
        contract_vec_into_form(dd(3, 1, 2), dx(3, 1))


def test_ext_d_examples():
    assert ext_d(var(3, 1) * dx(3, 2)) == dx(3, 1, 2)
    assert ext_d(dx(3, 1, 2)).is_zero
    f = Form(3, 0, {(): var(3, 1) * var(3, 2)})
    assert ext_d(ext_d(f)).is_zero


def test_lie_form_examples():
    assert lie_form(dd(3, 2), var(3, 2) * dx(3, 1)) == dx(3, 1)
    assert lie_form(dd(3, 1), dx(3, 1, 2)).is_zero
    assert lie_form(var(3, 1) * dd(3, 1), dx(3, 1)) == dx(3, 1)


def test_lie_multivec_examples():
    assert lie_multivec(dd(3, 1), dd(3, 1, 2, 3)).is_zero
    assert lie_multivec(var(3, 1) * dd(3, 1), dd(3, 1, 2)) == -dd(3, 1, 2)
    assert lie_multivec(MultiVec.zero(3, 1), dd(3, 1, 2)).is_zero


def test_vec_bracket_examples():
    assert vec_bracket(dd(3, 1), dd(3, 2)).is_zero
    assert vec_bracket(var(3, 1) * dd(3, 1), dd(3, 1)) == -dd(3, 1)
    X = var(3, 2) * dd(3, 1) + dd(3, 3)
    assert vec_bracket(X, X).is_zero


# every operator with two tensor operands (or a field and a function), on charts 3 and 4
MISMATCHED_CHARTS = {
    "wedge": lambda: wedge(Form.zero(3, 1), Form.zero(4, 1)),
    "add": lambda: MultiVec.zero(3, 1) + MultiVec.zero(4, 1),
    "i_vec": lambda: i_vec(MultiVec.zero(3, 1), Form.zero(4, 2)),
    "contract_form_into_vec": lambda: contract_form_into_vec(Form.zero(3, 1), MultiVec.zero(4, 2)),
    "contract_vec_into_form": lambda: contract_vec_into_form(MultiVec.zero(3, 1), Form.zero(4, 2)),
    "full_pair": lambda: full_pair(MultiVec.zero(3, 2), Form.zero(4, 2)),
    "lie_form": lambda: lie_form(MultiVec.zero(3, 1), Form.zero(4, 2)),
    "lie_multivec": lambda: lie_multivec(MultiVec.zero(3, 1), MultiVec.zero(4, 2)),
    "vec_bracket": lambda: vec_bracket(MultiVec.zero(3, 1), MultiVec.zero(4, 1)),
    "vec_apply": lambda: vec_apply(MultiVec.zero(3, 1), Poly.zero(4)),
    "scale": lambda: Form.zero(3, 1) * Poly.zero(4),
}


@pytest.mark.parametrize("operator", sorted(MISMATCHED_CHARTS))
def test_operators_refuse_mismatched_charts_even_on_zero_operands(operator):
    with pytest.raises(ChartMismatchError):
        MISMATCHED_CHARTS[operator]()


def test_degree_above_dimension_is_zero():
    assert wedge(dx(2, 1, 2), dx(2, 1)).is_zero
    assert Form(2, 3).is_zero
    with pytest.raises(ValueError):
        Form(2, 3, {(1, 2, 3): 1})


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_oracle_cross_checks(m):
    rng = random.Random(1000 + m)
    pair_rng = random.Random(1100 + m)  # separate stream: the pairing operand shifts no other draw
    for _ in range(25):
        p = rng.randint(0, m)
        q = rng.randint(0, m)
        a = random_form(rng, m, p)
        b = random_form(rng, m, q)
        X = random_multivec(rng, m, 1)
        P = random_multivec(rng, m, rng.randint(0, m))
        assert wedge(a, b) == oracle_wedge(a, b)
        if p >= 1:
            assert i_vec(X, a) == oracle_i_vec(X, a)
        assert ext_d(a) == oracle_ext_d(a)
        if p <= P.degree:
            assert contract_form_into_vec(a, P) == oracle_contract_form_into_vec(a, P)
        if P.degree <= p:
            assert contract_vec_into_form(P, a) == oracle_contract_vec_into_form(P, a)
        assert lie_multivec(X, P) == oracle_lie_multivec(X, P)
        c = random_form(pair_rng, m, P.degree)
        assert full_pair(P, c) == oracle_full_pair(P, c)


def sparse_tensors(rng, cls, m, k):
    """A one-coefficient and a two-coefficient tensor of degree k, and a constant
    decomposable one: a wedge of k constant 1-tensors of one or two terms."""
    indices = list(combinations(range(1, m + 1), k))

    def coeff():
        return random_poly(rng, m) or Poly.var(m, rng.randint(1, m))

    yield cls(m, k, {rng.choice(indices): coeff()})
    if len(indices) > 1:
        yield cls(m, k, {idx: coeff() for idx in rng.sample(indices, 2)})
    factors = [
        cls(m, 1, {(i,): rng.choice((-2, 1, 3)) for i in rng.sample(range(1, m + 1), min(m, rng.randint(1, 2)))})
        for _ in range(k)
    ]
    yield reduce(wedge, factors, cls(m, 0, {(): Fraction(rng.choice((-1, 1, 2)))}))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lie_derivatives_match_oracles_on_sparse_tensors(m):
    # the Lie derivative scatters from T's nonzero coefficients, which the dense draws above rarely isolate
    rng = random.Random(9500 + m)
    for k in range(m + 1):
        for _ in range(3):
            X = random_multivec(rng, m, 1)
            for a in sparse_tensors(rng, Form, m, k):
                assert lie_form(X, a) == oracle_lie_form(X, a)
            for P in sparse_tensors(rng, MultiVec, m, k):
                assert lie_multivec(X, P) == oracle_lie_multivec(X, P)


def test_tensor_operators_refuse_exponents_past_the_bound():
    a = Poly(2, {(MAX_EXPONENT, 0): 1}) * dx(2, 1)
    with pytest.raises(ExponentBoundError):
        wedge(a, var(2, 1) * dx(2, 2))
    with pytest.raises(ExponentBoundError):
        lie_form(var(2, 1) * var(2, 1) * dd(2, 1), a)
    with pytest.raises(ExponentBoundError):
        a * var(2, 1)
    assert wedge(a, dx(2, 2)) == Poly(2, {(MAX_EXPONENT, 0): 1}) * dx(2, 1, 2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_term_streams_are_their_operators_scaled(m):
    rng = random.Random(9700 + m)
    for _ in range(15):
        scale = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-1, 3)))
        k = rng.randint(0, m)
        a, P, X = random_form(rng, m, k), random_multivec(rng, m, k), random_multivec(rng, m, 1)
        assert collect(Form, m, k, lie_terms(X, a, scale)) == scale * lie_form(X, a)
        assert collect(MultiVec, m, k, lie_terms(X, P, scale)) == scale * lie_multivec(X, P)
        assert collect(Form, m, k + 1, ext_d_terms(a, scale)) == scale * ext_d(a)
        assert collect(Form, m, max(k - 1, 0), contract_terms(X, a, scale)) == scale * i_vec(X, a)
        assert a.summed(a.terms(scale, X.coeff((1,))), a.terms(-1)) == X.coeff((1,)) * scale * a - a


def test_contraction_by_a_wedge_examples():
    # i_{xi ^ beta} P = i_beta i_xi P on the basis
    P = dd(3, 1, 2, 3)
    assert contract_form_into_vec(dx(3, 1, 2), P) == dd(3, 3)
    assert contract_form_into_vec(dx(3, 2), contract_form_into_vec(dx(3, 1), P)) == dd(3, 3)
    assert contract_form_into_vec(wedge(dx(3, 2), dx(3, 1)), P) == -dd(3, 3)
    assert contract_form_into_vec(dx(3, 1), contract_form_into_vec(dx(3, 2), P)) == -dd(3, 3)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_contraction_by_a_wedge_is_iterated_contraction(m):
    # i_{xi ^ beta} P = i_beta i_xi P, the step of the Nambu fundamental sweep
    rng = random.Random(9800 + m)
    nonzero = 0
    for _ in range(20):
        p = rng.randint(0, m - 1)
        q = rng.randint(1, m - p)
        k = rng.randint(p + q, m)
        xi, beta, P = random_form(rng, m, p), random_form(rng, m, q), random_multivec(rng, m, k)
        lhs = contract_form_into_vec(wedge(xi, beta), P)
        assert lhs == contract_form_into_vec(beta, contract_form_into_vec(xi, P))
        nonzero += not lhs.is_zero
    assert nonzero >= 5


def _constructor_random_poly(rng, m):
    """random_poly through the validating constructor: one Fraction per drawn term."""
    terms = {}
    for exps in monomials_up_to(m, 2):
        if rng.random() < 0.25:
            terms[exps] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Poly(m, terms)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_random_poly_matches_the_constructor_route(m):
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        assert random_poly(fast, m) == _constructor_random_poly(slow, m)
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_subtraction_adds_the_negation(m):
    rng = random.Random(9600 + m)
    for _ in range(20):
        draw = rng.choice((random_form, random_multivec))
        k = rng.randint(0, m)
        a, b = draw(rng, m, k), draw(rng, m, k)
        assert a - b == a + (-b)
        assert (a - a).coeffs == {}
        assert (a - b) + b == a


@pytest.mark.parametrize("m", [2, 3, 4])
def test_vec_bracket_matches_component_oracle(m):
    rng = random.Random(9000 + m)
    for _ in range(25):
        X = random_multivec(rng, m, 1)
        Y = random_multivec(rng, m, 1)
        assert vec_bracket(X, Y) == oracle_vec_bracket(X, Y)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_graded_commutativity(m):
    rng = random.Random(2000 + m)
    for _ in range(30):
        p = rng.randint(0, m)
        q = rng.randint(0, m)
        a = random_form(rng, m, p)
        b = random_form(rng, m, q)
        flipped = wedge(b, a)
        assert wedge(a, b) == (flipped if (p * q) % 2 == 0 else -flipped)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_d_squared_zero(m):
    rng = random.Random(3000 + m)
    for _ in range(30):
        a = random_form(rng, m, rng.randint(0, m))
        assert ext_d(ext_d(a)).is_zero


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cartan_vs_component_lie(m):
    rng = random.Random(4000 + m)
    for _ in range(40):
        a = random_form(rng, m, rng.randint(0, m))
        X = random_multivec(rng, m, 1)
        assert lie_form(X, a) == oracle_lie_form(X, a)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_bracket_contraction_operator_identity(m):
    # i_[X,Y] = L_X i_Y - i_Y L_X on forms
    rng = random.Random(5000 + m)
    for _ in range(25):
        a = random_form(rng, m, rng.randint(1, m))
        X = random_multivec(rng, m, 1)
        Y = random_multivec(rng, m, 1)
        lhs = i_vec(vec_bracket(X, Y), a)
        rhs = lie_form(X, i_vec(Y, a)) - i_vec(Y, lie_form(X, a))
        assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3, 4])
def test_d_commutes_with_lie(m):
    rng = random.Random(6000 + m)
    for _ in range(25):
        a = random_form(rng, m, rng.randint(0, m))
        X = random_multivec(rng, m, 1)
        assert ext_d(lie_form(X, a)) == lie_form(X, ext_d(a))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_interior_product_antiderivation(m):
    rng = random.Random(7000 + m)
    for _ in range(25):
        p = rng.randint(1, m - 1)
        q = rng.randint(1, m - p)
        a = random_form(rng, m, p)
        b = random_form(rng, m, q)
        X = random_multivec(rng, m, 1)
        lhs = i_vec(X, wedge(a, b))
        rhs = wedge(i_vec(X, a), b)
        signed = wedge(a, i_vec(X, b))
        rhs = rhs + (signed if p % 2 == 0 else -signed)
        assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lie_compatible_with_full_contraction(m):
    # L_X <P, a> = <L_X P, a> + <P, L_X a>
    rng = random.Random(8000 + m)
    for _ in range(25):
        k = rng.randint(0, m)
        a = random_form(rng, m, k)
        P = random_multivec(rng, m, k)
        X = random_multivec(rng, m, 1)
        lhs = vec_apply(X, full_pair(P, a))
        rhs = full_pair(lie_multivec(X, P), a) + full_pair(P, lie_form(X, a))
        assert lhs == rhs
