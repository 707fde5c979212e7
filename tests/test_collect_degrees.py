"""Every tensor that `exterior.collect` builds has the degree its caller declares.

`collect` builds its tensor through `_raw`, which trusts the declared
degree, so a caller that declares a wrong one makes a tensor whose
indices have another length, and nothing notices until a known answer
reads it.  Wrapping `collect` in every `hicourant` module that binds it,
in the way `test_work_counters.py` wraps `sum_of_products`, checks each
index of each tensor it returns: over the Dorfman and Courant suites at
(2,1) and (3,2), one passing fixture of each structure suite, and each
public operator of `exterior` on seeded tensors, which reaches the
operators no suite calls, such as `contract_vec_into_form`.  A degree off
by one in `courant._cyclic_defect` or in `contract_vec_into_form` fails
here.
"""

import random
import sys

import pytest

from hicourant import courant, exterior, nambu, plectic
from hicourant.dsl import parse_form, parse_multivec
from hicourant.exterior import Context, Form
from hicourant.scalar import Poly

SEED, SAMPLES = 13, 2


def install_degree_check(monkeypatch) -> list[int]:
    """Wrap every binding of collect by a check that each index of the tensor it returns has the
    declared degree; the returned list grows by the number of indices of each tensor checked."""
    original = exterior.collect
    checked: list[int] = []

    def collect(cls, m, degree, terms):
        tensor = original(cls, m, degree, terms)
        wrong = [idx for idx in tensor.coeffs if len(idx) != degree]
        assert not wrong, f"{cls.__name__} collected at declared degree {degree} has indices {wrong}"
        checked.append(len(tensor.coeffs))
        return tensor

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hicourant" or name.startswith("hicourant.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, collect)
    return checked


def operators(m: int, n: int) -> list:
    """Every public operator of exterior that collects, on seeded tensors of chart dimension m."""
    rng = random.Random(SEED)
    X, Y = exterior.random_multivec(rng, m, 1), exterior.random_multivec(rng, m, 1)
    P, a = exterior.random_multivec(rng, m, n), exterior.random_form(rng, m, n + 1)
    b = exterior.random_form(rng, m, 1)
    return [
        exterior.wedge(a, b),
        exterior.i_vec(X, a),
        exterior.contract_form_into_vec(b, P),
        exterior.contract_vec_into_form(P, a),
        exterior.full_pair(P, exterior.random_form(rng, m, n)),
        exterior.ext_d(a),
        exterior.d_scalar(exterior.random_poly(rng, m)),
        exterior.lie_form(X, a),
        exterior.lie_multivec(X, P),
        exterior.vec_bracket(X, Y),
    ]


C32, C31, C41 = Context(3, 2), Context(3, 1), Context(4, 1)

RUNS = {
    "dorfman-2-1": lambda: courant.check_dorfman_axioms(Context(2, 1), SEED, SAMPLES),
    "dorfman-3-2": lambda: courant.check_dorfman_axioms(C32, SEED, SAMPLES),
    "courant-2-1": lambda: courant.check_courant_axioms(Context(2, 1), SEED, SAMPLES),
    "courant-3-2": lambda: courant.check_courant_axioms(C32, SEED, SAMPLES),
    "nambu-3-2": lambda: nambu.check_nambu(
        nambu.NambuCandidate(C32, parse_multivec("@1^@2^@3", C32, 3)), SEED, SAMPLES
    ),
    "plectic-3-2": lambda: plectic.check_plectic(
        plectic.PlecticCandidate(C32, parse_form("dx1^dx2^dx3", C32, 3)), SEED, SAMPLES
    ),
    "admissible-4-1": lambda: plectic.check_admissible_lie_algebroid(
        plectic.PlecticCandidate(C41, parse_form("dx1^dx2 + dx3^dx4", C41, 2)), SEED, SAMPLES
    ),
    "gauge-3-1": lambda: courant.check_gauge_isomorphism(C31, parse_form("dx1^dx2", C31, 2), SEED, SAMPLES),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_every_tensor_a_passing_suite_collects_has_its_declared_degree(run, monkeypatch):
    checked = install_degree_check(monkeypatch)
    checks = run()
    assert checks and all(check.passed for check in checks)
    assert sum(checked) > 0


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2)])
def test_every_tensor_an_operator_collects_has_its_declared_degree(m, n, monkeypatch):
    checked = install_degree_check(monkeypatch)
    results = operators(m, n)
    assert len(checked) >= len(results) and sum(checked) > 0


def test_degree_check_refuses_an_index_of_another_length(monkeypatch):
    install_degree_check(monkeypatch)
    one = Poly.const(3, 1)
    assert courant.collect(Form, 3, 2, [((1, 2), 1, one, None)]).coeff((1, 2)) == one
    with pytest.raises(AssertionError, match=r"declared degree 1 has indices \[\(1, 2\)\]"):
        courant.collect(Form, 3, 1, [((1, 2), 1, one, None)])
