"""Deterministic counts of the term printer in two failing checks.

Every polynomial and tensor coefficient is printed by `scalar.term_texts`.
Wrapping it in every `hicourant` module that binds it counts its calls for
one seeded check.  A suite renders the inputs and the residual of each
failure when it records it, and a sweep records the same input objects in
failure after failure; a value keeps its text once printed, so each is
printed once.  The count is exact for a seed, so a return to printing
every witness again shows here as a number, not as noise in a timing.

The limits are the counts before values kept their text.
"""

import sys
from collections import Counter

from hicourant import dsl, scalar
from hicourant.courant import check_deformation
from hicourant.exterior import Context
from hicourant.nambu import NambuCandidate, check_nambu

# term_texts calls of each check while every str() printed its value again
CALLS_BEFORE = {"deformation": 98, "nambu": 207}
CALLS = {"deformation": 30, "nambu": 101}


def install_counter(monkeypatch) -> Counter:
    """Wrap every binding of term_texts by a counter of its calls."""
    counts: Counter = Counter()
    original = scalar.term_texts

    def counted(p, tail=""):
        counts["term_texts"] += 1
        return original(p, tail)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hicourant" or name.startswith("hicourant.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return counts


def verdicts(checks) -> list[tuple[str, bool, int, int]]:
    return [(c.name, c.passed, c.cases, len(c.failures)) for c in checks]


def test_the_counter_sees_polynomials_and_tensor_coefficients(monkeypatch):
    ctx = Context(3, 1)
    counts = install_counter(monkeypatch)
    assert str(dsl.parse_form("x1*dx1 + (x2 + 1)*dx3", ctx, 1)) == "x1*dx1 + (x2 + 1)*dx3"
    assert counts["term_texts"] == 2


def test_a_failing_deformation_check_prints_each_value_once(monkeypatch):
    ctx = Context(4, 1)
    theta = dsl.parse_form("x4*dx1^dx2^dx3", ctx, 3)
    counts = install_counter(monkeypatch)
    checks = check_deformation(ctx, theta, seed=0, samples=1)
    assert verdicts(checks) == [
        ("theta_closed", False, 1, 1),
        ("deformed_leibniz", False, 65, 24),
        ("closed_iff_leibniz", True, 1, 0),
    ]
    assert counts["term_texts"] == CALLS["deformation"] < CALLS_BEFORE["deformation"]


def test_a_failing_nambu_check_prints_each_value_once(monkeypatch):
    ctx = Context(4, 2)
    candidate = NambuCandidate(ctx, dsl.parse_multivec("@1^@2^@3 + x1*@1^@2^@4", ctx, 3))
    counts = install_counter(monkeypatch)
    checks = check_nambu(candidate, seed=0, samples=1)
    assert verdicts(checks) == [
        ("fundamental_identity", False, 91, 54),
        ("graph_closure_dorfman", False, 37, 9),
        ("closure_iff_fundamental", True, 1, 0),
    ]
    assert counts["term_texts"] == CALLS["nambu"] < CALLS_BEFORE["nambu"]
