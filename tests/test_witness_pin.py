"""Pinned failing witnesses of the bracket-identity suites under broken brackets.

The golden reports show a failing algebroid witness only for the deformed
Leibniz check, so a change to how a suite records its inputs (sections
where forms are due, or (a, b) where (a, b, f) is due) would leave them
unchanged.  Here `dorfman_form` is replaced, in every `hicourant` module
that binds it, by one of two wrong brackets, and every check's name,
identity, case count and failures (inputs and residual) are compared with
`tests/golden/algebroid-witnesses.pin.json`.  Regenerate it only for a
change that sets out to alter what the suites record:

    PYTHONPATH=src python tests/test_witness_pin.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from hicourant import courant, nambu, plectic
from hicourant.dsl import parse_form, parse_multivec
from hicourant.exterior import Context, ext_d, i_vec, lie_form

PIN = Path(__file__).parent / "golden" / "algebroid-witnesses.pin.json"
SEED = 13
SAMPLES = 4


def _flipped_i_y_da(e1, e2):
    """L_X b + i_Y da: the sign of i_Y da flipped."""
    return lie_form(e1.vec, e2.form) + i_vec(e2.vec, ext_d(e1.form))


def _no_d_i_x_b(e1, e2):
    """i_X db - i_Y da: L_X b without its d i_X b term."""
    return i_vec(e1.vec, ext_d(e2.form)) - i_vec(e2.vec, ext_d(e1.form))


MUTANTS = {"flipped_i_Y_da": _flipped_i_y_da, "no_d_i_X_b": _no_d_i_x_b}


def _dorfman_axioms():
    return courant.check_dorfman_axioms(Context(3, 2), SEED, SAMPLES)


def _courant_axioms():
    return courant.check_courant_axioms(Context(2, 1), SEED, SAMPLES)


def _nambu_algebroid():
    ctx = Context(3, 2)
    candidate = nambu.NambuCandidate(ctx, parse_multivec("@1^@2^@3", ctx, 3))
    return nambu.check_nambu(candidate, SEED, SAMPLES)[3:]


def _admissible():
    ctx = Context(4, 1)
    candidate = plectic.PlecticCandidate(ctx, parse_form("dx1^dx2+dx3^dx4", ctx, 2))
    return plectic.check_admissible_lie_algebroid(candidate, SEED, SAMPLES)


def _deformation():
    ctx = Context(3, 1)
    return courant.check_deformation(ctx, parse_form("dx1^dx2^dx3", ctx, 3), SEED, SAMPLES)


def _gauge(phi):
    ctx = Context(3, 1)
    return courant.check_gauge_isomorphism(ctx, parse_form(phi, ctx, 2), SEED, SAMPLES)


def _nambu(m, pi):
    ctx = Context(m, 2)
    return nambu.check_nambu(nambu.NambuCandidate(ctx, parse_multivec(pi, ctx, 3)), SEED, SAMPLES)


def _plectic(m, n, omega):
    ctx = Context(m, n)
    return plectic.PlecticCandidate(ctx, parse_form(omega, ctx, n + 1))


def _plectic_graph():
    # the checks of the plain graph theorem, after the rank check
    return plectic.check_plectic(_plectic(3, 2, "dx1^dx2^dx3"), SEED, SAMPLES)[1:5]


def _deformed_graph():
    # the checks of the twisted graph theorem, which come last
    candidate = _plectic(3, 1, "x1*dx2^dx3")
    theta = parse_form("-dx1^dx2^dx3", candidate.ctx, 3)
    return plectic.check_plectic(candidate, SEED, SAMPLES, theta)[5:]


SUITES = {
    "dorfman-axioms-m3n2": _dorfman_axioms,
    "courant-axioms-m2n1": _courant_axioms,
    "nambu-algebroid-m3n2": _nambu_algebroid,
    "admissible-m4n1": _admissible,
    "deformation-m3n1": _deformation,
    "gauge-closed-m3n1": lambda: _gauge("dx1^dx2"),
    "gauge-open-m3n1": lambda: _gauge("x3*dx1^dx2"),
    "nambu-m3n2": lambda: _nambu(3, "@1^@2^@3"),
    "nambu-not-poisson-m4n2": lambda: _nambu(4, "@1^@2^@3 + x2*@2^@3^@4"),
    "graph-closure-omega-m3n2": _plectic_graph,
    "deformed-graph-m3n1": _deformed_graph,
}


def _patch_dorfman_form(setattr_, mutant):
    """Rebind every module-level name that refers to the real dorfman_form."""
    original = courant.dorfman_form
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hicourant" or name.startswith("hicourant.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr_(module, key, mutant)


def _record(checks):
    return [
        {
            "name": check.name,
            "identity": check.identity,
            "cases": check.cases,
            "failures": [[list(f.inputs), f.residual] for f in check.failures],
        }
        for check in checks
    ]


def _runs():
    return [(mutant, suite) for mutant in MUTANTS for suite in SUITES]


@pytest.mark.parametrize("mutant,suite", _runs(), ids=[f"{m}-{s}" for m, s in _runs()])
def test_failing_witnesses_are_pinned(mutant, suite, monkeypatch):
    expected = json.loads(PIN.read_text())[mutant][suite]
    _patch_dorfman_form(monkeypatch.setattr, MUTANTS[mutant])
    assert _record(SUITES[suite]()) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    pin = {}
    for mutant_name, mutant in MUTANTS.items():
        pin[mutant_name] = {}
        for suite_name, suite in SUITES.items():
            with pytest.MonkeyPatch.context() as patch:
                _patch_dorfman_form(patch.setattr, mutant)
                pin[mutant_name][suite_name] = _record(suite())
    PIN.write_text(json.dumps(pin, indent=1) + "\n")
