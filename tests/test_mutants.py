"""A table of mutants of the library, each with the assertion that kills it.

Each row installs one mutant with `monkeypatch` and names an assertion that
reads verdicts, case counts or returned values, never report bytes, so a
regenerated golden report cannot hide a weakened check.  The assertion must
hold on the library as it is and fail under the mutant; a mutant also dies
when the library refuses the pair it built (`InconsistentCandidateError`).

A sign or factor slip in a bracket that a suite uses dies on that suite's
verdicts over its default seeded draws.  The weakening rows guard the
deterministic parts: an exact witness, a fixed number of probes or of
exhaustive cases, and the verdict of an `*_iff_*` row.  A slip in a function
that no suite calls (`vec_bracket`, the admissible, hemi- and semi-brackets)
or in a single index sign dies on a known answer.
"""

from fractions import Fraction
from itertools import chain
from math import comb

import pytest

from hicourant import courant, exterior, nambu, plectic
from hicourant.courant import CheckResult
from hicourant.dsl import parse_form, parse_multivec
from hicourant.exterior import Context, Form, MultiVec, ext_d, ext_d_terms, full_pair, i_vec, lie_terms
from hicourant.nambu import NambuCandidate, check_nambu, graph_closure_check, np_fundamental_check
from hicourant.plectic import (
    AdmissiblePair,
    HamiltonianPair,
    InconsistentCandidateError,
    PlecticCandidate,
    check_plectic,
    nondegeneracy_check,
    solve_admissible,
)
from hicourant.scalar import Poly

VOLUME32 = PlecticCandidate(Context(3, 2), Form.basis(3, (1, 2, 3)))
DEGENERATE31 = PlecticCandidate(Context(3, 1), Form.basis(3, (1, 2)))
NONCLOSED31 = PlecticCandidate(Context(3, 1), Poly.var(3, 1) * Form.basis(3, (2, 3)))
ORIGIN3 = [(Fraction(0),) * 3]
CTX31 = Context(3, 1)


def _multivec(text, m, degree=1):
    return parse_multivec(text, Context(m, 1), degree)


# -- mutants -------------------------------------------------------------------
# weakenings of a sweep, a probe count or a verdict


def _never_a_kernel(monkeypatch):
    real = plectic._rank_and_kernel
    monkeypatch.setattr(plectic, "_rank_and_kernel", lambda matrix, ncols: (None, real(matrix, ncols)[1]))


def _augmented_column_ignored(monkeypatch):
    real = plectic._rank_and_kernel

    def eliminated(matrix, ncols):
        return real([row[:ncols] + [Fraction(0)] for row in matrix], ncols)

    monkeypatch.setattr(plectic, "_rank_and_kernel", eliminated)


def _one_rank_point(monkeypatch):
    monkeypatch.setattr(plectic, "RANK_POINTS", (0,))


def _iff_always_agrees(monkeypatch):
    def agreeing(cls, name, identity, inputs, left, right):
        agreement = cls(name, identity)
        agreement.record_verdict(inputs, True, "")
        return agreement

    monkeypatch.setattr(CheckResult, "iff", classmethod(agreeing))


def _exhaustive_cases_dropped(module):
    """The mutant whose `cases` in module keeps only the seeded draws."""

    def install(monkeypatch):
        real = module.cases

        def sampled_only(seed, samples, draw, exhaustive=()):
            return real(seed, samples, draw)

        monkeypatch.setattr(module, "cases", sampled_only)

    return install


def _fundamental_sweep_at_degree_1(monkeypatch):
    real = nambu.monomials_up_to
    monkeypatch.setattr(nambu, "monomials_up_to", lambda m, max_degree: real(m, 1))


# sign and factor slips


def _pairing_half_dropped(monkeypatch):
    monkeypatch.setattr(courant, "HALF", Fraction(1))


def _courant_correction_added(monkeypatch):
    def courant_terms(e1, e2, scale=1):
        vec, form = courant.dorfman_terms(e1, e2, scale)
        return vec, chain(form, ext_d_terms(courant.pairing(e1, e2), scale))

    monkeypatch.setattr(courant, "courant_terms", courant_terms)


def _t_map_negated(monkeypatch):
    real = courant._cyclic_defect
    monkeypatch.setattr(courant, "_cyclic_defect", lambda *brackets: -real(*brackets))


def _twist_negated(monkeypatch):
    real = courant.deformed_terms
    monkeypatch.setattr(courant, "deformed_terms", lambda e1, e2, theta, scale=1: real(e1, e2, -theta, scale))


def _gauge_shear_negated(monkeypatch):
    real = courant.gauge
    monkeypatch.setattr(courant, "gauge", lambda phi, e: real(-phi, e))


def _vec_bracket_swapped(monkeypatch):
    real = exterior.vec_bracket
    monkeypatch.setattr(exterior, "vec_bracket", lambda X, Y: real(Y, X))


def _pi_sharp_negated(monkeypatch):
    real = nambu.pi_sharp
    monkeypatch.setattr(nambu, "pi_sharp", lambda c, xi: -real(c, xi))


def _marrero_parity_flipped(monkeypatch):
    def marrero_terms(c, a, b, scale=1):
        # nambu._marrero_terms with the sign of (-1)^{n+1} <pi, da> b flipped
        pair = full_pair(c.pi, ext_d(a))
        sign = scale if (c.ctx.n + 1) % 2 else -scale
        return chain(lie_terms(nambu.pi_sharp(c, a), b, scale), b.terms(sign, pair))

    monkeypatch.setattr(nambu, "_marrero_terms", marrero_terms)


def _arguments_swapped(name):
    """The mutant whose plectic.name(c, p, q) computes the bracket of q and p."""

    def install(monkeypatch):
        real = getattr(plectic, name)
        monkeypatch.setattr(plectic, name, lambda c, p, q: real(c, q, p))

    return install


def _action_bracket(monkeypatch):
    def action_terms(e1, e2, scale=1):
        # [X,Y] + L_X b: the Dorfman bracket without its - i_Y da
        return lie_terms(e1.vec, e2.vec, scale), lie_terms(e1.vec, e2.form, scale)

    monkeypatch.setattr(courant, "dorfman_terms", action_terms)


def _two_slot_sign_flipped(monkeypatch):
    real = exterior._merge_indices

    def flipped(left, right):
        merged = real(left, right)
        if merged is None or len(merged[1]) != 2:
            return merged
        return -merged[0], merged[1]

    monkeypatch.setattr(exterior, "_merge_indices", flipped)


def _two_slot_split_sign_flipped(monkeypatch):
    real = exterior._split_sign

    def flipped(sub, full):
        split = real(sub, full)
        if split is None or len(full) != 2:
            return split
        return -split[0], split[1]

    monkeypatch.setattr(exterior, "_split_sign", flipped)


# -- killing assertions ----------------------------------------------------------


def _degenerate_witness_is_the_kernel_field(monkeypatch):
    result = nondegeneracy_check(DEGENERATE31, ORIGIN3)
    assert not result.passed
    assert [f.residual for f in result.failures] == ["@3"]


def _volume_solves_dx23_with_d1(monkeypatch):
    pair = solve_admissible(VOLUME32, Form.basis(3, (2, 3)))
    assert pair is not None and pair.x_alpha == MultiVec.basis(3, (1,))


def _nonconstant_rank_has_five_probes(monkeypatch):
    rank = check_plectic(NONCLOSED31, seed=0, samples=1)[0]
    assert rank.name == "nondegeneracy_at_points"
    assert rank.cases == 5 and len(rank.failures) == 5


def _graph_closure_iff_fails_under_a_broken_bracket(monkeypatch):
    real = plectic.dorfman_terms

    def form_part_dropped(e1, e2, scale=1):
        vec, _ = real(e1, e2, scale)
        return vec, ()

    # the graph of a closed omega is closed only under the true bracket
    monkeypatch.setattr(plectic, "dorfman_terms", form_part_dropped)
    closed, closure, _, agreement = check_plectic(VOLUME32, seed=0, samples=2)[1:]
    assert closed.passed and not closure.passed
    assert agreement.cases == 1 and not agreement.passed


def _deformation_sweeps_every_coordinate_triple(monkeypatch):
    ctx, samples = Context(3, 1), 2
    _, leibniz, _ = courant.check_deformation(ctx, Form.basis(3, (1, 2, 3)), seed=0, samples=samples)
    assert leibniz.name == "deformed_leibniz" and leibniz.passed
    assert leibniz.cases == ctx.m**3 + samples == 29


def _nambu_graph_sweeps_every_basis_pair(monkeypatch):
    ctx, samples = Context(5, 2), 3
    closure = graph_closure_check(NambuCandidate(ctx, MultiVec.basis(5, (1, 2, 3))), seed=0, samples=samples)
    assert closure.name == "graph_closure_dorfman" and closure.passed
    assert closure.cases == comb(ctx.m, ctx.n) ** 2 + samples == 103


def _fundamental_sweep_finds_the_degree_2_failures(monkeypatch):
    # passes every tuple of degree-1 monomials, fails 76 of the 190 of degree <= 2
    fundamental = np_fundamental_check(NambuCandidate(Context(5, 2), _multivec("@1^@2^@3 + @3^@4^@5", 5, 3)))
    assert fundamental.cases == 190 and len(fundamental.failures) == 76


def _courant_axioms_hold(monkeypatch):
    checks = courant.check_courant_axioms(CTX31, seed=0)
    assert all(check.passed for check in checks)


def _dorfman_axioms_hold(monkeypatch):
    checks = courant.check_dorfman_axioms(CTX31, seed=0)
    assert all(check.passed for check in checks)


def _gauge_intertwines_a_nonclosed_shear(monkeypatch):
    phi = parse_form("x1*dx2^dx3", CTX31, 2)
    (intertwiner,) = courant.check_gauge_isomorphism(CTX31, phi, seed=0)
    assert intertwiner.passed


def _vec_bracket_of_d1_and_x1_d2_is_d2(monkeypatch):
    assert exterior.vec_bracket(_multivec("@1", 2), _multivec("x1*@2", 2)) == _multivec("@2", 2)


def _nambu_suite_holds_on_a_nambu_poisson_tensor(monkeypatch):
    checks = check_nambu(NambuCandidate(Context(3, 2), _multivec("@1^@2^@3", 3, 3)), seed=0)
    assert [check.name for check in checks][-1] == "bracket_comparison"
    assert all(check.passed for check in checks)


def _admissible_bracket_of_d1_and_x1_d2_has_field_d2(monkeypatch):
    # i_{d1} dx123 = dx2^dx3 and i_{x1 d2} dx123 = -x1 dx1^dx3
    a = AdmissiblePair(VOLUME32, Form.basis(3, (2, 3)), _multivec("@1", 3))
    b = AdmissiblePair(VOLUME32, parse_form("-x1*dx1^dx3", VOLUME32.ctx, 2), _multivec("x1*@2", 3))
    bracket = plectic.admissible_bracket(VOLUME32, a, b)
    assert bracket.x_alpha == _multivec("@2", 3)


def _hamiltonian_pairs():
    """Hamiltonian pairs of dx123: x2 dx3 with field d1, and x1 x2 dx3 with x1 d1 - x2 d2."""
    ctx = VOLUME32.ctx
    p = HamiltonianPair(VOLUME32, parse_form("x2*dx3", ctx, 1), _multivec("@1", 3))
    q = HamiltonianPair(VOLUME32, parse_form("x1*x2*dx3", ctx, 1), _multivec("x1*@1 - x2*@2", 3))
    return p, q


def _hemi_bracket_is_the_lie_derivative(monkeypatch):
    p, q = _hamiltonian_pairs()
    # L_{d1}(x1 x2 dx3) = x2 dx3, while L_{x1 d1 - x2 d2}(x2 dx3) = -x2 dx3
    assert plectic.hemi_bracket(VOLUME32, p, q) == parse_form("x2*dx3", VOLUME32.ctx, 1)


def _semi_bracket_contracts_in_order(monkeypatch):
    p, q = _hamiltonian_pairs()
    # i_{d1} i_{x1 d1 - x2 d2} dx123 = x2 dx3, while the other order gives -x2 dx3
    assert plectic.semi_bracket(VOLUME32, p, q) == parse_form("x2*dx3", VOLUME32.ctx, 1)


def _two_slot_indices_keep_their_sign(monkeypatch):
    dx12 = Form.basis(3, (1, 2))
    assert Form.basis(3, (1,)) ^ Form.basis(3, (2,)) == dx12
    assert ext_d(Poly.var(3, 1) * Form.basis(3, (2,))) == dx12


def _contraction_keeps_its_sign(monkeypatch):
    # i_{d2}(dx1^dx2) = -dx1
    assert i_vec(MultiVec.basis(2, (2,)), Form.basis(2, (1, 2))) == -Form.basis(2, (1,))


MUTANTS = {
    "rank_never_returns_a_kernel": (_never_a_kernel, _degenerate_witness_is_the_kernel_field),
    "rank_ignores_the_augmented_column": (_augmented_column_ignored, _volume_solves_dx23_with_d1),
    "rank_points_5_to_1": (_one_rank_point, _nonconstant_rank_has_five_probes),
    "record_iff_always_agrees": (_iff_always_agrees, _graph_closure_iff_fails_under_a_broken_bracket),
    "deformation_coordinate_triples_emptied": (
        _exhaustive_cases_dropped(courant),
        _deformation_sweeps_every_coordinate_triple,
    ),
    "nambu_graph_basis_pairs_emptied": (
        _exhaustive_cases_dropped(nambu),
        _nambu_graph_sweeps_every_basis_pair,
    ),
    "fundamental_sweep_at_degree_1": (
        _fundamental_sweep_at_degree_1,
        _fundamental_sweep_finds_the_degree_2_failures,
    ),
    "pairing_half_dropped": (_pairing_half_dropped, _courant_axioms_hold),
    "courant_correction_sign": (_courant_correction_added, _courant_axioms_hold),
    "t_map_sign": (_t_map_negated, _courant_axioms_hold),
    "twist_sign": (_twist_negated, _gauge_intertwines_a_nonclosed_shear),
    "gauge_shear_sign": (_gauge_shear_negated, _gauge_intertwines_a_nonclosed_shear),
    "vec_bracket_swapped": (_vec_bracket_swapped, _vec_bracket_of_d1_and_x1_d2_is_d2),
    "pi_sharp_negated": (_pi_sharp_negated, _nambu_suite_holds_on_a_nambu_poisson_tensor),
    "marrero_parity_flipped": (_marrero_parity_flipped, _nambu_suite_holds_on_a_nambu_poisson_tensor),
    "admissible_bracket_swapped": (
        _arguments_swapped("admissible_bracket"),
        _admissible_bracket_of_d1_and_x1_d2_has_field_d2,
    ),
    "hemi_bracket_swapped": (_arguments_swapped("hemi_bracket"), _hemi_bracket_is_the_lie_derivative),
    "semi_bracket_swapped": (_arguments_swapped("semi_bracket"), _semi_bracket_contracts_in_order),
    "action_bracket": (_action_bracket, _dorfman_axioms_hold),
    "merge_indices_two_slot_sign_flip": (_two_slot_sign_flipped, _two_slot_indices_keep_their_sign),
    "split_sign_two_slot_sign_flip": (_two_slot_split_sign_flipped, _contraction_keeps_its_sign),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_killing_assertion_holds_without_the_mutant(monkeypatch, name):
    _, holds = MUTANTS[name]
    holds(monkeypatch)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    install, holds = MUTANTS[name]
    install(monkeypatch)
    with pytest.raises((AssertionError, InconsistentCandidateError)):
        holds(monkeypatch)


def test_the_action_bracket_passes_leibniz_and_dies_on_another_dorfman_row(monkeypatch):
    _action_bracket(monkeypatch)
    checks = {check.name: check for check in courant.check_dorfman_axioms(CTX31, seed=0)}
    assert checks.pop("leibniz_identity").passed
    assert not all(check.passed for check in checks.values())
