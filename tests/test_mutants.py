"""A table of mutants of the library, each with the assertion that kills it.

Each row installs one mutant with `monkeypatch` and names an assertion that
reads verdicts, case counts or returned values, never report bytes, so a
regenerated golden report cannot hide a weakened check.  The assertion must
hold on the library as it is and fail under the mutant; a mutant also dies
when the library refuses the pair it built (`InconsistentCandidateError`).

Random dense draws kill most sign slips by themselves.  These rows guard the
deterministic parts: an exact witness, a fixed number of probes, the verdict
of an `*_iff_*` row, and a single index sign.
"""

from fractions import Fraction

import pytest

from hicourant import exterior, plectic
from hicourant.courant import CheckResult
from hicourant.exterior import Context, Form, MultiVec, ext_d
from hicourant.plectic import (
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


# -- mutants -------------------------------------------------------------------


def _never_a_kernel(monkeypatch):
    real = plectic._rank_and_kernel
    monkeypatch.setattr(plectic, "_rank_and_kernel", lambda matrix, ncols: (None, real(matrix, ncols)[1]))


def _augmented_column_ignored(monkeypatch):
    real = plectic._rank_and_kernel

    def eliminated(matrix, ncols):
        return real([row[:ncols] + [Fraction(0)] for row in matrix], ncols)

    monkeypatch.setattr(plectic, "_rank_and_kernel", eliminated)


def _one_rank_point(monkeypatch):
    monkeypatch.setattr(plectic, "RANK_POINTS", 1)


def _iff_always_agrees(monkeypatch):
    def agreeing(self, inputs, left, right):
        self.record_verdict(inputs, True, "")

    monkeypatch.setattr(CheckResult, "record_iff", agreeing)


def _two_slot_sign_flipped(monkeypatch):
    real = exterior._merge_indices

    def flipped(left, right):
        merged = real(left, right)
        if merged is None or len(merged[1]) != 2:
            return merged
        return -merged[0], merged[1]

    monkeypatch.setattr(exterior, "_merge_indices", flipped)


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


def _two_slot_indices_keep_their_sign(monkeypatch):
    dx12 = Form.basis(3, (1, 2))
    assert Form.basis(3, (1,)) ^ Form.basis(3, (2,)) == dx12
    assert ext_d(Poly.var(3, 1) * Form.basis(3, (2,))) == dx12


MUTANTS = {
    "rank_never_returns_a_kernel": (_never_a_kernel, _degenerate_witness_is_the_kernel_field),
    "rank_ignores_the_augmented_column": (_augmented_column_ignored, _volume_solves_dx23_with_d1),
    "rank_points_5_to_1": (_one_rank_point, _nonconstant_rank_has_five_probes),
    "record_iff_always_agrees": (_iff_always_agrees, _graph_closure_iff_fails_under_a_broken_bracket),
    "merge_indices_two_slot_sign_flip": (_two_slot_sign_flipped, _two_slot_indices_keep_their_sign),
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
