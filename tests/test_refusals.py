"""Library refusals that the command line cannot reach, each with its exact type and message,
and the chart admission of every structure entry point and the samples refusal of the
deformation and Nambu-graph sweeps, made before any work."""

import pytest

from hicourant import courant, nambu, plectic
from hicourant.courant import Section
from hicourant.dsl import GradingError, parse
from hicourant.exterior import Context, Form, MultiVec, full_pair, i_vec
from hicourant.nambu import NambuCandidate
from hicourant.plectic import PlecticCandidate
from hicourant.scalar import ChartMismatchError, InputError, Poly

C31 = Context(3, 1)
C32 = Context(3, 2)


def dx(m, *idx):
    return Form.basis(m, idx)


def dd(m, *idx):
    return MultiVec.basis(m, idx)


# mismatched charts have dimensions 3 and 4 throughout
OFF_CHART = (ChartMismatchError, "chart dimension mismatch: 3 vs 4")

# (refusal, exception type, message)
REFUSALS = {
    "Section-vec-off-chart": (lambda: Section(C31, MultiVec.zero(4, 1), Form.zero(3, 1)), *OFF_CHART),
    "Section-form-off-chart": (lambda: Section(C31, MultiVec.zero(3, 1), Form.zero(4, 1)), *OFF_CHART),
    "Context-m-float": (lambda: Context(2.5, 1), InputError, "chart dimension m must be an integer, got float"),
    "Context-n-float": (lambda: Context(3, 1.0), InputError, "bracket order n must be an integer, got float"),
    "Context-m-bool": (lambda: Context(True, True), InputError, "chart dimension m must be an integer, got bool"),
    "tensor-m-zero": (lambda: Form(0, 0), ValueError, "chart dimension must be positive"),
    "tensor-degree-negative": (lambda: MultiVec(3, -1), ValueError, "tensor degree must be nonnegative"),
    "tensor-index-length": (lambda: Form(3, 2, {(1,): 1}), ValueError, "index (1,) does not have degree 2"),
    # a bool or float entry would hash like an int one into the cached index signs
    "Form-index-bool": (
        lambda: Form(3, 1, {(True,): 1}),
        ValueError,
        "index (True,) is not a strictly increasing tuple of ints within 1..3",
    ),
    "Form-index-float": (
        lambda: Form(3, 2, {(1.0, 2): 1}),
        ValueError,
        "index (1.0, 2) is not a strictly increasing tuple of ints within 1..3",
    ),
    "MultiVec-index-bool": (
        lambda: MultiVec(3, 2, {(True, 3): 1}),
        ValueError,
        "index (True, 3) is not a strictly increasing tuple of ints within 1..3",
    ),
    "MultiVec-index-float": (
        lambda: MultiVec(3, 1, {(2.0,): 1}),
        ValueError,
        "index (2.0,) is not a strictly increasing tuple of ints within 1..3",
    ),
    "tensor-coefficient-off-chart": (lambda: Form(3, 1, {(1,): Poly.var(4, 1)}), *OFF_CHART),
    "form-plus-multivec": (lambda: dx(3, 1) + dd(3, 1), TypeError, "summand must be a Form, got MultiVec"),
    "sum-of-two-degrees": (lambda: dx(3, 1) + dx(3, 1, 2), ValueError, "summand must have degree 1, got 2"),
    "sum-off-chart": (lambda: dx(3, 1) - dx(4, 1), *OFF_CHART),
    "wedge-of-two-variances": (lambda: dx(3, 1) ^ dd(3, 2), TypeError, "wedge factor must be a Form, got MultiVec"),
    "i_vec-of-a-form": (lambda: i_vec(dx(3, 1), dx(3, 2)), TypeError, "vector field must be a MultiVec, got Form"),
    "i_vec-of-a-2-vector": (
        lambda: i_vec(dd(3, 1, 2), dx(3, 1, 2)), ValueError, "vector field must have degree 1, got 2"
    ),
    "full_pair-degrees": (lambda: full_pair(dd(3, 1, 2), dx(3, 1)), ValueError, "form must have degree 2, got 1"),
    "NambuCandidate-off-chart": (lambda: NambuCandidate(C32, dd(4, 1, 2, 3)), *OFF_CHART),
    "PlecticCandidate-off-chart": (lambda: PlecticCandidate(C31, dx(4, 1, 2)), *OFF_CHART),
    "Poly-m-zero": (lambda: Poly(0), ValueError, "chart dimension must be positive"),
    "Poly-exponent-length": (lambda: Poly(2, {(1,): 1}), ValueError, "bad exponent vector (1,) for dimension 2"),
    "Poly-exponent-negative": (
        lambda: Poly(2, {(1, -1): 1}), ValueError, "bad exponent vector (1, -1) for dimension 2"
    ),
    "Poly-exponent-float": (
        lambda: Poly(2, {(1.0, 0): 1}), ValueError, "bad exponent vector (1.0, 0) for dimension 2"
    ),
    "Poly-exponent-bool": (
        lambda: Poly(2, {(0, True): 1}), ValueError, "bad exponent vector (0, True) for dimension 2"
    ),
    "Poly.var-out-of-range": (lambda: Poly.var(2, 3), ValueError, "coordinate index 3 out of range 1..2"),
    "Poly-negative-power": (
        lambda: Poly.var(2, 1) ** -1, ValueError, "only nonnegative integer powers are defined"
    ),
    "parse-form-as-scalar": (
        lambda: parse("dx1", C31, "scalar"), GradingError, "at position 0: expected a scalar, got form of degree 1"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_has_its_exact_type_and_message(case):
    refuse, kind, message = REFUSALS[case]
    with pytest.raises(Exception) as refusal:
        refuse()
    assert type(refusal.value) is kind
    assert str(refusal.value) == message


OMEGA = PlecticCandidate(C31, dx(3, 1, 2) + dx(3, 2, 3))

# an off-chart structure tensor given to an entry point, and the names of its module that do
# its work: eliminations, draws and brackets
OFF_CHART_ENTRIES = {
    "check_plectic-theta": (
        lambda: plectic.check_plectic(OMEGA, theta=dx(4, 1, 2, 3)),
        plectic,
        ("_rank_and_kernel", "cases", "random_multivec", "dorfman_terms", "deformed_terms"),
    ),
    "check_gauge_isomorphism-phi": (
        lambda: courant.check_gauge_isomorphism(C31, dx(4, 1, 2)),
        courant,
        ("cases", "random_section", "dorfman_terms", "deformed_terms", "ext_d"),
    ),
    "check_deformation-theta": (
        lambda: courant.check_deformation(C31, dx(4, 1, 2, 3)),
        courant,
        ("cases", "random_section", "deformed_terms", "deformed_dorfman", "ext_d"),
    ),
    "solve_admissible-alpha": (
        lambda: plectic.solve_admissible(OMEGA, dx(4, 1)), plectic, ("_rank_and_kernel", "_flat_matrix")
    ),
    "solve_hamiltonian-xi": (
        lambda: plectic.solve_hamiltonian(OMEGA, Form(4, 0, {(): Poly.var(4, 1)})),
        plectic,
        ("_rank_and_kernel", "_flat_matrix", "ext_d"),
    ),
}


# a sweep given samples=0, and the names of its module that build its exhaustive cases and draws
NO_SAMPLES_ENTRIES = {
    "check_deformation": (
        lambda: courant.check_deformation(C31, dx(3, 1, 2, 3), samples=0),
        courant,
        ("random_section", "deformed_terms", "deformed_dorfman", "ext_d"),
    ),
    "graph_closure_check": (
        lambda: nambu.graph_closure_check(NambuCandidate(C32, dd(3, 1, 2, 3)), samples=0),
        nambu,
        ("pi_sharp", "random_form", "dorfman_terms", "contract_terms"),
    ),
}


def _forbid(monkeypatch, module, workers, refusal):
    def no_call(*args, **kwargs):
        raise AssertionError(f"work ran before the {refusal}")

    for name in workers:
        monkeypatch.setattr(module, name, no_call)


@pytest.mark.parametrize("case", sorted(OFF_CHART_ENTRIES))
def test_off_chart_structure_is_refused_before_any_work(case, monkeypatch):
    refuse, module, workers = OFF_CHART_ENTRIES[case]
    _forbid(monkeypatch, module, workers, "chart check")
    with pytest.raises(ChartMismatchError, match="^chart dimension mismatch: 3 vs 4$"):
        refuse()


@pytest.mark.parametrize("case", sorted(NO_SAMPLES_ENTRIES))
def test_samples_below_one_are_refused_before_any_work(case, monkeypatch):
    refuse, module, workers = NO_SAMPLES_ENTRIES[case]
    _forbid(monkeypatch, module, workers, "samples check")
    with pytest.raises(InputError) as refusal:
        refuse()
    assert type(refusal.value) is InputError
    assert str(refusal.value) == "samples must be at least 1"
