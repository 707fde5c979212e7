"""Multisymplectic ((pre-)n-plectic) structures and their form brackets.

An (n+1)-form omega is n-plectic when it is closed and the map
X -> i_X omega has trivial kernel.  This module checks closedness,
nondegeneracy, graph closure under the plain and twisted brackets,
solves for admissible n-forms and Hamiltonian (n-1)-forms over
constant-coefficient omega, and implements the bracket of admissible
forms together with the hemi- and semi-brackets of Hamiltonian forms.
Rank probes and solves share one Gauss-Jordan pass over [omega-flat | rhs].
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product

from .courant import CheckResult, Section, cases, deformed_terms, dorfman_bracket, dorfman_terms, pairing
from .courant import anchor, scalar_residual
from .exterior import (
    Form,
    MultiVec,
    Value,
    contract_terms,
    ext_d,
    i_vec,
    lie_form,
    random_multivec,
    random_poly,
)
from .scalar import InputError, Poly


class NotClosedError(InputError):
    """Raised when an operation requires d omega = 0 but omega is not closed."""


class UnsupportedSolveError(InputError):
    """Raised when the exact linear solve needs constant coefficients."""


class InconsistentCandidateError(ValueError):
    """Raised when a field and a form break the equation that would make them a pair."""


class PlecticCandidate(Value):
    """An (n+1)-form omega on the chart ctx, to be tested and used as a multisymplectic structure."""

    _fields = ("ctx", "omega")

    def _check(self):
        self.ctx.require_degree("structure form", 1, self.omega)

    @property
    def is_constant(self) -> bool:
        return all(p.is_constant for p in self.omega.coeffs.values())


def omega_flat(c: PlecticCandidate, X: MultiVec) -> Form:
    """The induced map on vector fields: X -> i_X omega."""
    return i_vec(X, c.omega)


class AdmissiblePair(Value):
    """An n-form alpha together with a vector field x_alpha realizing it as i_X omega of the candidate."""

    _fields = ("candidate", "alpha", "x_alpha")

    def _check(self):
        if self.alpha != i_vec(self.x_alpha, self.candidate.omega):
            raise InconsistentCandidateError("alpha is not i_{x_alpha} omega: pair is not admissible")

    @property
    def section(self) -> Section:
        """The graph section x_alpha + alpha."""
        return Section(self.candidate.ctx, self.x_alpha, self.alpha)


class HamiltonianPair(Value):
    """An (n-1)-form xi together with a vector field x_xi realizing d xi = i_X omega of the candidate."""

    _fields = ("candidate", "xi", "x_xi")

    def _check(self):
        if ext_d(self.xi) != i_vec(self.x_xi, self.candidate.omega):
            raise InconsistentCandidateError("d xi is not i_{x_xi} omega: pair is not Hamiltonian")


# -- exact linear algebra over the rationals ----------------------------------


def _flat_matrix(c: PlecticCandidate, point, rhs: Form | None = None) -> list[list]:
    """Augmented matrix [omega-flat | rhs] against the basis n-forms: the entries of
    X -> i_X omega evaluated at point (a constant omega is read at the origin), then a last
    column of rhs's coefficients, or of zeros without rhs."""
    ctx = c.ctx
    columns = [i_vec(MultiVec.basis(ctx.m, (j,)), c.omega) for j in range(1, ctx.m + 1)]
    return [
        [*(col.coeff(idx).eval_at(point) for col in columns), rhs.coeff(idx) if rhs is not None else Fraction(0)]
        for idx in combinations(range(1, ctx.m + 1), ctx.n)
    ]


def _rank_and_kernel(matrix: list[list], ncols: int):
    """Gauss-Jordan over the rationals of an augmented matrix, in place: (kernel, solution).

    Columns 0..ncols-1 hold the coefficients and column ncols the right-hand side.  kernel
    is one nonzero kernel vector, read from the first free column, or None if the kernel is
    trivial.  solution, read from column ncols, solves the system with free variables set
    to zero (the unique solution for a nondegenerate matrix), or is None if it is inconsistent.
    """
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = Fraction(1) / matrix[r][col]
        matrix[r] = [v * inv for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[col]:
                factor = row[col]
                matrix[i] = [a - factor * p for a, p in zip(row, matrix[r])]
        pivots.append(col)
    free = next((col for col in range(ncols) if col not in pivots), None)
    kernel = None if free is None else [Fraction(col == free) for col in range(ncols)]
    solution = None if any(row[ncols] for row in matrix[len(pivots):]) else [0] * ncols
    for row, col in zip(matrix, pivots):
        if kernel is not None:
            kernel[col] = -row[free]
        if solution is not None:
            solution[col] = row[ncols]
    return kernel, solution


def nondegeneracy_check(c: PlecticCandidate, points) -> CheckResult:
    """Rank test for X -> i_X omega: one elimination of [omega-flat | 0] per probe.

    Constant omega gets one exact global verdict; otherwise the rank is
    evaluated at each supplied rational point, which certifies
    degeneracy exactly but nondegeneracy only at those points.
    Every point is checked, constant omega or not, before any elimination.
    """
    points = list(points)
    if not points:
        raise InputError("at least one evaluation point is required")
    ctx = c.ctx
    for point in points:
        Poly.zero(ctx.m).eval_at(point)
    if c.is_constant:
        check = CheckResult("nondegeneracy_exact_rank", "i_X omega = 0 implies X = 0 (exact rank)")
        probes = [((c.omega,), "", (0,) * ctx.m)]
    else:
        check = CheckResult("nondegeneracy_at_points", "i_X omega = 0 implies X = 0 (rank at the given points)")
        probes = [((c.omega, "(" + ", ".join(map(str, point)) + ")"), "kernel field ", point) for point in points]
    for inputs, label, point in probes:
        kernel, _ = _rank_and_kernel(_flat_matrix(c, point), ctx.m)
        field = kernel and MultiVec(ctx.m, 1, {(j,): v for j, v in enumerate(kernel, 1)})
        check.record_verdict(inputs, kernel is None, f"{label}{field}")
    return check


def _graph_section(c: PlecticCandidate, X: MultiVec) -> Section:
    """The section X + i_X omega of the graph of omega-flat."""
    return Section(c.ctx, X, omega_flat(c, X))


def _random_graph_sections(c: PlecticCandidate, k: int, rng: random.Random) -> tuple[Section, ...]:
    return tuple(_graph_section(c, random_multivec(rng, c.ctx.m, 1)) for _ in range(k))


def _graph_defect(c: PlecticCandidate, e: Section, stream) -> Form:
    """Form part minus i_{vector part} omega of the (vector terms, form terms) stream of a
    section of e's context, zero iff that section lies on the graph of omega-flat."""
    vec, form = stream
    return e.form.summed(form, contract_terms(e.vec.summed(vec), c.omega, -1))


def _coordinate_graph_pairs(c: PlecticCandidate):
    """Pairs of graph sections over all coordinate vector fields, built when first drawn."""
    fields = [_graph_section(c, MultiVec.basis(c.ctx.m, (j,))) for j in range(1, c.ctx.m + 1)]
    yield from product(fields, repeat=2)


# check_plectic certifies the rank of a non-constant omega at the points (t, t^2, ..., t^m) for
# these t: pairwise distinct on every chart, and the origin first.
RANK_POINTS = (0, 1, -1, 2, Fraction(1, 2))

def check_plectic(
    c: PlecticCandidate, seed: int = 0, samples: int = 25, theta: Form | None = None
) -> list[CheckResult]:
    """Rank of omega-flat (exact for constant omega, else at the RANK_POINTS curve points), then
    one sweep of graph pairs X + i_X omega for the two graph theorems: closed under the Dorfman
    bracket iff d omega = 0 and, given theta, under [.,.]_theta iff d omega + theta = 0."""
    if theta is not None:
        c.ctx.require_degree("deformation form", 2, theta)
    sweep = cases(seed, samples, partial(_random_graph_sections, c, 2), _coordinate_graph_pairs(c))
    checks = [nondegeneracy_check(c, [tuple(t**k for k in range(1, c.ctx.m + 1)) for t in RANK_POINTS])]
    d_omega = ext_d(c.omega)
    closed = CheckResult("omega_closed", "d omega = 0")
    closed.record((c.omega,), d_omega)
    closure = CheckResult("graph_closure", "[X + i_X omega, Y + i_Y omega] has form part i_{[X,Y]} omega")
    isotropy = CheckResult("graph_isotropy", "<X + i_X omega, Y + i_Y omega> = 0")
    twisted = CheckResult(
        "deformed_graph_closure", "[X + i_X omega, Y + i_Y omega]_theta has form part i_{[X,Y]} omega"
    )
    for e1, e2 in sweep:
        closure.record((e1, e2), _graph_defect(c, e1, dorfman_terms(e1, e2)))
        isotropy.record((e1, e2), pairing(e1, e2))
        if theta is not None:
            twisted.record((e1, e2), _graph_defect(c, e1, deformed_terms(e1, e2, theta)))
    identity = "the graph is closed iff d omega = 0"
    verdicts = ("d-closed", closed), ("graph-closed", closure)
    checks += [closed, closure, isotropy, CheckResult.iff("closure_iff_closed", identity, (c.omega,), *verdicts)]
    if theta is not None:
        matched = CheckResult("omega_theta_matched", "d omega + theta = 0")
        matched.record((c.omega, theta), d_omega + theta)
        identity = "the graph is closed under [.,.]_theta iff d omega + theta = 0"
        verdicts = ("matched", matched), ("graph-closed", twisted)
        agreement = CheckResult.iff("deformed_closure_iff_matched", identity, (c.omega, theta), *verdicts)
        checks += [matched, twisted, agreement]
    return checks


def solve_admissible(c: PlecticCandidate, alpha: Form) -> AdmissiblePair | None:
    """Exact solve of i_X omega = alpha for constant-coefficient omega.

    Returns None when the linear system is inconsistent (alpha is not
    admissible).  Polynomial-coefficient omega is out of reach for this
    solver; construct an AdmissiblePair directly to verify a candidate.
    """
    ctx = c.ctx
    ctx.require_degree("form", 0, alpha)
    if not c.is_constant:
        raise UnsupportedSolveError(
            "exact solving needs constant-coefficient omega; "
            "supply a candidate vector field and verify it instead"
        )
    _, solution = _rank_and_kernel(_flat_matrix(c, (0,) * ctx.m, alpha), ctx.m)
    if solution is None:
        return None
    field = MultiVec(ctx.m, 1, {(j,): x for j, x in enumerate(solution, 1)})
    return AdmissiblePair(c, alpha, field)


def solve_hamiltonian(c: PlecticCandidate, xi: Form) -> HamiltonianPair | None:
    """Solve d xi = i_X omega for constant-coefficient omega; None if not Hamiltonian."""
    c.ctx.require_degree("form", -1, xi)
    admissible = solve_admissible(c, ext_d(xi))
    if admissible is None:
        return None
    return HamiltonianPair(c, xi, admissible.x_alpha)


def _same_structure(c: PlecticCandidate, p, q) -> None:
    if p.candidate != c or q.candidate != c:
        raise InputError("both pairs must belong to this structure")


def admissible_bracket(c: PlecticCandidate, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
    """Bracket L_{X_a} b - L_{X_b} a - d i_{X_a} i_{X_b} omega with field [X_a, X_b]:
    the Dorfman bracket of X_a + a and X_b + b, as i_{X_b} i_{X_a} = -i_{X_a} i_{X_b}."""
    _same_structure(c, a, b)
    bracket = dorfman_bracket(a.section, b.section)
    return AdmissiblePair(c, bracket.form, bracket.vec)


def hemi_bracket(c: PlecticCandidate, p: HamiltonianPair, q: HamiltonianPair) -> Form:
    """Hemi-bracket of Hamiltonian forms: {xi, eta}_h = L_{X_xi} eta."""
    _same_structure(c, p, q)
    return lie_form(p.x_xi, q.xi)


def semi_bracket(c: PlecticCandidate, p: HamiltonianPair, q: HamiltonianPair) -> Form:
    """Semi-bracket of Hamiltonian forms: {xi, eta}_s = i_{X_xi} i_{X_eta} omega."""
    _same_structure(c, p, q)
    return i_vec(p.x_xi, i_vec(q.x_xi, c.omega))


def check_admissible_lie_algebroid(
    c: PlecticCandidate, seed: int = 0, samples: int = 25
) -> list[CheckResult]:
    """Lie-algebroid identities for the bracket of admissible forms.

    Pairs are generated backwards as graph sections X + i_X omega, which
    sidesteps the fact that the flat map need not be surjective, and are
    bracketed with the Dorfman bracket, which is admissible_bracket on them.
    Requires d omega = 0 exactly; the identities fail otherwise.
    """
    sweep = cases(
        seed, samples, lambda rng: (*_random_graph_sections(c, 3, rng), random_poly(rng, c.ctx.m))
    )
    if not ext_d(c.omega).is_zero:
        raise NotClosedError("omega is not closed; the admissible bracket needs d omega = 0")
    skew = CheckResult("skew_symmetry", "[a,b]_w + [b,a]_w = 0")
    jacobi = CheckResult("jacobi_identity", "[[a,b]_w,c]_w + [[b,c]_w,a]_w + [[c,a]_w,b]_w = 0")
    anchored = CheckResult("anchor_property", "form part of [a,b]_w equals i_{[X_a,X_b]} omega")
    scalar_rule = CheckResult("scalar_rule", "[a, f*b]_w = f*[a,b]_w + X_a(f)*b")
    for a, b, e, f in sweep:
        ab = dorfman_bracket(a, b)
        skew.record((a.form, b.form), a.summed(ab.terms(), dorfman_terms(b, a)))
        bc, ca = dorfman_bracket(b, e), dorfman_bracket(e, a)
        cyclic = dorfman_terms(ab, e), dorfman_terms(bc, a), dorfman_terms(ca, b)
        jacobi.record((a.form, b.form, e.form), a.summed(*cyclic))
        anchored.record((a.form, b.form), _graph_defect(c, a, ab.terms()))
        scalar_rule.record((a.form, b.form, f), scalar_residual(dorfman_terms, anchor, a, b, f, ab))
    return [skew, jacobi, anchored, scalar_rule]
