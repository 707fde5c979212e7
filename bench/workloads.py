"""Seeded job streams for the three benchmark workloads, with known answers.

A job is one `hicourant` command line (an argv list handed to
`hicourant.cli.main`) together with the answer it must produce.  Jobs
come in rounds: every round holds one job per template of its workload,
in a seeded order, so any prefix of the stream keeps the workload's job
mix to within one round.  Round r of a workload depends only on the
workload name, the seed and r.

The expected exit codes and per-check verdicts below are derived from
the theorems the suites test, not from recorded output:

* Dorfman and Courant identities hold for every pair of sections
  (Leibniz algebroid; Jacobi up to the exact term d T).
* A multivector of top degree m is always Nambu-Poisson, and so is a
  constant decomposable one.  A Nambu-Poisson tensor of order >= 3 is
  locally decomposable (Gautheron; Alekseevsky-Guha) and spans an
  integrable distribution, so a non-decomposable constant tensor or a
  decomposable one on a non-involutive distribution is not.  The graph
  of pi# is closed under the Dorfman bracket iff pi is Nambu-Poisson.
* Constant forms are closed.  A symplectic form and a top-degree volume
  form are nondegenerate; a 2-form in odd dimension never is.  The graph
  of omega-flat is closed iff d omega = 0, and the admissible bracket of
  a closed form is a Lie algebroid.
* The theta-twisted bracket is Leibniz iff d theta = 0; the constant
  coordinate sweep makes the failure deterministic.
* The gauge shear intertwines the d(phi)-twisted and plain brackets for
  every phi, and is an automorphism when d phi = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

DORFMAN_CHECKS = (
    "leibniz_identity",
    "scalar_rule_left",
    "scalar_rule_right",
    "pairing_compat",
    "anchor_morphism",
)
COURANT_CHECKS = ("jacobiator_exact_term", "scalar_rule", "anchor_morphism", "pairing_compat")
NAMBU_ALGEBROID_CHECKS = (
    "form_bracket_leibniz",
    "anchor_morphism",
    "scalar_rule",
    "nm1_bracket_leibniz",
    "bracket_comparison",
)


def _all_pass(*names: str) -> dict[str, bool]:
    return {name: True for name in names}


@dataclass(frozen=True)
class Fixture:
    """A structure-tensor input with its known verdicts.

    `residuals` gives the exact canonical text of residual witnesses that
    the theory fixes, such as d omega for a non-closed omega.
    """

    target: str
    m: int
    n: int
    flags: tuple[str, ...]
    checks: dict[str, bool]
    residuals: dict[str, str] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 0 if all(self.checks.values()) else 1


_NAMBU_PASSES = _all_pass(
    "fundamental_identity", "graph_closure_dorfman", "closure_iff_fundamental", *NAMBU_ALGEBROID_CHECKS
)
_NAMBU_FAILS = {
    "fundamental_identity": False,
    "graph_closure_dorfman": False,
    "closure_iff_fundamental": True,
}
_PLECTIC_PASSES = _all_pass(
    "nondegeneracy_exact_rank", "omega_closed", "graph_closure", "graph_isotropy", "closure_iff_closed"
)
_ADMISSIBLE_PASSES = _all_pass("skew_symmetry", "jacobi_identity", "anchor_property", "scalar_rule")
_DEFORMATION_PASSES = _all_pass("theta_closed", "deformed_leibniz", "closed_iff_leibniz")

FIXTURES: dict[str, Fixture] = {
    # top degree: always Nambu-Poisson
    "nambu-top-3-2": Fixture("nambu", 3, 2, ("--pi", "@1^@2^@3"), _NAMBU_PASSES),
    "nambu-top-4-3": Fixture("nambu", 4, 3, ("--pi", "@1^@2^@3^@4"), _NAMBU_PASSES),
    # constant decomposable: Nambu-Poisson
    "nambu-dec-5-3a": Fixture("nambu", 5, 3, ("--pi", "@1^@2^@3^@4"), _NAMBU_PASSES),
    "nambu-dec-5-3b": Fixture("nambu", 5, 3, ("--pi", "@2^@3^@4^@5"), _NAMBU_PASSES),
    "nambu-dec-5-3c": Fixture("nambu", 5, 3, ("--pi", "@1^@3^@4^@5"), _NAMBU_PASSES),
    # @3 ^ (@1^@2 + @4^@5) is not decomposable: not Nambu-Poisson
    "nambu-nondec-5-2": Fixture("nambu", 5, 2, ("--pi", "@1^@2^@3 + @3^@4^@5"), _NAMBU_FAILS),
    # @1 ^ @2 ^ (@3 + x1*@4): [@1, @3 + x1*@4] = @4 leaves the span, not Nambu-Poisson
    "nambu-noninv-4-2": Fixture("nambu", 4, 2, ("--pi", "@1^@2^@3 + x1*@1^@2^@4"), _NAMBU_FAILS),
    "plectic-sympl-4-1": Fixture("plectic", 4, 1, ("--omega", "dx1^dx2 + dx3^dx4"), _PLECTIC_PASSES),
    "plectic-vol-3-2": Fixture("plectic", 3, 2, ("--omega", "dx1^dx2^dx3"), _PLECTIC_PASSES),
    "plectic-vol-4-3": Fixture("plectic", 4, 3, ("--omega", "dx1^dx2^dx3^dx4"), _PLECTIC_PASSES),
    # a 2-form in dimension 3 is degenerate everywhere; d(x1 dx2^dx3) = dx1^dx2^dx3
    "plectic-open-3-1": Fixture(
        "plectic",
        3,
        1,
        ("--omega", "x1*dx2^dx3"),
        {
            "nondegeneracy_at_points": False,
            "omega_closed": False,
            "graph_closure": False,
            "graph_isotropy": True,
            "closure_iff_closed": True,
        },
        {"omega_closed": "dx1^dx2^dx3"},
    ),
    "admissible-sympl-4-1": Fixture(
        "admissible", 4, 1, ("--omega", "dx1^dx2 + dx3^dx4"), _ADMISSIBLE_PASSES
    ),
    "admissible-vol-3-2": Fixture("admissible", 3, 2, ("--omega", "dx1^dx2^dx3"), _ADMISSIBLE_PASSES),
    # d(x1 dx1^dx2^dx3) = dx1^dx1^dx2^dx3 = 0
    "deformation-closed-4-1": Fixture(
        "deformation", 4, 1, ("--theta", "x1*dx1^dx2^dx3"), _DEFORMATION_PASSES
    ),
    # d(x4 dx1^dx2^dx3) = dx4^dx1^dx2^dx3 = -dx1^dx2^dx3^dx4
    "deformation-open-4-1": Fixture(
        "deformation",
        4,
        1,
        ("--theta", "x4*dx1^dx2^dx3"),
        {"theta_closed": False, "deformed_leibniz": False, "closed_iff_leibniz": True},
        {"theta_closed": "-dx1^dx2^dx3^dx4"},
    ),
    # d(x3 dx1^dx2) != 0: the intertwiner alone
    "gauge-open-3-1": Fixture("gauge", 3, 1, ("--phi", "x3*dx1^dx2"), _all_pass("gauge_intertwiner")),
    "gauge-open-4-2": Fixture(
        "gauge", 4, 2, ("--phi", "x4*dx1^dx2^dx3"), _all_pass("gauge_intertwiner")
    ),
    # closed phi: the shear is also an automorphism
    "gauge-closed-3-1": Fixture(
        "gauge", 3, 1, ("--phi", "dx1^dx2"), _all_pass("gauge_intertwiner", "gauge_automorphism")
    ),
}


@dataclass(frozen=True)
class Job:
    """One command line and the answer it must give.

    For a check job, `checks` maps every check the report must contain
    to its verdict.  For a bracket job, `operands` holds the two section
    texts and `coordinate` the index j of the left operand (@j ; 0).
    """

    label: str
    argv: tuple[str, ...]
    m: int
    n: int
    exit_code: int
    checks: dict[str, bool] = field(default_factory=dict)
    residuals: dict[str, str] = field(default_factory=dict)
    bracket: str = ""
    operands: tuple[str, str] = ("", "")
    coordinate: int = 0


def _seed_flag(rng: random.Random) -> tuple[str, str]:
    return ("--seed", str(rng.randrange(1_000_000)))


def _axiom_job(suite: str, m: int, n: int, samples: int):
    checks = _all_pass(*(DORFMAN_CHECKS if suite == "dorfman-axioms" else COURANT_CHECKS))

    def make(rng: random.Random) -> Job:
        argv = ("check", suite, "-m", str(m), "-n", str(n), "--samples", str(samples))
        return Job(f"{suite}-{m}-{n}-s{samples}", argv + _seed_flag(rng) + ("--json",), m, n, 0, checks)

    return make


def _fixture_job(names: str | tuple[str, ...], samples: int):
    """A check of one fixture, or of a seeded choice among several."""
    choices = (names,) if isinstance(names, str) else names

    def make(rng: random.Random) -> Job:
        name = rng.choice(choices)
        fx = FIXTURES[name]
        argv = ("check", fx.target, "-m", str(fx.m), "-n", str(fx.n), *fx.flags)
        argv += ("--samples", str(samples)) + _seed_flag(rng) + ("--json",)
        return Job(name, argv, fx.m, fx.n, fx.exit_code, fx.checks, fx.residuals)

    return make


# Large-operand generator for the io workload: dense rational coefficients
# of degree <= 3, printed in a non-canonical order with repeated monomials,
# so the parser has to merge terms and the printer to reorder them.


def _poly_text(rng: random.Random, m: int, terms: int) -> str:
    pieces = []
    for t in range(terms):
        coeff = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4, 5)))
        factors = [str(coeff)] + [f"x{rng.randint(1, m)}" for _ in range(rng.randint(0, 3))]
        sign = rng.choice("+-")
        text = "*".join(factors)
        pieces.append((f"-{text}" if sign == "-" else text) if t == 0 else f" {sign} {text}")
    return "".join(pieces)


def _section_text(rng: random.Random, m: int, n: int, terms: int) -> str:
    vec = " + ".join(f"({_poly_text(rng, m, terms)})*@{i}" for i in range(1, m + 1))
    form = " + ".join(
        f"({_poly_text(rng, m, terms)})*" + "^".join(f"dx{i}" for i in idx)
        for idx in combinations(range(1, m + 1), n)
    )
    return f"({vec} ; {form})"


def _bracket_job(kind: str, m: int, n: int, terms: int):
    def make(rng: random.Random) -> Job:
        j = rng.randint(1, m)
        left, right = f"(@{j} ; 0)", _section_text(rng, m, n, terms)
        argv = ("bracket", kind, "-m", str(m), "-n", str(n), left, right)
        return Job(f"bracket-{kind}-{m}-{n}", argv, m, n, 0, bracket=kind, operands=(left, right), coordinate=j)

    return make


def _repeat(template, times: int) -> tuple:
    return (template,) * times


# Each mix is laid out so that the median and the 90th percentile of job
# time fall inside a group of similar jobs, not in the gap between two
# groups, where they would jump with every seed: in `axioms` the median
# sits among the (3,x) jobs of 4-6 samples and the 90th percentile among
# the (4,2) two-sample jobs, below the single (5,2) tail job; in
# `structures` the median sits among the ~0.03 s jobs and the 90th
# percentile among the four nambu (4,3) jobs, below the one nambu (5,3)
# tail job; in `io` they sit among the brackets and the failing checks
# that carry the most witnesses.
TEMPLATES = {
    "axioms": (
        *_repeat(_axiom_job("dorfman-axioms", 3, 1, 2), 3),
        *_repeat(_axiom_job("courant-axioms", 3, 1, 2), 2),
        *_repeat(_axiom_job("dorfman-axioms", 3, 2, 2), 2),
        *_repeat(_axiom_job("courant-axioms", 3, 2, 2), 2),
        *_repeat(_axiom_job("dorfman-axioms", 3, 2, 4), 4),
        *_repeat(_axiom_job("dorfman-axioms", 3, 1, 6), 4),
        *_repeat(_axiom_job("courant-axioms", 4, 2, 1), 2),
        *_repeat(_axiom_job("dorfman-axioms", 4, 2, 2), 4),
        _axiom_job("dorfman-axioms", 5, 2, 1),
    ),
    "structures": (
        *_repeat(_fixture_job("plectic-vol-3-2", 5), 2),
        *_repeat(_fixture_job("plectic-sympl-4-1", 5), 2),
        *_repeat(_fixture_job("plectic-vol-4-3", 5), 2),
        *_repeat(_fixture_job("gauge-open-3-1", 4), 2),
        *_repeat(_fixture_job("gauge-closed-3-1", 4), 2),
        *_repeat(_fixture_job("nambu-top-3-2", 2), 2),
        *_repeat(_fixture_job("admissible-vol-3-2", 2), 2),
        *_repeat(_fixture_job("gauge-open-4-2", 3), 3),
        _fixture_job("admissible-sympl-4-1", 2),
        _fixture_job("deformation-closed-4-1", 2),
        *_repeat(_fixture_job("nambu-top-4-3", 1), 4),
        _fixture_job(("nambu-dec-5-3a", "nambu-dec-5-3b", "nambu-dec-5-3c"), 1),
    ),
    "io": (
        *_repeat(_bracket_job("dorfman", 5, 2, 12), 3),
        *_repeat(_bracket_job("courant", 5, 2, 12), 3),
        *_repeat(_bracket_job("dorfman", 4, 1, 30), 2),
        *_repeat(_bracket_job("courant", 4, 1, 30), 2),
        *_repeat(_bracket_job("dorfman", 4, 2, 18), 2),
        _bracket_job("courant", 4, 2, 18),
        *_repeat(_fixture_job("plectic-open-3-1", 3), 2),
        _fixture_job("nambu-noninv-4-2", 1),
        *_repeat(_fixture_job("nambu-nondec-5-2", 1), 2),
        *_repeat(_fixture_job("deformation-open-4-1", 1), 2),
    ),
}

WORKLOADS = tuple(TEMPLATES)


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """Round `index` of a workload's job stream: one job per template, shuffled."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = [make(rng) for make in TEMPLATES[workload]]
    rng.shuffle(jobs)
    return jobs
