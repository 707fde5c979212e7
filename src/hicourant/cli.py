"""Command-line surface: parse the flags, make one library call (a BRACKETS
kind or a CHECK_TARGETS suite), report.

Exit codes: 0 when every check passed, 1 when a check failed (the report
is still emitted), 2 when the input is refused.  A refusal is a
scalar.InputError, raised by the library's own checks (a chart or sample
count out of range, a tensor of the wrong degree, a DSL error, an exponent
above scalar.MAX_EXPONENT, a non-closed omega given to the admissible
suite) or here (an argparse error, a structure flag the command does not
read, or a required one missing).  Any other exception is a program fault
and escapes; `--help` exits 0.  A closed stdout exits 141 (128 + SIGPIPE)
with nothing on stderr.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from functools import cache

from . import courant, nambu, plectic
from .courant import CheckResult
from .dsl import parse, parse_form, parse_multivec, parse_section
from .exterior import Context, Form
from .scalar import InputError


# The tensor each structure flag holds: its kind and its degree minus n.
STRUCTURES = {"theta": ("form", 2), "phi": ("form", 1), "pi": ("multivec", 1), "omega": ("form", 1)}


def _structures(args, ctx: Context, owner: str, reads, required=()) -> dict:
    """Parse the given flags of `reads` into tensors keyed by flag.  Any other given
    structure flag, or a `required` one missing or empty, is a usage error for `owner`."""
    for flag in STRUCTURES:
        if getattr(args, flag, None) is not None and flag not in reads:
            raise InputError(f"--{flag} is not read by {owner}")
    for flag in required:
        if not getattr(args, flag):
            raise InputError(f"--{flag} is required for {owner}")
    tensors = {}
    for flag in reads:
        if getattr(args, flag) is not None:
            kind, extra = STRUCTURES[flag]
            tensors[flag] = parse(getattr(args, flag), ctx, (kind, ctx.n + extra))
    return tensors


def _random_scope(_ctx, args, **_) -> str:
    return f"{args.samples} seeded random samples with polynomial coefficients of degree <= 2"


def _plectic_scope(ctx: Context, args, omega: Form, **_) -> str:
    if plectic.PlecticCandidate(ctx, omega).is_constant:
        rank = "exact global rank test"
    else:
        rank = f"rank certified only at {len(plectic.RANK_POINTS)} fixed rational points"
    return f"{rank}; closure over all coordinate-vector pairs plus {args.samples} seeded random pairs"


class CheckTarget:
    """What `check <target>` runs and reports.

    flags names the structure flags the target reads (see STRUCTURES);
    the first is required and any other is refused.  suite(ctx, args,
    **tensors) gives the checks and scope(ctx, args, **tensors) the
    quantifier_scope text, with each given flag's tensor passed by name.
    """

    def __init__(self, suite: Callable, flags: tuple[str, ...] = (), scope: Callable = _random_scope):
        self.suite, self.flags, self.scope = suite, flags, scope


CHECK_TARGETS = {
    "courant-axioms": CheckTarget(lambda ctx, a: courant.check_courant_axioms(ctx, a.seed, a.samples)),
    "dorfman-axioms": CheckTarget(lambda ctx, a: courant.check_dorfman_axioms(ctx, a.seed, a.samples)),
    "deformation": CheckTarget(
        lambda ctx, a, theta: courant.check_deformation(ctx, theta, a.seed, a.samples),
        ("theta",),
        lambda _ctx, a, **_: f"exhaustive constant coordinate-vector triples plus {a.samples} "
        "seeded random triples",
    ),
    "gauge": CheckTarget(
        lambda ctx, a, phi: courant.check_gauge_isomorphism(ctx, phi, a.seed, a.samples),
        ("phi",),
    ),
    "nambu": CheckTarget(
        lambda ctx, a, pi: nambu.check_nambu(nambu.NambuCandidate(ctx, pi), a.seed, a.samples),
        ("pi",),
        lambda _ctx, a, **_: "fundamental identity for all smooth f1..fn (it depends only on their "
        "2-jets: all n-tuples of distinct monomials of total degree 1..2 were swept); graph "
        f"closure over all constant basis n-form pairs plus {a.samples} seeded random pairs",
    ),
    "plectic": CheckTarget(
        lambda ctx, a, omega, theta=None: plectic.check_plectic(
            plectic.PlecticCandidate(ctx, omega), a.seed, a.samples, theta
        ),
        ("omega", "theta"),
        _plectic_scope,
    ),
    "admissible": CheckTarget(
        lambda ctx, a, omega: plectic.check_admissible_lie_algebroid(
            plectic.PlecticCandidate(ctx, omega), a.seed, a.samples
        ),
        ("omega",),
    ),
}


# Each bracket kind: the structure flags it requires, and its bracket of (e1, e2, **tensors),
# which looks the courant function up when called (bench/tracer.py rebinds those names).
BRACKETS = {
    "courant": ((), lambda e1, e2: courant.courant_bracket(e1, e2)),
    "dorfman": ((), lambda e1, e2: courant.dorfman_bracket(e1, e2)),
    "deformed": (("theta",), lambda e1, e2, theta: courant.deformed_dorfman(e1, e2, theta)),
}


class SuiteReport:
    """One suite run.  Its fields, in order and then `passed`, are its JSON report's keys."""

    def __init__(
        self, suite: str, m: int, n: int, seed: int, params: dict, quantifier_scope: str, checks: list[CheckResult]
    ):
        self.suite, self.m, self.n, self.seed = suite, m, n, seed
        self.params, self.quantifier_scope, self.checks = params, quantifier_scope, checks

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> str:
        checks = [
            {**vars(check), "failures": [vars(f) for f in check.failures], "passed": check.passed}
            for check in self.checks
        ]
        return json.dumps({**vars(self), "checks": checks, "passed": self.passed}, indent=2)

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite} (m={self.m}, n={self.n}) seed={self.seed} samples={self.params['samples']}",
            f"scope: {self.quantifier_scope}",
        ]
        for check in self.checks:
            mark = "ok  " if check.passed else "FAIL"
            lines.append(f"  {mark} {check.name}  cases={check.cases}")
            for failure in check.failures[:3]:
                lines.append(f"       inputs:   {' | '.join(failure.inputs)}")
                lines.append(f"       residual: {failure.residual}")
            if len(check.failures) > 3:
                lines.append(f"       ... {len(check.failures) - 3} more failures")
        lines.append(f"result: {'PASSED' if self.passed else 'FAILED'}")
        return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """An argument parser, and its subcommand parsers, whose refusals are InputErrors
    and which read only whole option names, never a unique prefix of one."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        # argparse's own printer swallows an OSError, so `--help` into a closed stdout would exit 0
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; choices read the
    live BRACKETS and CHECK_TARGETS dicts."""
    parser = _Parser(
        prog="hicourant",
        description="exact bracket calculus on the generalized tangent bundle TM (+) Wedge^n T*M",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", "-m", type=int, required=True, help="chart dimension m")
        p.add_argument("--order", "-n", type=int, required=True, help="bracket order n")

    bracket = sub.add_parser("bracket", help="compute a bracket of two sections")
    common(bracket)
    bracket.add_argument("kind", choices=BRACKETS)
    bracket.add_argument("e1", help="first section, e.g. '(@1 ; x2*dx1)'")
    bracket.add_argument("e2", help="second section")
    bracket.add_argument("--theta", help="deformation (n+2)-form, required for kind=deformed")

    check = sub.add_parser("check", help="run an identity suite and report")
    common(check)
    check.add_argument("target", choices=CHECK_TARGETS)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--samples", type=int, default=25)
    check.add_argument("--json", action="store_true", help="emit the JSON report")
    check.add_argument("--theta", help="deformation (n+2)-form")
    check.add_argument("--phi", help="gauge (n+1)-form")
    check.add_argument("--pi", help="(n+1)-vector field candidate")
    check.add_argument("--omega", help="(n+1)-form candidate")

    solve = sub.add_parser("solve-hamiltonian", help="solve d xi = i_X omega for X")
    common(solve)
    solve.add_argument("--omega", required=True, help="(n+1)-form, constant coefficients to solve")
    solve.add_argument("--xi", required=True, help="(n-1)-form")
    solve.add_argument("--with-x", dest="with_x", help="candidate field to verify instead of solving")

    return parser


def _run_check(args, ctx: Context) -> SuiteReport:
    target = CHECK_TARGETS[args.target]
    tensors = _structures(args, ctx, f"target={args.target}", target.flags, target.flags[:1])
    checks = target.suite(ctx, args, **tensors)
    scope = target.scope(ctx, args, **tensors)
    return SuiteReport(args.target, ctx.m, ctx.n, args.seed, {"samples": args.samples}, scope, checks)


def _cmd_bracket(args, ctx: Context) -> int:
    flags, bracket = BRACKETS[args.kind]
    tensors = _structures(args, ctx, f"kind={args.kind}", flags, flags)
    print(bracket(parse_section(args.e1, ctx), parse_section(args.e2, ctx), **tensors))
    return 0


def _cmd_check(args, ctx: Context) -> int:
    report = _run_check(args, ctx)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.passed else 1


def _cmd_solve(args, ctx: Context) -> int:
    # argparse requires --omega, so an empty one is a parse error
    omega = _structures(args, ctx, "solve-hamiltonian", ("omega",))["omega"]
    candidate = plectic.PlecticCandidate(ctx, omega)
    xi = parse_form(args.xi, ctx, ctx.n - 1)
    if args.with_x is not None:
        field = parse_multivec(args.with_x, ctx, 1)
        try:
            plectic.HamiltonianPair(candidate, xi, field)
        except plectic.InconsistentCandidateError:
            print("candidate-rejected")
            return 1
        print(field)
        return 0
    if not candidate.is_constant:
        raise InputError("omega has non-constant coefficients; pass --with-x to verify a candidate field")
    pair = plectic.solve_hamiltonian(candidate, xi)
    if pair is None:
        print("not-hamiltonian")
        return 0
    print(pair.x_xi)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        ctx = Context(args.dim, args.order)
        run = {"bracket": _cmd_bracket, "check": _cmd_check, "solve-hamiltonian": _cmd_solve}[args.command]
        code = run(args, ctx)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # 128 + SIGPIPE, as a shell reports a writer that a closed pipe killed; fd 1 on devnull
        # makes the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
