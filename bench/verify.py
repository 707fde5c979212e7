"""Check one job's captured output against its known answer.

A check job must exit with the expected code and report exactly the
expected checks with the expected verdicts.  Every residual witness it
prints must re-parse: render(parse(s)) == s.  A bracket job must print
a canonical section equal both to the library bracket of the parsed
operands and to the closed form that the coordinate operand (@j ; 0)
gives (see `coordinate_bracket`).
"""

from __future__ import annotations

import json

from hicourant import courant, dsl
from hicourant.exterior import Context, Form, MultiVec, ext_d, i_vec

# Surface kind of each witness string of the checks a fixture expects to
# fail, as a function of the order n: (kinds of the inputs, kind of the
# residual).  A kind is the `expected` argument of dsl.parse, or None for
# text outside the expression language (points, verdict notes).  The
# last input kind repeats for further inputs.
WITNESS_KINDS = {
    "fundamental_identity": lambda n: (("scalar",), ("multivec", n + 1)),
    "graph_closure_dorfman": lambda n: ((("form", n),), ("multivec", 1)),
    "omega_closed": lambda n: ((("form", n + 1),), ("form", n + 2)),
    "graph_closure": lambda n: (("section",), ("form", n)),
    "theta_closed": lambda n: ((("form", n + 2),), ("form", n + 3)),
    "deformed_leibniz": lambda n: (("section",), "section"),
    "nondegeneracy_at_points": lambda n: ((("form", n + 1), None), None),
}


def replay(text: str, expected, ctx: Context) -> str | None:
    """None when text re-parses to itself, else a description of the mismatch."""
    rendered = dsl.render(dsl.parse(text, ctx, expected))
    if rendered != text:
        return f"witness {text!r} re-renders as {rendered!r}"
    return None


def _witness_problems(check: dict, ctx: Context) -> list[str]:
    name = check["name"]
    if "_iff_" in name:
        return []
    if name not in WITNESS_KINDS:
        return [f"no witness kind known for failing check {name}"]
    input_kinds, residual_kind = WITNESS_KINDS[name](ctx.n)
    problems = []
    for failure in check["failures"]:
        for position, text in enumerate(failure["inputs"]):
            kind = input_kinds[min(position, len(input_kinds) - 1)]
            if kind is not None:
                problems.append(replay(text, kind, ctx))
        if residual_kind is not None:
            problems.append(replay(failure["residual"], residual_kind, ctx))
    return [p for p in problems if p]


def check_report(job, exit_code: int, stdout: str) -> tuple[list[str], int, int]:
    """Problems found in a check job's JSON report, its cases and its witnesses."""
    problems = []
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code}, expected {job.exit_code}")
    report = json.loads(stdout)
    ctx = Context(job.m, job.n)
    seen = {check["name"]: check for check in report["checks"]}
    if set(seen) != set(job.checks):
        problems.append(f"checks {sorted(seen)}, expected {sorted(job.checks)}")
    for name, passed in job.checks.items():
        check = seen.get(name)
        if check is None:
            continue
        if check["passed"] != passed or check["passed"] == bool(check["failures"]):
            problems.append(f"{name}: passed={check['passed']}, expected {passed}")
        if check["cases"] < 1:
            problems.append(f"{name}: no cases")
        if not check["passed"]:
            problems.extend(_witness_problems(check, ctx))
        known = job.residuals.get(name)
        if known is not None and any(f["residual"] != known for f in check["failures"]):
            problems.append(f"{name}: residual is not {known!r}")
    if report["passed"] != all(job.checks.values()):
        problems.append(f"report passed={report['passed']}")
    cases = sum(check["cases"] for check in report["checks"])
    return problems, cases, sum(len(check["failures"]) for check in report["checks"])


def coordinate_bracket(kind: str, j: int, e: courant.Section) -> courant.Section:
    """Closed form of [(@j ; 0), (Y ; b)].

    The Dorfman bracket is ([@j, Y] ; L_@j b) = (d_j Y ; d_j b), taken
    coefficient by coefficient; the Courant bracket subtracts
    d<e1, e2> = d(i_@j b) / 2.
    """
    m = e.ctx.m
    vec = MultiVec(m, 1, {idx: p.partial(j) for idx, p in e.vec.coeffs.items()})
    form = Form(m, e.ctx.n, {idx: p.partial(j) for idx, p in e.form.coeffs.items()})
    if kind == "courant":
        form = form - courant.HALF * ext_d(i_vec(MultiVec.basis(m, (j,)), e.form))
    return courant.Section(e.ctx, vec, form)


_BRACKETS = {"dorfman": courant.dorfman_bracket, "courant": courant.courant_bracket}


def check_bracket(job, exit_code: int, stdout: str) -> tuple[list[str], int, int]:
    """Problems found in a bracket job's printed section; a bracket is one case."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"], 1, 0
    ctx = Context(job.m, job.n)
    text = stdout.rstrip("\n")
    problems = [replay(text, "section", ctx)]
    printed = dsl.parse_section(text, ctx)
    e1, e2 = (dsl.parse_section(operand, ctx) for operand in job.operands)
    if printed != _BRACKETS[job.bracket](e1, e2):
        problems.append("output differs from the library bracket of the operands")
    if printed != coordinate_bracket(job.bracket, job.coordinate, e2):
        problems.append("output differs from the coordinate-derivative closed form")
    return [p for p in problems if p], 1, 0


def check_job(job, exit_code: int, stdout: str) -> tuple[list[str], int, int]:
    """Problems with one job's output (empty when correct), its cases and witnesses.

    Any exception while reading the output is itself a problem.
    """
    try:
        if job.bracket:
            return check_bracket(job, exit_code, stdout)
        return check_report(job, exit_code, stdout)
    except Exception as exc:  # malformed output of any kind is a wrong answer
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0, 0
