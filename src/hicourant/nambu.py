"""Nambu-Poisson tensors and the structures they induce on forms.

An (n+1)-vector field pi is Nambu-Poisson exactly when
L_{pi#(df1 ^ ... ^ dfn)} pi = 0 for all scalar functions f1..fn.  This
module decides that criterion with a finite monomial sweep (the identity
depends only on the 2-jets of the f_i), checks closure of the graph of
pi# under the higher-order brackets, and builds the induced bracket on
n-forms and the Leibniz bracket on (n-1)-forms.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import chain, combinations, product

from .courant import CheckResult, Section, cases, dorfman_terms, leibniz_residual
from .courant import anchor_residual, scalar_residual
from .exterior import (
    Context,
    Form,
    MultiVec,
    Value,
    contract_form_into_vec,
    contract_terms,
    d_scalar,
    ext_d,
    full_pair,
    lie_multivec,
    lie_terms,
    random_form,
    random_poly,
)
from .scalar import Poly, monomials_up_to


class NambuCandidate(Value):
    """An (n+1)-vector field pi on the chart ctx, to be tested and used as a Nambu-Poisson tensor."""

    _fields = ("ctx", "pi")

    def _check(self):
        self.ctx.require_degree("tensor", 1, self.pi)


def pi_sharp(c: NambuCandidate, xi: Form) -> MultiVec:
    """The induced map on n-forms: pi#(xi) = i_xi pi."""
    c.ctx.require_degree("form", 0, xi)
    return contract_form_into_vec(xi, c.pi)


def _graph_section(c: NambuCandidate, a: Form) -> Section:
    """The section pi#a + a of the graph of pi#."""
    return Section(c.ctx, pi_sharp(c, a), a)


def np_fundamental_check(c: NambuCandidate) -> CheckResult:
    """Evaluate L_{pi#(df1 ^ ... ^ dfn)} pi on all n-tuples of distinct monomials
    of total degree 1..2, whose verdict holds for all smooth f1..fn.

    The expression is linear and alternating in the df_i and differentiates
    each once more, so at each point it depends only on the 2-jets of the f_i;
    every 2-jet is the 2-jet of a polynomial of degree <= 2, a sum of these
    monomials and a constant (df = 0).  Tuples come in combinations order, and
    each prefix contraction i_{dfk} ... i_{df1} pi = i_{df1 ^ ... ^ dfk} pi is
    built once, so a tuple's pi#(df1 ^ ... ^ dfn) is one contraction more.
    """
    ctx = c.ctx
    check = CheckResult("fundamental_identity", "L_{pi#(df1^...^dfn)} pi = 0")
    monomials = [Poly(ctx.m, {exps: 1}) for exps in monomials_up_to(ctx.m, 2) if any(exps)]
    differentials = [d_scalar(f) for f in monomials]

    def sweep(start: int, fs: tuple, prefix: MultiVec) -> None:
        if len(fs) == ctx.n:
            check.record(fs, lie_multivec(prefix, c.pi))
            return
        for i in range(start, len(monomials) - (ctx.n - len(fs) - 1)):
            sweep(i + 1, fs + (monomials[i],), contract_form_into_vec(differentials[i], prefix))

    sweep(0, (), c.pi)
    return check


def graph_closure_check(c: NambuCandidate, seed: int = 0, samples: int = 25) -> CheckResult:
    """Check that the graph of pi# is preserved by the Dorfman bracket.

    Sweeps every ordered pair of constant basis n-forms (which is what
    finds failures deterministically) plus seeded random pairs, building
    each graph section pi#a + a once, and passes iff the bracket of two
    graph sections lands back on the graph: vector part equal to pi# of
    the form part, exactly.
    """
    ctx = c.ctx

    def basis_pairs():
        basis = [_graph_section(c, Form.basis(ctx.m, idx)) for idx in combinations(range(1, ctx.m + 1), ctx.n)]
        yield from product(basis, repeat=2)

    def pair(rng):
        return tuple(_graph_section(c, random_form(rng, ctx.m, ctx.n)) for _ in range(2))

    check = CheckResult("graph_closure_dorfman", "[pi#a + a, pi#b + b] stays in the graph of pi# (dorfman bracket)")
    for ga, gb in cases(seed, samples, pair, basis_pairs()):
        vec, form = dorfman_terms(ga, gb)  # [ga, gb]'s vector part minus pi# of its form part
        check.record((ga.form, gb.form), ga.vec.summed(vec, contract_terms(ga.form.summed(form), c.pi, -1)))
    return check


def _nambu_form_terms(c: NambuCandidate, a: Form, b: Form, scale=1):
    """The stream of scale * [a, b]_pi, see nambu_form_bracket; the vector part is never built."""
    return dorfman_terms(_graph_section(c, a), _graph_section(c, b), scale)[1]


def nambu_form_bracket(c: NambuCandidate, a: Form, b: Form) -> Form:
    """Induced bracket on n-forms: L_{pi#a} b - L_{pi#b} a + d i_{pi#b} a,
    the form part of the Dorfman bracket of the graph sections pi#a + a, pi#b + b."""
    return a.summed(_nambu_form_terms(c, a, b))


def _marrero_terms(c: NambuCandidate, a: Form, b: Form, scale=1):
    c.ctx.require_degree("both forms", 0, a, b)
    pair = full_pair(c.pi, ext_d(a))
    sign = -scale if (c.ctx.n + 1) % 2 else scale
    return chain(lie_terms(pi_sharp(c, a), b, scale), b.terms(sign, pair))


def marrero_bracket(c: NambuCandidate, a: Form, b: Form) -> Form:
    """Comparison bracket on n-forms: L_{pi#a} b + (-1)^{n+1} <pi, da> b."""
    return b.summed(_marrero_terms(c, a, b))


def _nm1_terms(c: NambuCandidate, xi: Form, eta: Form, scale=1):
    c.ctx.require_degree("both forms", -1, xi, eta)
    return lie_terms(pi_sharp(c, ext_d(xi)), eta, scale)


def leibniz_nm1_bracket(c: NambuCandidate, xi: Form, eta: Form) -> Form:
    """Leibniz bracket on (n-1)-forms: {xi, eta} = L_{pi#(d xi)} eta."""
    return eta.summed(_nm1_terms(c, xi, eta))


def check_nambu(c: NambuCandidate, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Fundamental identity, graph closure and their agreement; then, only if the
    fundamental sweep passed (nothing else promises them), the Leibniz algebroid
    on n-forms and the Leibniz algebra on (n-1)-forms."""
    sweep = cases(seed, samples, partial(_algebroid_case, c.ctx))
    fundamental = np_fundamental_check(c)
    closure = graph_closure_check(c, seed, samples)
    identity = "graph closure holds iff the fundamental identity holds"
    verdicts = ("fundamental", fundamental), ("closure", closure)
    checks = [fundamental, closure, CheckResult.iff("closure_iff_fundamental", identity, (c.pi,), *verdicts)]
    if not fundamental.passed:
        return checks
    form_terms, nm1_terms, anchor = partial(_nambu_form_terms, c), partial(_nm1_terms, c), partial(pi_sharp, c)
    leibniz = CheckResult("form_bracket_leibniz", "[a,[b,g]]_pi = [[a,b]_pi,g]_pi + [b,[a,g]_pi]_pi")
    morphism = CheckResult("anchor_morphism", "pi#[a,b]_pi = [pi#a, pi#b]")
    scalar_rule = CheckResult("scalar_rule", "[a, f*b]_pi = f*[a,b]_pi + pi#(a)(f)*b")
    nm1_leibniz = CheckResult("nm1_bracket_leibniz", "{x,{y,z}}_pi = {{x,y}_pi,z}_pi + {y,{x,z}_pi}_pi")
    comparison = CheckResult("bracket_comparison", "pi#([a,b]_pi - [a,b]^pi) = 0")
    for a, b, g, f, xi, eta, zeta in sweep:
        ab, ag, bg = nambu_form_bracket(c, a, b), nambu_form_bracket(c, a, g), nambu_form_bracket(c, b, g)
        leibniz.record((a, b, g), leibniz_residual(form_terms, a, b, g, ab, ag, bg))
        morphism.record((a, b), anchor_residual(anchor, a, b, ab))
        scalar_rule.record((a, b, f), scalar_residual(form_terms, anchor, a, b, f, ab))
        xy, xz, yz = (leibniz_nm1_bracket(c, x, y) for x, y in ((xi, eta), (xi, zeta), (eta, zeta)))
        nm1_leibniz.record((xi, eta, zeta), leibniz_residual(nm1_terms, xi, eta, zeta, xy, xz, yz))
        comparison.record((a, b), pi_sharp(c, ab.summed(ab.terms(), _marrero_terms(c, a, b, -1))))
    return [*checks, leibniz, morphism, scalar_rule, nm1_leibniz, comparison]


def _algebroid_case(ctx: Context, rng: random.Random):
    """n-forms a, b, g, a scalar f and (n-1)-forms xi, eta, zeta."""
    a, b, g = (random_form(rng, ctx.m, ctx.n) for _ in range(3))
    f = random_poly(rng, ctx.m)
    return (a, b, g, f, *(random_form(rng, ctx.m, ctx.n - 1) for _ in range(3)))
