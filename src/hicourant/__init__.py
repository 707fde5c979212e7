"""Exact bracket calculus on the generalized tangent bundle TM (+) Wedge^n T*M.

Everything is computed over a polynomial coordinate chart with rational
coefficients, so bracket identities, Nambu-Poisson criteria, and
multisymplectic constructions are verified by exact zero residuals.
"""

from .courant import (
    CheckResult,
    Failure,
    Section,
    anchor,
    check_courant_axioms,
    check_deformation,
    check_dorfman_axioms,
    check_gauge_isomorphism,
    courant_bracket,
    deformed_dorfman,
    dorfman_bracket,
    gauge,
    pairing,
    random_section,
    t_map,
)
from .dsl import (
    DslError,
    GradingError,
    LexError,
    ParseError,
    parse,
    parse_form,
    parse_multivec,
    parse_scalar,
    parse_section,
    render,
)
from .exterior import (
    Context,
    Form,
    MultiVec,
    contract_form_into_vec,
    contract_vec_into_form,
    d_scalar,
    ext_d,
    full_pair,
    i_vec,
    lie_form,
    lie_multivec,
    random_form,
    random_multivec,
    random_poly,
    vec_apply,
    vec_bracket,
    wedge,
)
from .nambu import (
    NambuCandidate,
    check_nambu,
    graph_closure_check,
    leibniz_nm1_bracket,
    marrero_bracket,
    nambu_form_bracket,
    np_fundamental_check,
    pi_sharp,
)
from .plectic import (
    AdmissiblePair,
    HamiltonianPair,
    InconsistentCandidateError,
    NotClosedError,
    PlecticCandidate,
    UnsupportedSolveError,
    admissible_bracket,
    check_admissible_lie_algebroid,
    check_plectic,
    hemi_bracket,
    nondegeneracy_check,
    omega_flat,
    semi_bracket,
    solve_admissible,
    solve_hamiltonian,
)
from .scalar import ChartMismatchError, InputError, Poly

__version__ = "0.1.0"
