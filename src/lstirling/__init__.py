"""Exact arithmetic for Legendre-Stirling and Jacobi-Stirling numbers.

The package computes the two Legendre-Stirling triangles (ls, lc) and their
one-parameter Jacobi-Stirling refinements (js, jc) by several independent
routes, realizes the doubled-multiset partition model with its insertion-code
bijection, expands the diagonals ls(n+k, n) in the binomial basis with the
gamma coefficient machinery, derives the same triangles from substitution
grammars, and certifies real-rootedness and merged root orderings of the
gamma polynomials with exact Sturm chains.  The `lstirling` console script
exposes tables, verification sweeps, and certificates.
"""

from .algebra import NEG_INF, Poly, Series, binomial, falling_basis, series_geom, series_mul
from .codes import (
    A,
    B,
    Bb,
    X,
    count_codes,
    enumerate_codes,
    n_x,
    parse_code,
    phi,
    phi_inverse,
    render_code,
    validate_code,
)
from .gamma import (
    binomial_poly,
    closed_forms,
    gamma_coeff,
    gamma_ode_step,
    gamma_poly,
    gamma_poly_via_ode,
    gamma_row,
    lc_expansion,
    lemma_binomial_identity,
    ls_binomial_expansion,
    ls_nested_sum,
    support,
)
from .grammar import (
    FormalPoly,
    Grammar,
    GrammarError,
    Letter,
    Monomial,
    check_jc_grammar,
    check_js_grammar,
    check_stirling1,
    check_stirling2,
    derive,
    derive_seq,
    jc_grammar,
    js_grammar,
)
from .partitions import (
    ENUM_LIMIT,
    LSPartition,
    count_by_blocks,
    enumerate_partitions,
    from_json_dict,
    js_brute,
    parse,
    parse_element,
    render_element,
    validate,
)
from .realroots import (
    REFINE_CAP,
    ConjectureResult,
    RootCertificate,
    count_roots,
    expected_pattern,
    isolate_roots,
    q_poly,
    refine_interval,
    sturm_chain,
    verify_conjecture,
)
from .triangles import (
    CheckResult,
    horizontal_identity_js,
    horizontal_identity_ls,
    jc,
    jc_defining_product,
    js,
    lc,
    ls,
    ls_explicit,
    ls_vertical,
    vertical_gf_check,
)

__version__ = "0.1.0"
