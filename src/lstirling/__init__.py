"""Exact arithmetic for Legendre-Stirling and Jacobi-Stirling numbers.

The package computes the two Legendre-Stirling triangles (ls, lc) and their
one-parameter Jacobi-Stirling refinements (js, jc) by several independent
routes, realizes the doubled-multiset partition model with its insertion-code
bijection, expands the diagonals ls(n+k, n) in the binomial basis with the
gamma coefficient machinery, derives the same triangles from substitution
grammars, and certifies real-rootedness and merged root orderings of the
gamma polynomials by an exact interlacing induction.  The `lstirling` console
script exposes tables, verification sweeps, certificates and their
independent re-check.

Every name in `__all__` can be read from the package root, but a layer
module is loaded only when one of its names (or the module itself) is first
used, so `import lstirling` and each CLI command load only what they run.
"""

from importlib import import_module as _import_module

# the public names of each layer module, in the order __all__ lists them
_EXPORTS = {
    "algebra": "NEG_INF Poly Series binomial falling_basis series_geom series_mul",
    "codes": "A B Bb X count_codes enumerate_codes n_x parse_code phi phi_inverse render_code validate_code",
    "gamma": (
        "binomial_poly closed_forms gamma_coeff gamma_ode_step gamma_poly gamma_poly_via_ode gamma_row"
        " lc_expansion lemma_binomial_identity ls_binomial_expansion ls_nested_sum support"
    ),
    "grammar": (
        "FormalPoly Grammar GrammarError Letter Monomial check_jc_grammar check_js_grammar check_stirling1"
        " check_stirling2 derive derive_seq jc_grammar js_grammar"
    ),
    "partitions": (
        "ENUM_LIMIT LSPartition count_by_blocks enumerate_partitions from_json_dict js_brute parse"
        " parse_element render_element validate"
    ),
    "realroots": (
        "REFINE_CAP ConjectureResult RootCertificate conjecture_results expected_pattern q_poly refine_interval"
        " verify_conjecture"
    ),
    "triangles": (
        "CheckResult horizontal_identity_js horizontal_identity_ls jc jc_defining_product js lc ls"
        " ls_explicit ls_vertical vertical_gf_check"
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the layer that defines name, on its first use, and keep the name here."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{layer}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
