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
The root itself holds what every layer shares: the record bases, the
CheckResult that every check returns, and the int-argument guard.
"""
from __future__ import annotations

from importlib import import_module as _import_module
from operator import attrgetter as _attrgetter


class _Record:
    """Base of the package's records: the fields are the class's __slots__.

    A record compares, hashes and prints as the dataclass with those fields
    would: equal only to an instance of the same class with equal fields,
    unhashable, and shown as Name(field=value, ...).  A plain slotted base
    rather than dataclasses, so that no command imports dataclasses (and
    inspect) for a record, and each record keeps a hand-written __init__,
    the cheapest way to build one on the hot paths.  Every record has two or
    more fields, so _values, read in C, gives them as a tuple.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if cls.__slots__:
            cls.__match_args__ = cls.__slots__
            cls._values = _attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A record whose fields are read-only once __init__ has set them.

    Like a frozen dataclass it hashes over its fields, and assigning or
    deleting an attribute raises AttributeError.  __init__ stores each field
    through its slot's own setter (Class.field.__set__), which __setattr__
    does not intercept, and pickle and copy rebuild through __init__.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values(self))


class CheckResult(_Record):
    """Outcome of a check: ok flag plus the first counterexample; true when ok."""

    __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str | None = None):
        self.ok = ok
        self.detail = detail

    def __bool__(self) -> bool:
        return self.ok


def _require_int(where: str, *values) -> None:
    """Raise ValueError unless every value is an int; bool is an int subclass but not an index.

    Shared by the package's entry points; private so that a per-layer trace
    charges its time to the calling function.
    """
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{where}: arguments must be ints, got {v!r}")


# the public names of each layer module, in the order __all__ lists them
_EXPORTS = {
    "algebra": "Poly",
    "codes": "A B Bb X count_codes enumerate_codes parse_code phi phi_inverse render_code validate_code",
    "gamma": (
        "closed_forms gamma_coeff gamma_ode_step gamma_poly gamma_row"
        " lc_expansion lemma_binomial_identity ls_binomial_expansion ls_nested_sum support"
    ),
    "grammar": "FormalPoly Grammar GrammarError Letter Monomial derive jc_grammar js_grammar",
    "partitions": (
        "ENUM_LIMIT LSPartition enumerate_partitions js_brute parse"
        " parse_element render_element validate"
    ),
    "realroots": (
        "REFINE_CAP ConjectureResult RootCertificate conjecture_results expected_pattern q_poly refine_interval"
    ),
    "triangles": "jc js lc ls ls_explicit ls_vertical",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = ["CheckResult", *_LAYER_OF]
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
