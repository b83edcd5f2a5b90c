"""Formal derivations driven by substitution grammars.

A grammar assigns to each letter a formal polynomial image; the derivation
operator D acts on Z[z]-linear combinations of monomials in the letters by
linearity and the Leibniz rule,

    D(uv) = D(u) v + u D(v),

replacing one letter occurrence at a time by its image.  Letters declared
constant derive to zero; a letter with no rule and no constant declaration is
an error.  Rules are given as a function of the letter, so indexed families
(a_0, a_1, ...) need no finite table.

Iterated derivations of a seed word produce classical triangles as
coefficient arrays: this module carries grammars whose n-th derivatives
encode Stirling numbers of both kinds and the js/jc triangles, together with
checks that the surviving monomials and coefficients match the recurrences
exactly.
"""
from __future__ import annotations

from . import CheckResult, _FrozenRecord
from .algebra import Poly
from .triangles import Triangle, jc, js


class Letter(_FrozenRecord):
    """A named letter, optionally indexed: Letter('b') or Letter('a', 2)."""

    __slots__ = ("family", "index")

    def __init__(self, family: str, index: int | None = None):
        _set_family(self, family)
        _set_index(self, index)

    def sort_key(self):
        return (self.family, -1 if self.index is None else self.index)

    def __repr__(self):
        return self.family if self.index is None else f"{self.family}_{self.index}"


# the slots' own setters, which __init__ calls since __setattr__ refuses
_set_family = Letter.family.__set__
_set_index = Letter.index.__set__


class Monomial:
    """A finite product of letters with positive integer exponents."""

    __slots__ = ("powers",)

    def __init__(self, powers=()):
        items = dict(powers)
        for letter, e in items.items():
            if e < 0:
                raise ValueError(f"negative exponent for {letter!r}")
        self.powers = tuple(
            sorted(((l, e) for l, e in items.items() if e > 0), key=lambda le: le[0].sort_key())
        )

    @classmethod
    def of(cls, *pairs) -> "Monomial":
        acc: dict = {}
        for letter, e in pairs:
            acc[letter] = acc.get(letter, 0) + e
        return cls(acc)

    def __mul__(self, other: "Monomial") -> "Monomial":
        acc = dict(self.powers)
        for letter, e in other.powers:
            acc[letter] = acc.get(letter, 0) + e
        return Monomial(acc)

    def remove_one(self, letter: Letter) -> "Monomial":
        acc = dict(self.powers)
        acc[letter] -= 1
        return Monomial(acc)

    def degree_of(self, letter: Letter) -> int:
        return dict(self.powers).get(letter, 0)

    def is_unit(self) -> bool:
        return not self.powers

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self):
        return hash(self.powers)

    def sort_key(self):
        return tuple((l.sort_key(), e) for l, e in self.powers)

    def render(self) -> str:
        if not self.powers:
            return "1"
        return " ".join(f"{l!r}^{e}" if e > 1 else repr(l) for l, e in self.powers)

    def __repr__(self):
        return self.render()


def _zpoly(c) -> Poly:
    return c if isinstance(c, Poly) else Poly((c,))


class FormalPoly:
    """Finite Z[z]-linear combination of monomials in letters.

    Terms live in a dict Monomial -> Poly (in z); zero coefficients are
    dropped.  Treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        for mono, coeff in items:
            coeff = _zpoly(coeff)
            if mono in acc:
                coeff = acc[mono] + coeff
            if coeff.is_zero():
                acc.pop(mono, None)
            else:
                acc[mono] = coeff
        self.terms = acc

    @classmethod
    def zero(cls) -> "FormalPoly":
        return cls()

    @classmethod
    def term(cls, mono: Monomial, coeff=1) -> "FormalPoly":
        return cls(((mono, coeff),))

    @classmethod
    def letter(cls, letter: Letter) -> "FormalPoly":
        return cls.term(Monomial.of((letter, 1)))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Poly:
        return self.terms.get(mono, Poly())

    def __add__(self, other: "FormalPoly") -> "FormalPoly":
        if not isinstance(other, FormalPoly):
            return NotImplemented
        return FormalPoly(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> "FormalPoly":
        return FormalPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "FormalPoly") -> "FormalPoly":
        return self + (-other)

    def scale(self, c) -> "FormalPoly":
        c = _zpoly(c)
        return FormalPoly({m: co * c for m, co in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Poly)):
            return self.scale(other)
        if not isinstance(other, FormalPoly):
            return NotImplemented
        out: list = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out.append((m1 * m2, c1 * c2))
        return FormalPoly(out)

    __rmul__ = __mul__

    def mul_monomial(self, mono: Monomial) -> "FormalPoly":
        return FormalPoly({m * mono: c for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FormalPoly) and self.terms == other.terms

    def render(self) -> str:
        """Deterministic display, larger monomials first: 'a_2 b c^2 + (1+z) a_1 c'."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=Monomial.sort_key, reverse=True):
            coeff = self.terms[mono]
            if coeff.degree > 0:
                cs = f"({coeff.render('z')})"
            elif coeff == 1:
                cs = ""
            else:
                cs = str(coeff.coefficient(0))
            body = "" if mono.is_unit() else mono.render()
            text = " ".join(x for x in (cs, body) if x)
            parts.append(text if text else "1")
        return " + ".join(parts)

    def __repr__(self):
        return f"FormalPoly('{self.render()}')"


class GrammarError(ValueError):
    pass


class Grammar:
    """Substitution rules: a callable or mapping Letter -> FormalPoly.

    Letters in `constants` derive to zero.  Deriving any other letter for
    which the rules produce None raises GrammarError naming the letter.
    """

    def __init__(self, rules, constants=frozenset()):
        if callable(rules):
            self._rules = rules
        else:
            table = dict(rules)
            self._rules = table.get
        self.constants = frozenset(constants)

    def image(self, letter: Letter):
        out = self._rules(letter)
        if out is None and letter not in self.constants:
            raise GrammarError(f"no rule for letter {letter!r}")
        return out


def derive(g: Grammar, p: FormalPoly) -> FormalPoly:
    """Apply the derivation once: Leibniz over each monomial, rules on letters."""
    out = FormalPoly()
    for mono, coeff in p.terms.items():
        for letter, e in mono.powers:
            img = g.image(letter)
            if img is None:
                continue
            rest = mono.remove_one(letter)
            out = out + img.mul_monomial(rest).scale(coeff * e)
    return out


def derive_seq(grammars, seed: FormalPoly) -> FormalPoly:
    """Fold derive over a sequence of grammars (first grammar applied first)."""
    p = seed
    for g in grammars:
        p = derive(g, p)
    return p


_stirling2 = Triangle(lambda n, k: k, tag="stirling2")
_stirling1 = Triangle(lambda n, k: n - 1, tag="stirling1")  # unsigned first kind


def check_stirling2(n: int) -> CheckResult:
    """Grammar {x -> xy, y -> y}: D^n(x) = x sum_k S(n,k) y^k."""
    x, y = Letter("x"), Letter("y")
    g = Grammar({x: FormalPoly.term(Monomial.of((x, 1), (y, 1))), y: FormalPoly.letter(y)})
    got = derive_seq([g] * n, FormalPoly.letter(x))
    expected = FormalPoly(
        (Monomial.of((x, 1), (y, k)), _stirling2.value(n, k))
        for k in range(n + 1)
    )
    if got == expected:
        return CheckResult(True)
    return CheckResult(False, f"n={n}: D^n(x) = {got.render()}")


def check_stirling1(n: int) -> CheckResult:
    """Grammar {x -> xy, y -> yw, w -> w^2}: D^n(x) = x sum_k c(n,k) y^k w^(n-k).

    The squared letter is named w to keep it distinct from the coefficient
    variable z; the unsigned Stirling numbers of the first kind appear.
    """
    x, y, w = Letter("x"), Letter("y"), Letter("w")
    g = Grammar(
        {
            x: FormalPoly.term(Monomial.of((x, 1), (y, 1))),
            y: FormalPoly.term(Monomial.of((y, 1), (w, 1))),
            w: FormalPoly.term(Monomial.of((w, 2))),
        }
    )
    got = derive_seq([g] * n, FormalPoly.letter(x))
    expected = FormalPoly(
        (Monomial.of((x, 1), (y, k), (w, n - k)), _stirling1.value(n, k))
        for k in range(n + 1)
    )
    if got == expected:
        return CheckResult(True)
    return CheckResult(False, f"n={n}: D^n(x) = {got.render()}")


def js_grammar() -> Grammar:
    """Rules a_j -> a_{j+1} b^j c, b -> 2b, c -> (1+z)c, one grammar for all steps."""

    def rule(letter: Letter):
        if letter.family == "a":
            j = letter.index
            return FormalPoly.term(
                Monomial.of((Letter("a", j + 1), 1), (Letter("b"), j), (Letter("c"), 1))
            )
        if letter.family == "b":
            return FormalPoly.term(Monomial.of((Letter("b"), 1)), 2)
        if letter.family == "c":
            return FormalPoly.term(Monomial.of((Letter("c"), 1)), Poly((1, 1)))
        return None

    return Grammar(rule)


def check_js_grammar(n: int) -> CheckResult:
    """D^n(a_0) = sum_k js(n,k)(z) a_k b^C(k,2) c^k under the js grammar."""
    got = derive_seq([js_grammar()] * n, FormalPoly.letter(Letter("a", 0)))
    expected = FormalPoly(
        (
            Monomial.of((Letter("a", k), 1), (Letter("b"), k * (k - 1) // 2), (Letter("c"), k)),
            js(n, k),
        )
        for k in range(n + 1)
    )
    if got == expected:
        return CheckResult(True)
    return CheckResult(False, f"n={n}: D^n(a_0) = {got.render()}")


def jc_grammar(k: int) -> Grammar:
    """Step-k rules a -> (k-1)(k-1+z) a, b_j -> b_{j+1}; one grammar per step."""
    coeff = Poly(((k - 1) ** 2, k - 1))

    def rule(letter: Letter):
        if letter.family == "a":
            return FormalPoly.term(Monomial.of((letter, 1)), coeff)
        if letter.family == "b":
            return FormalPoly.letter(Letter("b", letter.index + 1))
        return None

    return Grammar(rule)


def check_jc_grammar(n: int) -> CheckResult:
    """D_n ... D_1(a b_0) = a sum_k jc(n,k)(z) b_k under the per-step grammars."""
    seed = FormalPoly.term(Monomial.of((Letter("a"), 1), (Letter("b", 0), 1)))
    got = derive_seq([jc_grammar(k) for k in range(1, n + 1)], seed)
    expected = FormalPoly(
        (Monomial.of((Letter("a"), 1), (Letter("b", k), 1)), jc(n, k))
        for k in range(n + 1)
    )
    if got == expected:
        return CheckResult(True)
    return CheckResult(False, f"n={n}: result = {got.render()}")
