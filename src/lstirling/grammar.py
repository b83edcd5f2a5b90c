"""Formal derivations driven by substitution grammars.

A grammar assigns to each letter a formal polynomial image; the derivation
operator D acts on Z[z]-linear combinations of monomials in the letters by
linearity and the Leibniz rule,

    D(uv) = D(u) v + u D(v),

replacing one letter occurrence at a time by its image.  A constant letter
is one whose rule is the zero polynomial FormalPoly(), so it derives to
zero; a letter with no rule is an error.  Rules are given as a function of
the letter, so indexed families (a_0, a_1, ...) need no finite table.

Iterated derivations of a seed word produce classical triangles as
coefficient arrays: this module carries grammars whose n-th derivatives
encode Stirling numbers of both kinds and the js/jc triangles, together with
checks that the surviving monomials and coefficients match the recurrences
exactly.  Each identity is one sweep from its seed that derives each power
D^n once, from D^(n-1), and checks it against its triangle row n.
"""
from __future__ import annotations

from . import CheckResult, _FrozenRecord, _require_int
from .algebra import Poly
from .triangles import Triangle, jc_triangle, js_triangle


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

    __slots__ = ("powers", "_hash")

    def __init__(self, powers=()):
        """Powers from (letter, exponent) pairs; a repeated letter's exponents add up."""
        acc: dict = {}
        for letter, e in powers:
            acc[letter] = acc.get(letter, 0) + e
        for letter, e in acc.items():
            if e < 0:
                raise ValueError(f"negative exponent for {letter!r}")
        self.powers = tuple(
            sorted(((l, e) for l, e in acc.items() if e), key=lambda le: le[0].sort_key())
        )
        # a monomial is a dict key in every derivation step; hash its letters once
        self._hash = hash(self.powers)

    @classmethod
    def of(cls, *pairs) -> "Monomial":
        return cls(pairs)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self):
        return self._hash

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

    Built from (monomial, coefficient) pairs, an int or a Poly in z each;
    the coefficients of a repeated monomial add up, and zero coefficients
    are dropped.  Terms live in a dict Monomial -> Poly (in z).  Treat
    instances as immutable: they are compared and rendered.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        for mono, coeff in terms:
            prev = acc.get(mono)
            coeff = _zpoly(coeff) if prev is None else prev + coeff
            if not coeff:
                acc.pop(mono, None)
            else:
                acc[mono] = coeff
        self.terms = acc

    @classmethod
    def term(cls, mono: Monomial, coeff=1) -> "FormalPoly":
        return cls(((mono, coeff),))

    @classmethod
    def letter(cls, letter: Letter) -> "FormalPoly":
        return cls.term(Monomial.of((letter, 1)))

    def __eq__(self, other):
        return isinstance(other, FormalPoly) and self.terms == other.terms

    def render(self) -> str:
        """Deterministic display, larger monomials first: 'a_2 b c^2 + (1+z) a_1 c'."""
        if not self.terms:
            return "0"
        out = ""
        for mono in sorted(self.terms, key=Monomial.sort_key, reverse=True):
            coeff = self.terms[mono]
            # a negative constant shows its sign as the operator, as Poly.render does
            sign = "-" if coeff.degree == 0 and coeff.coefficient(0) < 0 else "+"
            if coeff.degree > 0:
                cs = f"({coeff.render('z')})"
            elif abs(coeff.coefficient(0)) == 1:
                cs = ""
            else:
                cs = str(abs(coeff.coefficient(0)))
            body = mono.render() if mono.powers else ""
            text = " ".join(x for x in (cs, body) if x) or "1"
            if out:
                out += f" {sign} {text}"
            else:
                out = text if sign == "+" else f"-{text}"
        return out

    def __repr__(self):
        return f"FormalPoly('{self.render()}')"


class GrammarError(ValueError):
    pass


class Grammar:
    """Substitution rules: a callable or mapping Letter -> FormalPoly.

    A letter whose rule is FormalPoly() is a constant and derives to zero.
    Deriving a letter for which the rules produce None raises GrammarError
    naming the letter.
    """

    def __init__(self, rules):
        if callable(rules):
            self._rules = rules
        else:
            table = dict(rules)
            self._rules = table.get

    def image(self, letter: Letter) -> FormalPoly:
        out = self._rules(letter)
        if out is None:
            raise GrammarError(f"no rule for letter {letter!r}")
        return out


def derive(g: Grammar, p: FormalPoly) -> FormalPoly:
    """Apply the derivation once: Leibniz over each monomial, rules on letters."""
    terms = []
    for mono, coeff in p.terms.items():
        for letter, e in mono.powers:
            img = g.image(letter)
            c = coeff * e
            # one monomial per term: mono with one letter replaced by m
            terms += [(Monomial((*mono.powers, (letter, -1), *m.powers)), co * c) for m, co in img.terms.items()]
    return FormalPoly(terms)


def _sweep(nmax: int, seed: FormalPoly, step, triangle: Triangle, monomial, label: str):
    """Yield one CheckResult per n = 0..nmax, deriving seed once per power.

    D^n is derive(step(n), D^(n-1)), and it must equal the sum over
    k = 0..n of triangle's T(n,k) times monomial(n, k); the triangle's rows
    are streamed, not cached.  A mismatch shows D^n as label.
    """
    p = seed
    for n, row in enumerate(triangle.rows(nmax)):
        if n:
            p = derive(step(n), p)
        if p == FormalPoly((monomial(n, k), c) for k, c in enumerate(row)):
            yield CheckResult(True)
        else:
            yield CheckResult(False, f"n={n}: {label} = {p.render()}")


_stirling2 = Triangle(lambda n, k: k, tag="stirling2")
_stirling1 = Triangle(lambda n, k: n - 1, tag="stirling1")  # unsigned first kind


def _stirling2_sweep(nmax: int):
    """Grammar {x -> xy, y -> y}: D^n(x) = x sum_k S(n,k) y^k, for n = 0..nmax."""
    x, y = Letter("x"), Letter("y")
    g = Grammar({x: FormalPoly.term(Monomial.of((x, 1), (y, 1))), y: FormalPoly.letter(y)})

    def monomial(n, k):
        return Monomial.of((x, 1), (y, k))

    return _sweep(nmax, FormalPoly.letter(x), lambda m: g, _stirling2, monomial, "D^n(x)")


def _stirling1_sweep(nmax: int):
    """Grammar {x -> xy, y -> yw, w -> w^2}: D^n(x) = x sum_k c(n,k) y^k w^(n-k), for n = 0..nmax.

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

    def monomial(n, k):
        return Monomial.of((x, 1), (y, k), (w, n - k))

    return _sweep(nmax, FormalPoly.letter(x), lambda m: g, _stirling1, monomial, "D^n(x)")


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


def _js_sweep(nmax: int):
    """D^n(a_0) = sum_k js(n,k)(z) a_k b^C(k,2) c^k under the js grammar, for n = 0..nmax."""
    g, b, c = js_grammar(), Letter("b"), Letter("c")

    def monomial(n, k):
        return Monomial.of((Letter("a", k), 1), (b, k * (k - 1) // 2), (c, k))

    return _sweep(nmax, FormalPoly.letter(Letter("a", 0)), lambda m: g, js_triangle, monomial, "D^n(a_0)")


def jc_grammar(k: int) -> Grammar:
    """Step-k rules a -> (k-1)(k-1+z) a, b_j -> b_{j+1}; one grammar per step."""
    _require_int("jc_grammar", k)
    coeff = Poly(((k - 1) ** 2, k - 1))

    def rule(letter: Letter):
        if letter.family == "a":
            return FormalPoly.term(Monomial.of((letter, 1)), coeff)
        if letter.family == "b":
            return FormalPoly.letter(Letter("b", letter.index + 1))
        return None

    return Grammar(rule)


def _jc_sweep(nmax: int):
    """D_n ... D_1(a b_0) = a sum_k jc(n,k)(z) b_k under the per-step grammars, for n = 0..nmax."""
    a = Letter("a")

    def monomial(n, k):
        return Monomial.of((a, 1), (Letter("b", k), 1))

    seed = FormalPoly.term(Monomial.of((a, 1), (Letter("b", 0), 1)))
    return _sweep(nmax, seed, jc_grammar, jc_triangle, monomial, "result")
