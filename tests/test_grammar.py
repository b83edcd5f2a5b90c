"""Formal derivative on indexed letters and the four grammar identities."""
import copy
import pickle

import pytest

from lstirling import grammar
from lstirling.algebra import Poly
from lstirling.grammar import (
    FormalPoly,
    Grammar,
    GrammarError,
    Letter,
    Monomial,
    derive,
    jc_grammar,
    js_grammar,
)

a0 = Letter("a", 0)
a1 = Letter("a", 1)
b = Letter("b")
c = Letter("c")


def test_letter_repr_and_ordering():
    assert repr(Letter("a", 2)) == "a_2"
    assert repr(b) == "b"
    assert Letter("a", 1).sort_key() < Letter("a", 2).sort_key()
    assert Letter("b").sort_key() < Letter("c").sort_key()


def test_letter_is_a_frozen_value():
    a2 = Letter("a", 2)
    assert a2 == Letter("a", 2) and hash(a2) == hash(Letter("a", 2)) == hash(("a", 2))
    assert b == Letter("b", None) and hash(b) == hash(("b", None))
    assert a2 != ("a", 2) and a2 != Letter("a", 3) and a2 != Letter("b", 2) and b != Letter("b", 0)
    for name in ("family", "index", "other"):
        with pytest.raises(AttributeError):
            setattr(a2, name, 1)
        with pytest.raises(AttributeError):
            delattr(a2, name)
    assert a2 == Letter("a", 2)
    for letter in (a2, b):
        for twin in (pickle.loads(pickle.dumps(letter)), copy.copy(letter), copy.deepcopy(letter)):
            assert twin == letter and hash(twin) == hash(letter) and twin.__class__ is Letter
    table = {Letter("a", 2): "first", Letter("b"): "b"}
    table[Letter("a", 2)] = "second"
    assert table == {a2: "second", b: "b"} and len(table) == 2


def test_monomial_render_and_exponent_check():
    m = Monomial.of((b, 1), (c, 2))
    assert m.render() == "b c^2"
    assert Monomial().powers == ()
    assert Monomial().render() == "1"
    with pytest.raises(ValueError):
        Monomial(((b, -1),))


def test_monomial_of_merges_repeated_letters_and_drops_zero_exponents():
    m = Monomial.of((c, 1), (b, 1), (c, 2), (a0, 0))
    assert m.powers == ((b, 1), (c, 3))
    assert m == Monomial.of((b, 1), (c, 3)) and hash(m) == hash(Monomial.of((b, 1), (c, 3)))
    assert m.render() == "b c^3" and Monomial.of((a0, 0)) == Monomial()
    assert Monomial.of((b, 2), (b, -1)) == Monomial.of((b, 1))
    # a letter whose exponents add up to zero is dropped, below zero rejected
    assert Monomial.of((b, 1), (c, 2), (b, -1)).powers == ((c, 2),)
    assert Monomial.of((c, 1), (c, -1)).powers == ()
    with pytest.raises(ValueError):
        Monomial.of((c, 1), (b, -1))


def test_a_monomial_hashes_its_letters_only_when_built(monkeypatch):
    m, twin = Monomial.of((b, 1), (c, 2)), Monomial.of((c, 2), (b, 1))
    hashes = []
    base = Letter.__hash__
    monkeypatch.setattr(Letter, "__hash__", lambda self: hashes.append(self) or base(self))
    table = {m: 1}
    for _ in range(3):
        assert table[twin] == 1 and hash(twin) == hash(m)
    assert hashes == []
    assert hash(m) == hash(m.powers) and hashes == [b, c]


def test_formal_poly_construction_cancels():
    m, mc = Monomial.of((b, 1)), Monomial.of((b, 1), (c, 1))
    p = FormalPoly([(m, 1), (mc, Poly((0, 1))), (m, -1), (mc, Poly((0, -1)))])
    assert p.terms == {} and p == FormalPoly()
    assert p.render() == "0"
    # a sum that cancels drops its monomial, and a later term brings it back
    assert FormalPoly([(m, 2), (m, -2), (m, 5), (mc, 1)]).terms == {m: Poly((5,)), mc: Poly((1,))}


def test_formal_poly_coefficients_live_in_a_polynomial_ring():
    m = Monomial.of((b, 1))
    p = FormalPoly([(m, Poly((1, 1))), (m, Poly((0, 0, 1)))])
    assert p.terms == {m: Poly((1, 1, 1))}
    assert FormalPoly.term(m, 3).terms == {m: Poly((3,))}
    assert p.render() == "(1+z+z^2) b"


def test_formal_poly_render_shows_a_unit_monomial_by_its_coefficient():
    unit = Monomial()
    assert FormalPoly.term(unit).render() == "1" and FormalPoly.term(unit, -3).render() == "-3"
    p = FormalPoly([(unit, 1), (Monomial.of((b, 1)), 2), (Monomial.of((c, 1)), Poly((0, 1)))])
    assert p.render() == "(z) c + 2 b + 1"


def test_formal_poly_render_shows_a_negative_constant_by_its_sign():
    cb = Monomial.of((c, 1)), Monomial.of((b, 1))
    assert FormalPoly(zip(cb, (1, -2))).render() == "c - 2 b"
    assert FormalPoly(zip(cb, (-3, -1))).render() == "-3 c - b"
    assert FormalPoly(zip(cb, (-1, 2))).render() == "-c + 2 b"
    assert FormalPoly([(cb[0], Poly((-1, 1))), (Monomial(), -1)]).render() == "(-1+z) c - 1"
    assert FormalPoly.term(Monomial(), -1).render() == "-1"


def test_grammar_from_mapping_and_a_zero_rule():
    # a rule to FormalPoly() makes its letter a constant
    g = Grammar({b: FormalPoly.letter(c), c: FormalPoly()})
    assert derive(g, FormalPoly.letter(b)) == FormalPoly.letter(c)
    assert derive(g, FormalPoly.letter(c)) == FormalPoly()
    assert derive(g, FormalPoly.term(Monomial.of((b, 1), (c, 2)), 3)) == FormalPoly.term(Monomial.of((c, 3)), 3)


def test_derive_builds_one_monomial_per_term(monkeypatch):
    # b -> b c + 2 c^2 and c -> b, with a0 constant, on 3 b^2 c a0 + (1+z) c^2
    b_image = FormalPoly([(Monomial.of((b, 1), (c, 1)), 1), (Monomial.of((c, 2)), 2)])
    g = Grammar({b: b_image, c: FormalPoly.letter(b), a0: FormalPoly()})
    p = FormalPoly([(Monomial.of((b, 2), (c, 1), (a0, 1)), 3), (Monomial.of((c, 2)), Poly((1, 1)))])
    built = []
    real = grammar._monomial
    # derive builds its monomials through the unchecked builder
    monkeypatch.setattr(grammar, "_monomial", lambda pairs: built.append(1) or real(pairs))
    got = derive(g, p)
    # two image terms of b and one of c in the first term, one of c in the second
    assert len(built) == 4
    monkeypatch.undo()
    assert got == FormalPoly(
        [
            (Monomial.of((b, 2), (c, 2), (a0, 1)), 6),
            (Monomial.of((b, 1), (c, 3), (a0, 1)), 12),
            (Monomial.of((b, 3), (a0, 1)), 3),
            (Monomial.of((b, 1), (c, 1)), Poly((2, 2))),
        ]
    )


def test_grammar_unknown_letter_raises():
    g = Grammar({b: FormalPoly.letter(c)})
    with pytest.raises(GrammarError, match="no rule for letter c"):
        derive(g, FormalPoly.letter(c))
    # a rule function that returns None has no rule for the letter either
    with pytest.raises(GrammarError, match="no rule for letter d"):
        derive(js_grammar(), FormalPoly.letter(Letter("d")))


@pytest.mark.parametrize("rules", [5, None, [1], [(b, FormalPoly())]], ids=["int", "None", "list", "pairs"])
def test_rules_that_are_neither_callable_nor_a_mapping_raise_value_error(rules):
    with pytest.raises(ValueError, match="must be a callable or a mapping"):
        Grammar(rules)


@pytest.mark.parametrize(
    "g, p",
    [
        pytest.param(None, None, id="None-None"),
        pytest.param(js_grammar(), None, id="no-poly"),
        pytest.param(None, FormalPoly.letter(b), id="no-grammar"),
        pytest.param(js_grammar(), Monomial.of((b, 1)), id="monomial-for-poly"),
    ],
)
def test_derive_rejects_what_is_not_a_grammar_and_a_formal_poly(g, p):
    with pytest.raises(ValueError, match="derive: expected a Grammar and a FormalPoly"):
        derive(g, p)


@pytest.mark.parametrize("image", [5, "b", Monomial.of((b, 1)), Poly((1,))], ids=["int", "str", "monomial", "poly"])
def test_a_rule_that_gives_no_formal_poly_is_a_grammar_error(image):
    with pytest.raises(GrammarError, match="the rule for letter a gives .*, not a FormalPoly"):
        derive(Grammar(lambda letter: image), FormalPoly.letter(Letter("a")))
    with pytest.raises(GrammarError, match="the rule for letter b gives"):
        derive(Grammar({b: image}), FormalPoly.letter(b))


@pytest.mark.parametrize(
    "powers",
    [
        pytest.param([(b, "x")], id="str-exponent"),
        pytest.param([5], id="not-a-pair"),
        pytest.param([(b, 1, 2)], id="triple"),
        pytest.param([("a", 1)], id="str-letter"),
        pytest.param([(b, 1.5)], id="float-exponent"),
        pytest.param([(b, True)], id="bool-exponent"),
        pytest.param([(c, 1), (None, 1)], id="second-pair"),
        pytest.param(None, id="None"),
        pytest.param(1.5, id="float"),
    ],
)
def test_a_monomial_of_anything_but_letter_exponent_pairs_raises_value_error(powers):
    with pytest.raises(ValueError, match="Monomial: expected"):
        Monomial(powers)


@pytest.mark.parametrize(
    "terms",
    [
        pytest.param([(1, 2)], id="int-for-monomial"),
        pytest.param([(Monomial(), "x")], id="str-coefficient"),
        pytest.param([(Monomial(), 2), (Monomial(), "x")], id="str-added-to-a-term"),
        pytest.param([(Monomial(), 1.5)], id="float-coefficient"),
        pytest.param([5], id="not-a-pair"),
        pytest.param([(b, 1)], id="letter-for-monomial"),
        pytest.param(None, id="None"),
        pytest.param(True, id="bool"),
    ],
)
def test_a_formal_poly_of_anything_but_monomial_coefficient_pairs_raises_value_error(terms):
    with pytest.raises(ValueError, match="FormalPoly: expected"):
        FormalPoly(terms)


@pytest.mark.parametrize(
    "family, index",
    [(5, None), (None, None), ("a", "x"), ("a", 1.0), ("a", True), ("a", [1])],
    ids=["int-family", "None-family", "str-index", "float-index", "bool-index", "list-index"],
)
def test_a_letter_of_a_non_str_family_or_non_int_index_raises_value_error(family, index):
    with pytest.raises(ValueError, match="Letter: expected a str family"):
        Letter(family, index)


@pytest.mark.parametrize(
    "g, letter",
    [(js_grammar(), Letter("a")), (jc_grammar(2), Letter("b"))],
    ids=["js-unindexed-a", "jc-unindexed-b"],
)
def test_an_indexed_family_has_no_rule_for_its_unindexed_letter(g, letter):
    with pytest.raises(GrammarError, match=f"no rule for letter {letter.family}$"):
        derive(g, FormalPoly.letter(letter))


def test_derivative_obeys_the_leibniz_rule():
    x, y = Letter("x"), Letter("y")
    g = Grammar({x: FormalPoly.term(Monomial.of((x, 1), (y, 1))), y: FormalPoly.letter(y)})
    # D(xy) = D(x) y + x D(y) = x y^2 + x y
    got = derive(g, FormalPoly.term(Monomial.of((x, 1), (y, 1))))
    assert got == FormalPoly([(Monomial.of((x, 1), (y, 2)), 1), (Monomial.of((x, 1), (y, 1)), 1)])


def test_derivative_handles_powers():
    x = Letter("x")
    g = Grammar({x: FormalPoly.letter(x)})
    got = derive(g, FormalPoly.term(Monomial.of((x, 3))))
    assert got == FormalPoly.term(Monomial.of((x, 3)), 3)


def test_derive_merges_cancelling_terms_and_skips_constants():
    d = Letter("d")
    g = Grammar({b: FormalPoly.letter(d), c: FormalPoly.term(Monomial.of((d, 1)), -1), d: FormalPoly()})
    bd, cd, bc = (Monomial.of((u, 1), (v, 1)) for u, v in ((b, d), (c, d), (b, c)))
    # D(bd + cd + bc) = d^2 - d^2 + (cd - bd): the d^2 terms cancel, d derives to 0
    got = derive(g, FormalPoly([(bd, 1), (cd, 1), (bc, 1)]))
    assert got == FormalPoly([(cd, 1), (bd, -1)])
    assert isinstance(got.terms, dict) and set(got.terms) == {bd, cd}
    assert derive(g, FormalPoly([(bd, 1), (cd, 1)])).terms == {}
    assert derive(g, FormalPoly.term(Monomial.of((d, 3)), Poly((1, 1)))) == FormalPoly()


# -- the four grammar identities ---------------------------------------------------


def test_set_partition_grammar():
    results = list(grammar._stirling2_sweep(14))
    assert len(results) == 15 and all(results)


def test_cycle_grammar():
    results = list(grammar._stirling1_sweep(14))
    assert len(results) == 15 and all(results)


def test_second_kind_bivariate_grammar():
    results = list(grammar._js_sweep(14))
    assert len(results) == 15 and all(results)


def test_first_kind_bivariate_grammar():
    results = list(grammar._jc_sweep(14))
    assert len(results) == 15 and all(results)


@pytest.mark.parametrize(
    "sweep",
    [grammar._stirling2_sweep, grammar._stirling1_sweep, grammar._js_sweep, grammar._jc_sweep],
    ids=["stirling2", "stirling1", "js", "jc"],
)
def test_each_sweep_derives_once_per_power(sweep, monkeypatch):
    # one derive per power, not one per power and per n
    calls = []
    real = grammar.derive
    monkeypatch.setattr(grammar, "derive", lambda g, p: calls.append(1) or real(g, p))
    assert len(list(sweep(12))) == 13 and len(calls) == 12


def test_a_wrong_value_fails_its_power_only(monkeypatch, off_by_one):
    monkeypatch.setattr(grammar, "js_triangle", off_by_one(grammar.js_triangle, (5, 2)))
    results = list(grammar._js_sweep(8))
    assert [bool(r) for r in results] == [n != 5 for n in range(9)]
    assert results[5].detail.startswith("n=5: D^n(a_0) = a_5 b^10 c^5 + ")


def test_second_kind_grammar_first_two_derivatives_render_exactly():
    g = js_grammar()
    seed = FormalPoly.letter(a0)
    assert derive(g, seed).render() == "a_1 c"
    assert derive(g, derive(g, seed)).render() == "a_2 b c^2 + (1+z) a_1 c"


def test_first_kind_grammar_first_two_derivatives_render_exactly():
    seed = FormalPoly.term(Monomial.of((Letter("a"), 1), (Letter("b", 0), 1)))
    assert derive(jc_grammar(1), seed).render() == "a b_1"
    assert derive(jc_grammar(2), derive(jc_grammar(1), seed)).render() == "a b_2 + (1+z) a b_1"
