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
    check_jc_grammar,
    check_js_grammar,
    check_stirling1,
    check_stirling2,
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
    real = Monomial.__init__
    monkeypatch.setattr(Monomial, "__init__", lambda self, powers=(): built.append(1) or real(self, powers))
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
    for n in range(0, 15):
        assert check_stirling2(n)


def test_cycle_grammar():
    for n in range(0, 15):
        assert check_stirling1(n)


def test_second_kind_bivariate_grammar():
    for n in range(0, 15):
        assert check_js_grammar(n)


def test_first_kind_bivariate_grammar():
    for n in range(0, 15):
        assert check_jc_grammar(n)


@pytest.mark.parametrize(
    "check,sweep",
    [
        (check_stirling2, grammar._stirling2_sweep),
        (check_stirling1, grammar._stirling1_sweep),
        (check_js_grammar, grammar._js_sweep),
        (check_jc_grammar, grammar._jc_sweep),
    ],
)
def test_each_check_is_the_last_result_of_its_sweep(check, sweep, monkeypatch):
    results = list(sweep(12))
    assert len(results) == 13 and all(results)
    assert [check(n) for n in range(13)] == results
    # one derive per power, not one per power and per n
    calls = []
    real = grammar.derive
    monkeypatch.setattr(grammar, "derive", lambda g, p: calls.append(1) or real(g, p))
    assert len(list(sweep(12))) == 13 and len(calls) == 12
    with pytest.raises(ValueError):
        check(-1)


def test_a_wrong_value_fails_its_power_only(monkeypatch, off_by_one):
    monkeypatch.setattr(grammar, "js_triangle", off_by_one(grammar.js_triangle, (5, 2)))
    results = list(grammar._js_sweep(8))
    assert [bool(r) for r in results] == [n != 5 for n in range(9)]
    assert results[5].detail.startswith("n=5: D^n(a_0) = a_5 b^10 c^5 + ")
    assert check_js_grammar(5) == results[5] and check_js_grammar(6)


def test_second_kind_grammar_first_two_derivatives_render_exactly():
    g = js_grammar()
    seed = FormalPoly.letter(a0)
    assert derive(g, seed).render() == "a_1 c"
    assert derive(g, derive(g, seed)).render() == "a_2 b c^2 + (1+z) a_1 c"


def test_first_kind_grammar_first_two_derivatives_render_exactly():
    seed = FormalPoly.term(Monomial.of((Letter("a"), 1), (Letter("b", 0), 1)))
    assert derive(jc_grammar(1), seed).render() == "a b_1"
    assert derive(jc_grammar(2), derive(jc_grammar(1), seed)).render() == "a b_2 + (1+z) a b_1"
