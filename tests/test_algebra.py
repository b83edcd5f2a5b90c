"""Polynomial, truncated product, and binomial arithmetic."""
import doctest
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lstirling import algebra
from lstirling.algebra import Poly, _add_linear_multiple, _binomial, _convolve

small_ints = st.integers(min_value=-50, max_value=50)
polys = st.lists(small_ints, max_size=6).map(lambda cs: Poly(cs))
nonzero_polys = polys.filter(bool)
# coefficient lists with frequent interior zeros, over each coefficient ring Poly takes
with_zeros = st.one_of(st.just(0), small_ints)
int_lists = st.lists(with_zeros, max_size=6)
fraction_lists = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)), max_size=6
)
z_polys = st.lists(with_zeros, max_size=3).map(Poly)
nested_lists = st.lists(st.one_of(with_zeros, z_polys), max_size=5)
coeff_lists = st.one_of(int_lists, fraction_lists, nested_lists)


def schoolbook(a, b) -> tuple:
    """The product's coefficients by the definition: entry n is the sum of a[i] b[n-i]."""
    return tuple(
        sum((a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b)), 0) for n in range(len(a) + len(b) - 1)
    )


# -- the fused cell step -------------------------------------------------------


@given(int_lists, int_lists, small_ints, small_ints)
@example([], [1, 2], 3, 4)  # p zero
@example([1, 2], [], 3, 4)  # q zero
@example([1, 2, 3], [4, 5], 0, 0)  # a = b = 0
@example([1, 2], [3, 4], -2, -1)  # negative a and b
@example([0, 0, 3], [0, 3], 0, -1)  # the z^2 terms cancel, and so does the rest
@example([1, 2], [2], 0, -1)  # the leading z term cancels, leaving 1
@example([5, 0, 7], [1], 2, 3)  # p longer than q z
def test_add_linear_multiple_is_p_plus_a_linear_factor_times_q(p, q, a, b):
    # == compares trimmed coefficient tuples, so an untrimmed result fails it
    assert _add_linear_multiple(Poly(p), Poly(q), a, b) == Poly(p) + Poly((a, b)) * Poly(q)


# -- binomial ---------------------------------------------------------------


def test_binomial_matches_math_comb_for_nonnegative_upper():
    for n in range(0, 12):
        for k in range(0, 14):
            assert _binomial(n, k) == math.comb(n, k)


def test_binomial_negative_upper_values():
    assert _binomial(-1, 0) == 1
    assert _binomial(-1, 3) == -1
    assert _binomial(-2, 3) == -4
    assert _binomial(-3, 2) == 6


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12))
def test_binomial_pascal_rule_holds_for_any_integer_upper(n, k):
    assert _binomial(n, k) == _binomial(n - 1, k - 1) + _binomial(n - 1, k)


# -- Poly basics ------------------------------------------------------------


def test_poly_trims_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()


def test_zero_poly_degree_is_minus_one():
    z = Poly(())
    assert not z
    assert z.degree == -1 and Poly().degree == -1
    assert Poly((0, 1)).degree == 1 and Poly((5,)).degree == 0


def test_degree_and_coefficients():
    p = Poly((3, 0, 7))
    assert p.degree == 2
    assert p.coefficient(2) == 7
    assert p.coefficient(1) == 0
    assert p.coefficient(99) == 0


def test_equality_ignores_representation():
    assert Poly((1, 0)) == Poly((1,))
    assert Poly((0, 1, 0, 0)) == Poly((0, 1))
    assert Poly((1,)) != Poly((2,))
    assert Poly((1,)) == 1
    assert 0 == Poly(())
    assert Poly((Fraction(3), Fraction(1, 2))) == Poly((3, Fraction(1, 2)))
    assert Poly((Fraction(3),)) == 3 and Poly((3,)) == Fraction(3)
    assert Poly((Fraction(1, 2),)) == Fraction(1, 2) and Poly((1,)) != Fraction(1, 2)
    # a nested constant compares with its value, at either level
    assert Poly((Poly((3,)), 1)) == Poly((3, 1)) and Poly((3, 1)) == Poly((Poly((3,)), 1))
    assert Poly((Poly((3,)),)) == 3 and Poly((Poly((3,)),)) != 4
    assert Poly((Poly(()), 1)) == Poly((0, 1))
    assert Poly(()) == 0 and Poly(()) == Fraction(0) and Poly((0, 0)) == 0 and Poly((1,)) != 0
    assert Poly((0, 1)) != 0 and Poly((0, 1)) != 1
    # anything else is not a polynomial
    assert (Poly((1,)) == "x") is False and (Poly(()) == "") is False and (Poly((1,)) == 1.0) is False
    assert Poly((1,)) != None  # noqa: E711
    assert Poly.__eq__(Poly((1,)), "x") is NotImplemented


# -- ring axioms ------------------------------------------------------------


@given(polys, polys, polys)
def test_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes_and_associates(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(polys)
def test_additive_inverse_and_units(a):
    assert not a + (-a)
    assert a - a == Poly(())
    assert a * Poly((1,)) == a
    assert a * 1 == a
    assert 1 * a == a
    assert a * 0 == Poly(())


@given(polys, small_ints)
def test_int_scalars_act_like_constant_polynomials(a, c):
    assert a * c == a * Poly((c,))
    assert c * a == a * c
    assert a + c == a + Poly((c,))
    assert c - a == Poly((c,)) - a


@given(coeff_lists, coeff_lists)
@example([1, 1], [1, -1])  # the x coefficient cancels
@example([Poly((0, 1)), 1], [Poly((0, 1)), -1])  # (z + x)(z - x): a zero Poly inside
@example([0, 0], [1, 2])  # a zero factor given with zeros
@example([], [Fraction(1, 2)])
def test_product_is_the_schoolbook_product(a, b):
    assert Poly(a) * Poly(b) == Poly(schoolbook(a, b))


@given(int_lists, int_lists, st.integers(min_value=0, max_value=13))
@example([0, 0, 0, 5], [1, 1], 2)  # a term of a past the truncation
def test_convolve_is_the_schoolbook_product_truncated_and_padded(a, b, size):
    assert _convolve(a, b, size) == [*schoolbook(a, b), *[0] * size][:size]


@pytest.mark.parametrize(
    "a, b, size, want",
    [
        pytest.param([1, 2], [3, 4], 0, [], id="size-0"),
        pytest.param([], [1, 2], 3, [0, 0, 0], id="empty-a"),
        pytest.param([1, 2], [], 2, [0, 0], id="empty-b"),
        pytest.param([1, 1], [1, 1], 5, [1, 2, 1, 0, 0], id="pads-past-both"),
        pytest.param((1, 2), (1, 3), 3, [1, 5, 6], id="tuples"),
        pytest.param([Fraction(1, 2)], [Fraction(2, 3), 1], 2, [Fraction(1, 3), Fraction(1, 2)], id="fractions"),
        # an int 0 slot takes a Poly term
        pytest.param([Poly((0, 1))], [Poly((1,)), Poly((2,))], 2, [Poly((0, 1)), Poly((0, 2))], id="polys"),
    ],
)
def test_convolve_examples(a, b, size, want):
    assert _convolve(a, b, size) == want


def test_convolve_of_two_geometric_series_is_their_closed_form():
    # coefficient j of 1/((1-2x)(1-6x)) is sum_{i<=j} 2^i 6^(j-i)
    prod = _convolve([2**j for j in range(6)], [6**j for j in range(6)], 6)
    assert prod == [sum(2**i * 6 ** (j - i) for i in range(j + 1)) for j in range(6)]
    assert all(type(c) is int for c in prod)


@given(int_lists, int_lists, st.integers(min_value=0, max_value=9))
def test_convolve_leaves_its_operands_unchanged(a, b, size):
    a0, b0 = list(a), list(b)
    _convolve(a, b, size)
    assert (a, b) == (a0, b0)


@given(coeff_lists)
@example([0, Poly(()), 0])
def test_a_poly_is_falsy_exactly_when_it_is_zero(cs):
    assert bool(Poly(cs)) == any(cs)


@given(polys, polys)
def test_degree_of_product_adds_for_integer_coefficients(a, b):
    if not a or not b:
        assert not a * b
    else:
        assert (a * b).degree == a.degree + b.degree


# -- division ---------------------------------------------------------------


@given(polys, nonzero_polys)
def test_divmod_reconstructs_dividend_with_small_remainder(a, b):
    a, b = Poly(map(Fraction, a.coeffs)), Poly(map(Fraction, b.coeffs))
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divmod_exact_division():
    a = Poly(map(Fraction, (-1, 0, 1)))  # (x-1)(x+1)
    b = Poly(map(Fraction, (1, 1)))
    q, r = divmod(a, b)
    assert not r
    assert q == Poly((Fraction(-1), Fraction(1)))


# -- calculus and evaluation -------------------------------------------------


@given(polys, polys)
def test_derivative_satisfies_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(polys, polys)
def test_derivative_is_linear(a, b):
    assert (a + b).derivative() == a.derivative() + b.derivative()


@given(polys, small_ints)
def test_eval_matches_naive_power_sum(p, t):
    assert p.eval(t) == sum(c * t**i for i, c in enumerate(p.coeffs))
    assert p(t) == p.eval(t)


@given(polys, st.fractions(min_value=-10, max_value=10, max_denominator=20))
def test_eval_accepts_rational_points(p, t):
    assert p.eval(t) == sum(Fraction(c) * t**i for i, c in enumerate(p.coeffs))


# -- rendering ---------------------------------------------------------------


def test_render_ascending_powers():
    assert Poly(()).render() == "0"
    assert Poly((1, 8, 10)).render() == "1+8x+10x^2"
    assert Poly((0, -1)).render() == "-x"
    assert Poly((0, 0, 1)).render() == "x^2"
    assert Poly((-2, 1)).render("t") == "-2+t"


def test_render_nested_coefficients_are_parenthesized():
    p = Poly((Poly((0,)), Poly((5, 3))))  # (5+3z) x
    assert p.render() == "(5+3z)x"


# -- nested coefficients ------------------------------------------------------


def test_scale_multiplies_by_a_coefficient_ring_element():
    z_plus_1 = Poly((1, 1))
    p = Poly((Poly((1,)), Poly((0, 1))))  # 1 + z x
    q = p.scale(z_plus_1)
    assert q == Poly((z_plus_1, Poly((0, 1, 1))))


# -- construction ---------------------------------------------------------------


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(5, "must be iterable", id="Poly-int"),
        pytest.param(None, "must be iterable", id="Poly-None"),
        # iterable, but its characters are not coefficients
        pytest.param("12", "must not be a str", id="Poly-str"),
        pytest.param("", "must not be a str", id="Poly-empty-str"),
        pytest.param(type("Text", (str,), {})("12"), "must not be a str", id="Poly-str-subclass"),
        pytest.param(2.5, "must be iterable", id="Poly-float"),
    ],
)
def test_bad_poly_input_raises_value_error(bad, message):
    with pytest.raises(ValueError, match=message):
        Poly(bad)


@pytest.mark.parametrize(
    "coeffs",
    [
        pytest.param((0.5, 1), id="tuple"),
        pytest.param([1.5, 2], id="list"),
        pytest.param((c / 2 for c in (1, 2)), id="generator"),
        pytest.param((1, 0, 2.0), id="leading-float"),
        pytest.param((1, 0.0), id="trimmed-float-zero"),
        pytest.param((Fraction(1, 2), type("Real", (float,), {})(1.0)), id="float-subclass"),
    ],
)
def test_a_float_coefficient_raises_value_error(coeffs):
    with pytest.raises(ValueError, match="must be exact, got the float"):
        Poly(coeffs)


@pytest.mark.parametrize(
    "coeffs, kind",
    [
        pytest.param((0.5j, 1), "complex", id="complex"),
        pytest.param((Decimal("0.5"), 1), "Decimal", id="Decimal"),
        pytest.param(("a", 1), "str", id="str"),
        pytest.param((None, 1), "NoneType", id="None"),
        pytest.param([[1]], "list", id="nested-list"),
        pytest.param((1, 2, [3]), "list", id="leading-list"),
    ],
)
def test_a_coefficient_that_is_not_exact_raises_value_error(coeffs, kind):
    # only ints, Fractions and Polys are coefficients
    with pytest.raises(ValueError, match=f"must be exact, got the {kind} "):
        Poly(coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        pytest.param({2, 1}, id="set"),
        pytest.param(frozenset({5, 7}), id="frozenset"),
        pytest.param({3: 0, 1: 0}, id="dict"),
    ],
)
def test_an_unordered_collection_of_coefficients_raises_value_error(coeffs):
    with pytest.raises(ValueError, match="must be in order"):
        Poly(coeffs)


def test_exact_coefficients_build_as_before():
    assert Poly((1, Fraction(1, 2), Poly((0, 1)))).coeffs == (1, Fraction(1, 2), Poly((0, 1)))
    assert Poly(range(3)).coeffs == (0, 1, 2) and Poly(iter([True, 0])).coeffs == (True,)


def test_scaling_by_a_float_raises_value_error():
    # scale checks its factor once, before any product is formed
    with pytest.raises(ValueError, match="must be exact"):
        Poly((1, 2)).scale(0.5)


@pytest.mark.parametrize("bad", [Decimal("0.5"), "2", None, 1j, [1]])
def test_scaling_by_any_other_inexact_factor_raises_value_error(bad):
    with pytest.raises(ValueError, match="must be exact"):
        Poly((1, 2)).scale(bad)


@pytest.mark.parametrize("factor", [3, 0, Fraction(1, 2), Poly((1, 1)), Poly()])
def test_scale_agrees_with_the_constructor_over_each_exact_factor(factor):
    p = Poly((1, Fraction(-2, 3), Poly((0, 5))))
    assert p.scale(factor).coeffs == Poly(c * factor for c in p.coeffs).coeffs


def test_an_error_raised_while_coefficients_are_read_reaches_the_caller():
    with pytest.raises(TypeError, match="unsupported operand"):
        Poly(c + "x" for c in (1, 2))


# -- doctests -------------------------------------------------------------------


def test_the_module_examples_run_and_pass():
    failed, attempted = doctest.testmod(algebra)
    assert failed == 0 and attempted >= 9
