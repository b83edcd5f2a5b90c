"""Binomial-basis expansion coefficients and their two recurrences."""
import re
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lstirling import gamma
from lstirling.algebra import Poly, _binomial
from lstirling.gamma import (
    _binomial_poly,
    closed_forms,
    gamma_coeff,
    gamma_ode_step,
    gamma_poly,
    gamma_row,
    lc_expansion,
    lemma_binomial_identity,
    ls_binomial_expansion,
    ls_nested_sum,
    support,
)
from lstirling.triangles import lc, ls

# Rows frozen from running the three-term integer recurrence by hand.
GAMMA_ROWS = {
    0: (1,),
    1: (1,),
    2: (1, 8, 10),
    3: (1, 34, 219, 448, 280),
    4: (1, 114, 2049, 12440, 32244, 36960, 15400),
    5: (1, 356, 15058, 202268, 1197865, 3588464, 5663944, 4484480, 1401400),
}


def test_support_window():
    assert support(0) == (0, 0)
    assert support(1) == (3, 3)
    assert support(2) == (4, 6)
    assert support(5) == (7, 15)
    with pytest.raises(ValueError):
        support(-1)


def test_rows_match_frozen_values():
    for k, row in GAMMA_ROWS.items():
        assert gamma_row(k) == row


def test_coefficients_vanish_outside_the_support():
    for k in range(1, 7):
        lo, hi = support(k)
        assert gamma_coeff(k, lo - 1) == 0
        assert gamma_coeff(k, hi + 1) == 0
        assert gamma_coeff(k, 0) == 0
    assert gamma_coeff(0, 0) == 1


def test_row_endpoints_closed_forms():
    for k in range(1, 13):
        lo, hi = support(k)
        assert gamma_coeff(k, lo) == 1
        assert gamma_coeff(k, hi) == factorial(3 * k) // (factorial(k) * 6**k)


def test_polynomial_value_at_minus_one():
    assert gamma_poly(3).eval(-1) == -18
    for k in range(1, 13):
        expected = (-1) ** k * factorial(k + 1) * factorial(k) // 2**k
        assert gamma_poly(k).eval(-1) == expected


def test_closed_forms_bundle():
    assert closed_forms(12)


@pytest.mark.parametrize(
    "name, at, message",
    [
        ("gamma_coeff", (3, 5), "k=3: gamma(k,k+2)=1 fails"),
        ("gamma_coeff", (3, 9), "k=3: gamma(k,3k)=(3k)!/(k! 6^k) fails"),
        ("gamma_poly", (3,), "k=3: gamma_k(-1)=(-1)^k (k+1)! k!/2^k fails"),
    ],
    ids=["lowest", "leading", "at-minus-one"],
)
def test_closed_forms_report_the_first_form_that_fails(monkeypatch, name, at, message):
    # one value of row 3 is one too large: its lowest or its leading coefficient, or all of gamma_3
    real = getattr(gamma, name)
    monkeypatch.setattr(gamma, name, lambda *args: real(*args) + (args == at))
    result = closed_forms(5)
    assert not result and result.detail == message


@pytest.mark.parametrize("kmax", [0, -5])
def test_closed_forms_refuses_a_range_with_no_k(kmax):
    # a bundle over no k would pass without checking anything
    with pytest.raises(ValueError, match="at least 1"):
        closed_forms(kmax)


def test_differential_step_keeps_integer_coefficients():
    p = gamma_poly(5)
    q = gamma_ode_step(p, 5)
    assert all(isinstance(c, int) for c in q.coeffs)


def test_differential_recurrence_reproduces_integer_recurrence_rows():
    polys = list(gamma._ode_polys(40))
    assert len(polys) == 41
    for k, p in enumerate(polys):
        assert p == gamma_poly(k)


@pytest.mark.parametrize("bad", [2.5, "2", None, [2], True, -1])
def test_differential_step_rejects_a_bad_k(bad):
    # a float k would give float coefficients
    with pytest.raises(ValueError, match="gamma_ode_step"):
        gamma_ode_step(Poly((1,)), bad)


@pytest.mark.parametrize("bad", [None, (1,), [1], 1])
def test_differential_step_rejects_a_p_that_is_not_a_poly(bad):
    with pytest.raises(ValueError, match="gamma_ode_step: p must be a Poly"):
        gamma_ode_step(bad, 1)


@pytest.mark.parametrize("args", [([1], 3), (True, 3), (1.0, 3), (1, [3]), (1, 3.0)])
def test_coefficient_checks_its_arguments_before_its_cache(args):
    # (1, 3) is cached first; True and 1.0 hash as 1 would, and a list is unhashable
    assert gamma_coeff(1, 3) == 1
    for _ in range(2):
        with pytest.raises(ValueError, match="gamma_coeff"):
            gamma_coeff(*args)
    assert gamma_coeff.cache_info().currsize >= 1


def test_deep_coefficient_needs_no_recursion():
    # the corner gamma(k, 3k) depends on one entry per row, so row 1200 is
    # reached without building the rows below it
    assert gamma_coeff(1200, 3600) == factorial(3600) // (factorial(1200) * 6**1200)


@pytest.mark.parametrize("table_rows", [1, 3])
def test_coefficients_beyond_the_row_table_match_the_ode_rows(monkeypatch, table_rows):
    # gamma_coeff past the last tabled row walks the cone of entries it
    # needs; bypass its cache and start from a short table
    table = [gamma_row(k) for k in range(table_rows)]
    monkeypatch.setattr(gamma, "_ROWS", list(table))
    uncached = gamma._gamma_coeff.__wrapped__
    for k, ode in enumerate(gamma._ode_polys(15)):
        lo, hi = support(k)
        got = [uncached(k, i) for i in range(lo - 2, hi + 3)]
        want = [ode.coeffs[i] if lo <= i <= hi else 0 for i in range(lo - 2, hi + 3)]
        assert got == want, k
    assert gamma._ROWS == table  # the cone is kept nowhere


# -- expansion of the triangle along a diagonal ---------------------------------


def test_binomial_expansion_matches_triangle():
    for k in range(1, 6):
        for n in range(1, 21):
            assert ls_binomial_expansion(n, k) == ls(n + k, n)


def test_nested_sum_matches_binomial_expansion():
    for k in range(1, 5):
        for n in range(1, 16):
            assert ls_nested_sum(n, k) == ls_binomial_expansion(n, k)


def test_near_diagonal_closed_forms():
    for n in range(0, 21):
        assert ls(n + 1, n) == 2 * comb(n + 2, 3)
        assert ls(n + 2, n) == (
            40 * comb(n + 3, 6) + 32 * comb(n + 3, 5) + 4 * comb(n + 3, 4)
        )
        assert ls(n + 3, n) == 8 * (
            280 * comb(n + 4, 9)
            + 448 * comb(n + 4, 8)
            + 219 * comb(n + 4, 7)
            + 34 * comb(n + 4, 6)
            + comb(n + 4, 5)
        )


def test_first_kind_expansion_reflects_the_triangle():
    for k in range(1, 5):
        for n in range(k + 1, 16):
            assert lc_expansion(n, k) == lc(n - 1, n - k - 1)


# -- binomial polynomial helpers --------------------------------------------------


def test_binomial_poly_interpolates_binomial_coefficients():
    for m in range(0, 6):
        p = _binomial_poly(m)
        assert p.degree == m or (m == 0 and p == Poly((1,)))
        for t in range(-8, 9):
            assert p.eval(t) == _binomial(t, m)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=-5, max_value=8))
def test_quadratic_shift_identity_on_binomial_polynomials(a, b):
    assert lemma_binomial_identity(a, b)


def test_the_lemma_reports_the_difference_of_its_two_sides(monkeypatch):
    # C(x, 3) one too large spoils the C(a+2, 2) C(x, a+2) term of the right side at a = 1
    real = gamma._binomial_poly
    monkeypatch.setattr(gamma, "_binomial_poly", lambda m: real(m) + (m == 3))
    result = lemma_binomial_identity(1, 0)
    assert not result and result.detail == "a=1, b=0: difference -3"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ls_binomial_expansion(-1, 1), "ls_binomial_expansion: indices must be nonnegative"),
        (lambda: ls_binomial_expansion(1, -1), "ls_binomial_expansion: indices must be nonnegative"),
        (lambda: ls_nested_sum(0, 1), "ls_nested_sum: need n >= 1 and k >= 1"),
        (lambda: ls_nested_sum(1, 0), "ls_nested_sum: need n >= 1 and k >= 1"),
        (lambda: lc_expansion(0, 0), "lc_expansion: need n >= 1 and 0 <= k <= n-1"),
        (lambda: lc_expansion(3, -1), "lc_expansion: need n >= 1 and 0 <= k <= n-1"),
        (lambda: lc_expansion(3, 3), "lc_expansion: need n >= 1 and 0 <= k <= n-1"),
    ],
    ids=["expansion-n", "expansion-k", "nested-n", "nested-k", "lc-n", "lc-negative-k", "lc-k-past-n"],
)
def test_expansions_reject_an_index_out_of_their_range(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("bad", [2.5, "2", None, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: ls_binomial_expansion(v, 1),
        lambda v: ls_binomial_expansion(2, v),
        lambda v: ls_nested_sum(v, 1),
        lambda v: ls_nested_sum(2, v),
        lambda v: lc_expansion(v, 1),
        lambda v: lc_expansion(3, v),
        lambda v: lemma_binomial_identity(v, 0),
        lambda v: lemma_binomial_identity(1, v),
        closed_forms,
    ],
    ids=[
        "ls_binomial_expansion-n",
        "ls_binomial_expansion-k",
        "ls_nested_sum-n",
        "ls_nested_sum-k",
        "lc_expansion-n",
        "lc_expansion-k",
        "lemma_binomial_identity-a",
        "lemma_binomial_identity-b",
        "closed_forms",
    ],
)
def test_non_int_arguments_raise_value_error(call, bad):
    with pytest.raises(ValueError, match="must be ints"):
        call(bad)
