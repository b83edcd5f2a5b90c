"""Triangle recurrences, alternate computation routes, and identity checks."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_impl import ls_explicit_by_fractions

from lstirling import triangles
from lstirling.algebra import Poly
from lstirling.codes import count_codes
from lstirling.gamma import gamma_coeff, gamma_row, support
from lstirling.triangles import (
    CheckResult,
    horizontal_identity_js,
    horizontal_identity_ls,
    jc,
    jc_defining_product,
    js,
    lc,
    ls,
    ls_explicit,
    ls_triangle,
    ls_vertical,
    vertical_gf_check,
)

# Rows frozen from running the defining recurrences by hand; they double as
# regression anchors for every other computation route below.
LS_ROWS = {
    0: [1],
    1: [0, 1],
    2: [0, 2, 1],
    3: [0, 4, 8, 1],
    4: [0, 8, 52, 20, 1],
    5: [0, 16, 320, 292, 40, 1],
    6: [0, 32, 1936, 3824, 1092, 70, 1],
    7: [0, 64, 11648, 47824, 25664, 3192, 112, 1],
}
LC_ROWS = {
    0: [1],
    1: [0, 1],
    2: [0, 2, 1],
    3: [0, 12, 8, 1],
    4: [0, 144, 108, 20, 1],
    5: [0, 2880, 2304, 508, 40, 1],
    6: [0, 86400, 72000, 17544, 1708, 70, 1],
}
# Coefficient tuples ascending in z.
JS_ROWS = {
    1: [(), (1,)],
    2: [(), (1, 1), (1,)],
    3: [(), (1, 2, 1), (5, 3), (1,)],
    4: [(), (1, 3, 3, 1), (21, 24, 7), (14, 6), (1,)],
    5: [(), (1, 4, 6, 4, 1), (85, 141, 79, 15), (147, 120, 25), (30, 10), (1,)],
}
JC_ROWS = {
    1: [(), (1,)],
    2: [(), (1, 1), (1,)],
    3: [(), (4, 6, 2), (5, 3), (1,)],
    4: [(), (36, 66, 36, 6), (49, 48, 11), (14, 6), (1,)],
    5: [(), (576, 1200, 840, 240, 24), (820, 1030, 404, 50), (273, 200, 35), (30, 10), (1,)],
}


def test_ls_matches_frozen_rows():
    for n, row in LS_ROWS.items():
        assert [ls(n, k) for k in range(n + 1)] == row
        assert ls_triangle.row(n) == row


def test_lc_matches_frozen_rows():
    for n, row in LC_ROWS.items():
        assert [lc(n, k) for k in range(n + 1)] == row


def test_js_matches_frozen_rows():
    for n, row in JS_ROWS.items():
        assert [js(n, k) for k in range(n + 1)] == [Poly(cs) for cs in row]


def test_jc_matches_frozen_rows():
    for n, row in JC_ROWS.items():
        assert [jc(n, k) for k in range(n + 1)] == [Poly(cs) for cs in row]


def test_known_row_sums():
    assert sum(ls(5, k) for k in range(6)) == 669
    assert sum(ls(6, k) for k in range(7)) == 6955


def test_values_vanish_above_the_diagonal():
    assert ls(3, 5) == 0
    assert lc(0, 1) == 0
    assert js(2, 3) == Poly(())


def test_negative_indices_are_rejected():
    with pytest.raises(ValueError):
        ls(-1, 0)
    with pytest.raises(ValueError):
        ls(3, -1)


# -- alternate routes ---------------------------------------------------------


def test_explicit_sum_agrees_with_recurrence():
    for n in range(61):
        for k in range(n + 1):
            assert ls_explicit(n, k) == ls_explicit_by_fractions(n, k) == ls(n, k)


def test_explicit_sum_raises_when_the_division_is_inexact(monkeypatch):
    # (2k+1)! + 1 no longer divides the integer sum: the guard must fire
    monkeypatch.setattr(triangles, "factorial", lambda m: math.factorial(m) + 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        ls_explicit(5, 2)


def test_vertical_recurrence_agrees_with_recurrence():
    for n in range(1, 13):
        for j in range(1, n + 1):
            assert ls_vertical(n, j) == ls(n, j)


def test_vertical_recurrence_rejects_out_of_range_column():
    with pytest.raises(ValueError):
        ls_vertical(4, 0)
    with pytest.raises(ValueError):
        ls_vertical(4, 5)


@pytest.mark.parametrize("bad", [2.5, "1", None, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: ls_explicit(v, 1),
        lambda v: ls_explicit(3, v),
        lambda v: ls_vertical(v, 1),
        lambda v: ls_vertical(3, v),
        lambda v: count_codes(v, 1),
        lambda v: count_codes(3, v),
        support,
        gamma_row,
        # past its cache, whose keys cannot tell True from 1
        lambda v: gamma_coeff.__wrapped__(v, 5),
        lambda v: gamma_coeff.__wrapped__(3, v),
    ],
    ids=[
        "ls_explicit-n",
        "ls_explicit-k",
        "ls_vertical-n",
        "ls_vertical-j",
        "count_codes-n",
        "count_codes-k",
        "support",
        "gamma_row",
        "gamma_coeff-k",
        "gamma_coeff-i",
    ],
)
def test_non_int_arguments_raise_value_error(call, bad):
    with pytest.raises(ValueError, match="must be ints"):
        call(bad)


def test_vertical_generating_function_route():
    for k in range(1, 7):
        assert vertical_gf_check(k, 12)
    with pytest.raises(ValueError):
        vertical_gf_check(0, 5)


# -- identities ----------------------------------------------------------------


def test_power_basis_expands_in_shifted_factorial_basis():
    for n in range(11):
        assert horizontal_identity_ls(n)


def test_bivariate_horizontal_identity():
    for n in range(9):
        assert horizontal_identity_js(n)


def test_first_kind_defining_product():
    for n in range(9):
        assert jc_defining_product(n)


def test_z_equal_one_specializes_to_integer_triangles():
    for n in range(11):
        for k in range(n + 1):
            assert js(n, k).eval(1) == ls(n, k)
            assert jc(n, k).eval(1) == lc(n, k)


def test_js_z_degree_is_n_minus_k():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert js(n, k).degree == n - k


@given(st.integers(min_value=1, max_value=14))
def test_top_and_subtop_entries(n):
    assert ls(n, n) == 1
    assert lc(n, n) == 1
    if n >= 2:
        # one step below the diagonal the recurrences telescope to sums
        assert ls(n, n - 1) == sum(k * (k + 1) for k in range(1, n))
        assert lc(n, n - 1) == sum(m * (m - 1) for m in range(1, n + 1))


@given(st.integers(min_value=1, max_value=12))
def test_first_column_closed_forms(n):
    assert ls(n, 1) == 2 ** (n - 1)
    assert lc(n, 1) == _product_of_consecutive_pairs(n)


def _product_of_consecutive_pairs(n: int) -> int:
    # lc(n,1) telescopes to prod_{m=2}^n m(m-1) = n!(n-1)!
    out = 1
    for m in range(2, n + 1):
        out *= m * (m - 1)
    return out


def test_check_result_is_truthy_on_ok():
    assert CheckResult(True)
    assert not CheckResult(False, "why")
    assert CheckResult(False, "why").detail == "why"
