"""Triangle recurrences, alternate computation routes, and identity checks."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_impl import ls_explicit_by_fractions

from lstirling import CheckResult, algebra, grammar, realroots, triangles
from lstirling.algebra import Poly
from lstirling.cli import TABLE_CAPS
from lstirling.codes import count_codes
from lstirling.gamma import gamma_coeff, gamma_poly, gamma_row, support
from lstirling.triangles import jc, js, lc, ls, ls_explicit

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
# The roots of the two horizontal identities, the column factors k(k+1) and
# k(k+z), stated here rather than read off the triangles' steps.
ROOTS = {"ls": lambda i: i * (i + 1), "js": lambda i: Poly((i * i, i))}


def _horizontal(name, nmax):
    """The horizontal sweep of the module's ls or js triangle against its root."""
    return triangles._horizontal_sweep(nmax, getattr(triangles, f"{name}_triangle"), ROOTS[name])


def test_ls_matches_frozen_rows():
    for n, row in LS_ROWS.items():
        assert [ls(n, k) for k in range(n + 1)] == row


def test_lc_matches_frozen_rows():
    for n, row in LC_ROWS.items():
        assert [lc(n, k) for k in range(n + 1)] == row


def test_js_matches_frozen_rows():
    for n, row in JS_ROWS.items():
        assert [js(n, k) for k in range(n + 1)] == [Poly(cs) for cs in row]


def test_jc_matches_frozen_rows():
    for n, row in JC_ROWS.items():
        assert [jc(n, k) for k in range(n + 1)] == [Poly(cs) for cs in row]


@pytest.mark.parametrize(
    "name, factor",
    [("js", lambda n, k: Poly((k * k, k))), ("jc", lambda n, k: Poly(((n - 1) ** 2, n - 1)))],
)
def test_z_triangle_rows_equal_rows_built_by_generic_poly_arithmetic(name, factor):
    # the fill's fused kernel against T(n-1,k-1) + f(n,k) T(n-1,k) through Poly's + and *
    row = [Poly((1,))]
    for n, got in enumerate(_fresh(getattr(triangles, f"{name}_triangle")).rows(60)):
        if n:
            cells = [Poly(), *row, Poly()]
            row = [cells[k] + factor(n, k) * cells[k + 1] for k in range(n + 1)]
        assert got == row


def test_the_identity_sweeps_never_call_the_fused_kernel(monkeypatch):
    # rows already cached, so a call could come only from a sweep's own products
    js(15, 0), jc(15, 0)
    for module in (algebra, triangles):
        monkeypatch.setattr(module, "_add_linear_multiple", lambda *a: pytest.fail("the fill's kernel was called"))
    assert all(_horizontal("js", 15)) and all(triangles._jc_product_sweep(15))
    assert all(grammar._js_sweep(15)) and all(grammar._jc_sweep(15))


def _fresh(triangle):
    return triangles.Triangle(triangle.step, triangle.one, triangle.zero, triangle.tag)


ROW_TRIANGLES = {
    "ls": triangles.ls_triangle,
    "lc": triangles.lc_triangle,
    "js": triangles.js_triangle,
    "jc": triangles.jc_triangle,
    "stirling1": grammar._stirling1,
    "stirling2": grammar._stirling2,
}


@pytest.mark.parametrize("name", sorted(ROW_TRIANGLES))
@pytest.mark.parametrize("nmax", [0, 1, 7, 30])
@pytest.mark.parametrize("cached", ["empty", "part", "longer"])
def test_streamed_rows_equal_the_cached_rows(name, nmax, cached):
    reference = _fresh(ROW_TRIANGLES[name])
    want = [[reference.value(n, k) for k in range(n + 1)] for n in range(nmax + 1)]
    t = _fresh(ROW_TRIANGLES[name])
    # the cache holds rows 0..nmax // 2, or rows past nmax
    if cached != "empty":
        t.value(nmax // 2 if cached == "part" else nmax + 3, 0)
    before = len(t._rows)
    assert list(t.rows(nmax)) == want
    # streaming past the cache stores nothing
    assert len(t._rows) == before


def test_streamed_rows_match_frozen_rows():
    assert list(_fresh(triangles.ls_triangle).rows(7)) == [LS_ROWS[n] for n in range(8)]
    assert list(_fresh(triangles.lc_triangle).rows(6)) == [LC_ROWS[n] for n in range(7)]
    assert list(_fresh(triangles.js_triangle).rows(5))[1:] == [[Poly(cs) for cs in JS_ROWS[n]] for n in range(1, 6)]
    assert list(_fresh(triangles.jc_triangle).rows(5))[1:] == [[Poly(cs) for cs in JC_ROWS[n]] for n in range(1, 6)]


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


def test_explicit_weights_are_a_new_list_per_call():
    # nothing caches them, so a caller may change its list
    weights = triangles._explicit_weights(7)
    want = [(-1) ** (r + 7) * (2 * r + 1) * math.comb(15, 7 - r) for r in range(8)]
    assert weights == want
    weights[0] = 0
    assert triangles._explicit_weights(7) == want and triangles._explicit_weights(7) is not weights
    triangles._explicit_value.cache_clear()
    assert ls_explicit(9, 7) == ls(9, 7)


def test_explicit_rows_match_the_per_call_sum():
    rows = list(triangles._explicit_rows(30))
    assert [len(row) for row in rows] == list(range(1, 32))
    assert all(row[k] == ls_explicit(n, k) for n, row in enumerate(rows) for k in range(n + 1))


def test_explicit_sum_raises_when_the_division_is_inexact(monkeypatch):
    # (2k+1)! + 1 no longer divides the integer sum: the guard must fire,
    # so ls_explicit(5, 2) must miss the cache that an earlier test filled
    triangles._explicit_value.cache_clear()
    monkeypatch.setattr(triangles, "factorial", lambda m: math.factorial(m) + 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        ls_explicit(5, 2)
    with pytest.raises(ArithmeticError, match=r"ls_explicit\(0,0\) is not an integer"):
        next(triangles._explicit_rows(5))


def test_a_repeated_explicit_sum_is_a_cache_hit(monkeypatch):
    triangles._explicit_value.cache_clear()
    calls = []
    real = triangles._explicit
    monkeypatch.setattr(triangles, "_explicit", lambda *args: calls.append(args[:2]) or real(*args))
    assert ls_explicit(9, 4) == ls_explicit(9, 4) == ls(9, 4)
    assert calls == [(9, 4)]
    assert triangles._explicit_value.cache_info().hits == 1


def test_explicit_rows_leave_the_per_entry_cache_alone():
    ls_explicit(7, 3)
    before = triangles._explicit_value.cache_info()
    list(triangles._explicit_rows(30))
    assert triangles._explicit_value.cache_info() == before


def test_explicit_sums_past_the_ls_table_cap_leave_the_cache_alone():
    # an answer past n = 200 has no size bound, so it is never kept
    assert triangles._EXPLICIT_CACHE_NMAX == TABLE_CAPS["ls"]
    triangles._explicit_value.cache_clear()
    before = triangles._explicit_value.cache_info()
    assert ls_explicit(1000, 1) == 2**999
    assert ls_explicit(201, 3) == ls_explicit(201, 3) == ls(201, 3)
    assert triangles._explicit_value.cache_info() == before
    ls_explicit(200, 3)
    assert triangles._explicit_value.cache_info().currsize == 1


def test_explicit_sums_past_the_ls_table_cap_in_k_match_the_rows():
    triangles._explicit_value.cache_clear()
    assert ls_explicit(5, 201) == 0
    assert ls_explicit(202, 201) == list(_fresh(triangles.ls_triangle).rows(202))[-1][201]


@pytest.mark.parametrize("bad", [2.5, "1", None, True, [1], -1])
@pytest.mark.parametrize("call", [lambda v: ls_explicit(v, 1), lambda v: ls_explicit(3, v)], ids=["n", "k"])
def test_explicit_sum_checks_its_arguments_on_every_call(call, bad):
    # the checks run before the cache, whose key over a list would raise
    # TypeError, and a rejected argument leaves nothing there to hit
    for _ in range(2):
        with pytest.raises(ValueError, match="ls_explicit"):
            call(bad)


def test_triangle_lookups_index_a_bool_as_its_int():
    # True and False index as 1 and 0, cached or not
    assert ls(True, 0) == ls(1, 0) and ls(2, True) == ls(2, 1)
    assert js(True, 1) == js(1, 1) and jc(3, False) == jc(3, 0)
    assert ls(True, 2) == 0 and _fresh(triangles.lc_triangle).value(True, True) == lc(1, 1)


@pytest.mark.parametrize("lookup", [ls, lc, js, jc])
@pytest.mark.parametrize("index", [(2, 3.0), (2.0, 3), (2, 1.0), (2.0, 1), (None, 1), ("2", 1), (1, [0])], ids=str)
def test_triangle_lookups_reject_a_non_int_index(lookup, index):
    lookup(3, 3)  # row 2 is cached, so (2, 1.0) is rejected on the cached path
    # a float past the row used to read as a vacuous zero
    with pytest.raises(ValueError, match="must be nonnegative ints"):
        lookup(*index)


class _IndexLike:
    """An index as numpy.int64 is one: __index__ and comparisons, but not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __ge__(self, other):
        return self.value >= other


@pytest.mark.parametrize("name", sorted(ROW_TRIANGLES))
def test_triangle_lookups_take_an_index_like_int_cached_or_not(name):
    t = _fresh(ROW_TRIANGLES[name])
    t.value(3, 3)  # row 2 is cached and row 9 is not
    for n, k in [(2, 1), (9, 4)]:
        assert t.value(_IndexLike(n), _IndexLike(k)) == ROW_TRIANGLES[name].value(n, k)


@pytest.mark.parametrize("name", sorted(ROW_TRIANGLES))
def test_triangle_lookups_reject_a_negative_index_like_int_cached_or_not(name):
    t = _fresh(ROW_TRIANGLES[name])
    t.value(3, 3)  # row 2 is cached and row 9 is not
    for index in [(_IndexLike(-1), 0), (2, _IndexLike(-1)), (9, _IndexLike(-1)), (_IndexLike(-9), _IndexLike(4))]:
        with pytest.raises(ValueError, match="must be nonnegative ints"):
            t.value(*index)
    assert len(t._rows) == 4


def test_vertical_recurrence_agrees_with_recurrence():
    # ls(n, j) = sum_{k=j..n} ls(k-1, j-1) (j(j+1))^(n-k), the identity whose
    # generating function _vertical_gf_sweep checks, taken here term by term
    for n in range(1, 13):
        for j in range(1, n + 1):
            assert sum(ls(k - 1, j - 1) * (j * (j + 1)) ** (n - k) for k in range(j, n + 1)) == ls(n, j)


@pytest.mark.parametrize("bad", [2.5, "1", None, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: ls_explicit(v, 1),
        lambda v: ls_explicit(3, v),
        lambda v: count_codes(v, 1),
        lambda v: count_codes(3, v),
        support,
        gamma_row,
        lambda v: gamma_coeff(v, 5),
        lambda v: gamma_coeff(3, v),
    ],
    ids=[
        "ls_explicit-n",
        "ls_explicit-k",
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


@pytest.mark.parametrize("bad", ["2", 2.5, None, True])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(grammar.jc_grammar, id="jc_grammar"),
        pytest.param(realroots.expected_pattern, id="expected_pattern"),
        pytest.param(realroots.q_poly, id="q_poly"),
        # checked when called, before the induction is iterated
        pytest.param(realroots.conjecture_results, id="conjecture_results"),
        pytest.param(gamma_poly, id="gamma_poly"),
    ],
)
def test_index_only_functions_reject_a_non_int_with_value_error(call, bad):
    with pytest.raises(ValueError, match="must be ints"):
        call(bad)


def test_vertical_generating_function_route():
    # the product for k checked up to x^(18-k), for k = 1..18
    results = list(triangles._vertical_gf_sweep(18))
    assert len(results) == 18 and all(results)


# -- identities ----------------------------------------------------------------


def test_power_basis_expands_in_shifted_factorial_basis():
    results = list(_horizontal("ls", 10))
    assert len(results) == 11 and all(results)


def test_bivariate_horizontal_identity():
    results = list(_horizontal("js", 8))
    assert len(results) == 9 and all(results)


def test_first_kind_defining_product():
    results = list(triangles._jc_product_sweep(8))
    assert len(results) == 9 and all(results)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_vertical_check_at_order_zero_reads_the_diagonal(k):
    # at k = nmax one coefficient: the product of the constant terms, ls(k, k) = 1
    assert [bool(r) for r in triangles._vertical_gf_sweep(k)] == [True] * k


def _counted(monkeypatch, name):
    calls = []
    real = getattr(triangles, name)
    monkeypatch.setattr(triangles, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_the_vertical_sweep_multiplies_one_series_per_k(monkeypatch):
    calls = _counted(monkeypatch, "_convolve")
    for nmax in (1, 2, 8, 14):
        calls.clear()
        assert all(triangles._vertical_gf_sweep(nmax))
        assert len(calls) == nmax
    # each product is the previous one, truncated, times one geometric series
    assert [size for _, _, size in calls] == list(range(14, 0, -1))
    assert [b for _, b, _ in calls] == [[(k * (k + 1)) ** j for j in range(15 - k)] for k in range(1, 15)]
    assert calls[0][0] == [1] and [len(a) for a, _, _ in calls[1:]] == list(range(14, 1, -1))


def test_the_js_sweep_extends_one_falling_factor_per_index(monkeypatch):
    operands = []
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: operands.append(b) or real(a, b))
    assert all(_horizontal("js", 10))
    # the factors in x; the other Poly operands are coefficients in z
    factors = [b for b in operands if isinstance(b, Poly) and b.coeffs and isinstance(b.coeffs[0], Poly)]
    assert factors == [Poly((Poly((-i * i, -i)), 1)) for i in range(10)]
    # at z = 1 they are the ls sweep's factors x - i(i+1)
    at_1 = [Poly(c.eval(1) if isinstance(c, Poly) else c for c in f.coeffs) for f in factors]
    assert at_1 == [Poly((-i * (i + 1), 1)) for i in range(10)]


def test_the_ls_and_jc_sweeps_extend_one_factor_per_index(monkeypatch):
    operands = []
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: operands.append(b) or real(a, b))
    # the ls sums scale each basis by an int, so every Poly operand is a factor
    assert all(_horizontal("ls", 10))
    assert [b for b in operands if isinstance(b, Poly)] == [Poly((-(k - 1) * k, 1)) for k in range(1, 11)]
    operands.clear()
    # the factors in x; the other Poly operands are coefficients in z
    assert all(triangles._jc_product_sweep(10))
    factors = [b for b in operands if isinstance(b, Poly) and b.coeffs and isinstance(b.coeffs[0], Poly)]
    assert factors == [Poly((Poly(((n - 1) ** 2, n - 1)), 1)) for n in range(1, 11)]


@pytest.mark.parametrize(
    "name,detail",
    [
        ("ls", "n=5: difference -2x+x^2"),
        ("js", "n=5: difference (-1-z)x+(1)x^2"),
        ("jc", "n=5: difference (-1)x^2"),
    ],
)
def test_a_wrong_value_fails_its_index_only(monkeypatch, off_by_one, name, detail):
    # the sweeps read the triangle's rows, so the fault sits in its row step
    triangle = f"{name}_triangle"
    monkeypatch.setattr(triangles, triangle, off_by_one(getattr(triangles, triangle), (5, 2)))
    results = list(triangles._jc_product_sweep(8) if name == "jc" else _horizontal(name, 8))
    assert [bool(r) for r in results] == [n != 5 for n in range(9)]
    assert results[5].detail == detail


def test_the_horizontal_root_is_the_callers_not_the_steps():
    # an ls-shaped triangle with column factor k(k+2) satisfies the identity
    # for its own root i(i+2), so only a root stated apart from the step tells
    # it from ls
    shifted = triangles.Triangle(lambda n, k, left, right: left + k * (k + 2) * right, tag="shifted")
    assert all(triangles._horizontal_sweep(8, shifted, lambda i: i * (i + 2)))
    results = list(triangles._horizontal_sweep(8, shifted, ROOTS["ls"]))
    assert [bool(r) for r in results[:3]] == [True, True, False]
    assert results[2].detail == "n=2: difference x"
    assert all(triangles._horizontal_sweep(8, triangles.ls_triangle, ROOTS["ls"]))


def test_a_wrong_vertical_value_fails_its_k_only(monkeypatch):
    real = triangles.ls
    monkeypatch.setattr(triangles, "ls", lambda n, k: real(n, k) + (1 if (n, k) == (8, 3) else 0))
    results = list(triangles._vertical_gf_sweep(8))
    assert [bool(r) for r in results] == [k != 3 for k in range(1, 9)]
    assert results[2].detail == "k=3: coefficient of x^5 is 585536, triangle gives 585537"


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
