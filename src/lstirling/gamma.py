"""Binomial-basis expansions of ls(n+k, n) along diagonals.

For fixed k the diagonal n -> ls(n+k, n) is a polynomial in n of degree 3k.
It expands exactly in the binomial basis as

    ls(n+k, n) = 2^k sum_i gamma(k, i) C(n+k+1, i),

with positive integer coefficients gamma(k, i) supported on k+2 <= i <= 3k
for k >= 1 (and gamma(0, 0) = 1).  The coefficients satisfy an integer
three-term recurrence in k and, equivalently, the polynomials
gamma_k(x) = sum_i gamma(k, i) x^i satisfy a derivative-based recurrence;
both routes are implemented and must agree.  Evaluating the expansion at
negative arguments produces the first-kind diagonal lc(n-1, n-k-1).
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import CheckResult, _require_int
from .algebra import Poly, _binomial


def support(k: int) -> tuple:
    """Index range (lo, hi) where gamma(k, .) can be nonzero."""
    _require_int("support", k)
    if k < 0:
        raise ValueError(f"support: k must be nonnegative, got {k}")
    return (0, 0) if k == 0 else (k + 2, 3 * k)


def _next_row(prev: tuple, prev_lo: int, k: int, lo: int, hi: int) -> tuple:
    """(gamma(k, lo), ..., gamma(k, hi)) by the integer recurrence

    gamma(k,i) = C(i-k,2) gamma(k-1,i-1) + (i-1)(i-k-1) gamma(k-1,i-2)
                 + C(i-1,2) gamma(k-1,i-3),

    from prev = (gamma(k-1, prev_lo), ...).  Entries of row k-1 outside prev
    count as 0, so prev must hold every in-support entry the window reads;
    the window lies in the support of row k.
    """
    g = (0, 0, 0) + prev + (0, 0, 0)
    off = 3 - prev_lo  # g[j + off] = gamma(k-1, j)
    return tuple(
        comb(i - k, 2) * g[i - 1 + off] + (i - 1) * (i - k - 1) * g[i - 2 + off] + comb(i - 1, 2) * g[i - 3 + off]
        for i in range(lo, hi + 1)
    )


# _ROWS[k] is gamma_row(k); rows are appended in order, seeded by gamma(0,0) = 1
_ROWS = [(1,)]


def gamma_row(k: int) -> tuple:
    """In-support coefficients (gamma(k, lo), ..., gamma(k, hi)).

    Rows are filled iteratively up to k and kept for the process's lifetime.
    """
    support(k)
    while len(_ROWS) <= k:
        m = len(_ROWS)
        _ROWS.append(_next_row(_ROWS[-1], support(m - 1)[0], m, *support(m)))
    return _ROWS[k]


def gamma_coeff(k: int, i: int) -> int:
    """gamma(k, i); zero outside the support.

    Read from the row table when row k is there.  Beyond it, only the cone of
    entries that gamma(k, i) depends on is computed, row by row from the last
    row in the table and kept nowhere: row m needs the indices within
    i - 3(k-m) .. i - (k-m), so a corner such as gamma(k, 3k) costs one
    entry per row.  The arguments are checked before the cache is read, so
    a bad one raises ValueError on every call.
    """
    _require_int("gamma_coeff", k, i)
    return _gamma_coeff(k, i)


@lru_cache(maxsize=None)
def _gamma_coeff(k: int, i: int) -> int:
    # gamma_coeff once its arguments are checked, cached per (k, i)
    if k < 0 or i < 0:
        return 0
    lo, hi = support(k)
    if not lo <= i <= hi:
        return 0
    top = min(k, len(_ROWS) - 1)
    row, row_lo = _ROWS[top], support(top)[0]
    for m in range(top + 1, k + 1):
        m_lo, m_hi = max(i - 3 * (k - m), m + 2), min(i - (k - m), 3 * m)
        row, row_lo = _next_row(row, row_lo, m, m_lo, m_hi), m_lo
    return row[i - row_lo]


# the cache adds nothing to the row table; it stays because the benchmark's
# tracer (perfbench/tracer.py) reads gamma_coeff.cache_info
gamma_coeff.cache_info = _gamma_coeff.cache_info


def gamma_poly(k: int) -> Poly:
    """gamma_k(x) = sum_i gamma(k, i) x^i, from the coefficient recurrence."""
    lo, _ = support(k)
    return Poly((0,) * lo + gamma_row(k))


def gamma_ode_step(p: Poly, k: int) -> Poly:
    """One step of the derivative-based recurrence: gamma_{k+1} from gamma_k.

    gamma_{k+1} = (k(k+1)/2 - kx + x^2) x gamma_k
                  - (k + (k-2)x - 2x^2) x^2 gamma_k'
                  + (1+x)^2 x^3 / 2 gamma_k''

    All divisions are exact: gamma_k''/2 has integer coefficients because
    i(i-1) is always even.  k must be a nonnegative int.
    """
    _require_int("gamma_ode_step", k)
    if k < 0:
        raise ValueError("gamma_ode_step: k must be nonnegative")
    d1 = p.derivative()
    d2 = d1.derivative()
    half_d2 = Poly(tuple(c // 2 for c in d2.coeffs))
    term1 = Poly((0, k * (k + 1) // 2, -k, 1)) * p
    term2 = Poly((0, 0, k, k - 2, -2)) * d1
    term3 = Poly((0, 0, 0, 1, 2, 1)) * half_d2
    return term1 - term2 + term3


def _ode_polys(kmax: int):
    """Yield gamma_0, ..., gamma_kmax, one gamma_ode_step each from gamma_0 = 1.

    Independent of gamma_coeff; the two must produce identical rows.
    """
    p = Poly((1,))
    yield p
    for m in range(kmax):
        p = gamma_ode_step(p, m)
        yield p


def ls_binomial_expansion(n: int, k: int) -> int:
    """ls(n+k, n) via 2^k sum_i gamma(k,i) C(n+k+1, i)."""
    _require_int("ls_binomial_expansion", n, k)
    if n < 0 or k < 0:
        raise ValueError("ls_binomial_expansion: indices must be nonnegative")
    lo, _ = support(k)
    return 2 ** k * sum(c * _binomial(n + k + 1, i) for i, c in enumerate(gamma_row(k), start=lo))


def ls_nested_sum(n: int, k: int) -> int:
    """ls(n+k, n) as the k-fold nested sum 2^k sum C(t_k+1,2) ... C(t_1+1,2).

    Every level carries the triangular factor C(t+1, 2); levels telescope as
    prefix sums, so the whole sum is a k-pass dynamic program.
    """
    _require_int("ls_nested_sum", n, k)
    if n < 1 or k < 1:
        raise ValueError("ls_nested_sum: need n >= 1 and k >= 1")
    cur = [0] * (n + 1)
    for t in range(1, n + 1):
        cur[t] = cur[t - 1] + _binomial(t + 1, 2)
    for _ in range(k - 1):
        nxt = [0] * (n + 1)
        for t in range(1, n + 1):
            nxt[t] = nxt[t - 1] + _binomial(t + 1, 2) * cur[t]
        cur = nxt
    return 2 ** k * cur[n]


def lc_expansion(n: int, k: int) -> int:
    """lc(n-1, n-k-1) via the expansion evaluated at a negated argument.

    (-1)^k 2^k sum_i gamma(k,i) C(-n+k+1, i); needs n >= 1 and 0 <= k <= n-1.
    """
    _require_int("lc_expansion", n, k)
    if n < 1 or k < 0 or n - k - 1 < 0:
        raise ValueError("lc_expansion: need n >= 1 and 0 <= k <= n-1")
    lo, _ = support(k)
    s = sum(c * _binomial(-n + k + 1, i) for i, c in enumerate(gamma_row(k), start=lo))
    return (-1) ** k * 2 ** k * s


def closed_forms(kmax: int) -> CheckResult:
    """Verify the four closed forms for 1 <= k <= kmax.

    gamma(k, k+2) = 1
    gamma(k, 3k)  = (3k)! / (k! 6^k)
    gamma_k(-1)   = (-1)^k (k+1)! k! / 2^k
    2^k gamma(k, 3k) / (3k)! = 1 / (k! 3^k)  (the leading coefficient)

    The last is checked in integers, cleared of its denominators.
    """
    _require_int("closed_forms", kmax)
    if kmax < 1:
        raise ValueError("closed_forms: kmax must be at least 1")
    for k in range(1, kmax + 1):
        checks = (
            ("gamma(k,k+2)=1", gamma_coeff(k, k + 2) == 1),
            (
                "gamma(k,3k)=(3k)!/(k! 6^k)",
                gamma_coeff(k, 3 * k) == factorial(3 * k) // (factorial(k) * 6 ** k),
            ),
            (
                "gamma_k(-1)=(-1)^k (k+1)! k!/2^k",
                gamma_poly(k).eval(-1)
                == (-1) ** k * factorial(k + 1) * factorial(k) // 2 ** k,
            ),
            (
                "leading coefficient 1/(k! 3^k)",
                2 ** k * gamma_coeff(k, 3 * k) * factorial(k) * 3 ** k == factorial(3 * k),
            ),
        )
        for name, ok in checks:
            if not ok:
                return CheckResult(False, f"k={k}: {name} fails")
    return CheckResult(True)


def binomial_poly(m: int) -> Poly:
    """C(x, m) = x(x-1)...(x-m+1)/m! as a polynomial with Fraction coefficients."""
    _require_int("binomial_poly", m)
    if m < 0:
        raise ValueError("binomial_poly: m must be nonnegative")
    from fractions import Fraction

    out = Poly((Fraction(1),))
    for i in range(m):
        out = out * Poly((Fraction(-i), Fraction(1)))
    return out * Fraction(1, factorial(m))


def lemma_binomial_identity(a: int, b: int) -> CheckResult:
    """Verify C(x-b,2) C(x,a) = C(a+2,2) C(x,a+2) + (a+1)(a-b) C(x,a+1)
    + C(a-b,2) C(x,a) as an exact polynomial identity in x."""
    _require_int("lemma_binomial_identity", a, b)
    if a < 0:
        raise ValueError("lemma_binomial_identity: a must be nonnegative")
    from fractions import Fraction

    xb = Poly((Fraction(-b), Fraction(1)))
    lhs = xb * (xb - 1) * Fraction(1, 2) * binomial_poly(a)
    rhs = (
        binomial_poly(a + 2) * _binomial(a + 2, 2)
        + binomial_poly(a + 1) * ((a + 1) * (a - b))
        + binomial_poly(a) * _binomial(a - b, 2)
    )
    if lhs == rhs:
        return CheckResult(True)
    return CheckResult(False, f"a={a}, b={b}: difference {(lhs - rhs).render()}")
