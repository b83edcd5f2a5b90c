"""The Legendre-Stirling and Jacobi-Stirling number triangles.

Four triangles share the shape T(n,k) = T(n-1,k-1) + f(n,k) T(n-1,k) with
T(0,0) = 1 and T vanishing outside 0 <= k <= n:

    ls(n,k)   f = k(k+1)          second kind, integer entries
    lc(n,k)   f = n(n-1)          first kind, integer entries
    js(n,k)   f = k(k+z)          second kind, entries in Z[z]
    jc(n,k)   f = (n-1)(n-1+z)    first kind, entries in Z[z]

Setting z = 1 in js/jc recovers ls/lc.  Each triangle is given by its cell
step, step(n, k, left, right) = left + f(n,k) right with left = T(n-1,k-1)
and right = T(n-1,k).  The integer triangles add and multiply ints; js and
jc take the fused kernel `algebra._add_linear_multiple`, which forms
left + (a + bz) right in one pass without building f as a Poly.  The
identity sweeps build their products through Poly arithmetic and never call
that kernel, so they stay independent of the fill.

Alongside the recurrences this module carries the independent routes to
the same numbers (explicit alternating sum, vertical recurrence,
generating-function products) and the identity checks that tie all routes
together.  Each identity is checked by a sweep that
yields one CheckResult per index and builds index n from index n-1 by one
more factor, and the explicit sum has a row sweep that advances each power
by one factor per row.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from operator import mul

from . import CheckResult, _require_int
from .algebra import Poly, _add_linear_multiple, _convolve, _falling_bases


class Triangle:
    """Memoized triangle for T(n,k) = T(n-1,k-1) + f(n,k) T(n-1,k).

    The recurrence is given as its cell step, step(n, k, left, right) with
    left = T(n-1,k-1) and right = T(n-1,k), which returns T(n,k); a cell
    outside row n-1 is passed as `zero`.  `value` fills rows iteratively
    and caches them for the lifetime of the instance; `rows` streams them
    without filling the cache.  Both build a row by `_next_row`.  The
    package is single-process and takes no lock.  `one` and `zero` fix the
    entry ring (ints, or Poly for the z-triangles).
    """

    def __init__(self, step, one=1, zero=0, tag: str = ""):
        self.step = step
        self.one = one
        self.zero = zero
        self.tag = tag
        self._rows = [[one]]

    def _next_row(self, prev: list) -> list:
        """Row m = len(prev), built from row m-1: the only copy of the triangle's shape."""
        m, step = len(prev), self.step
        # cells[j] is T(m-1, j-1) and cells[j+1] is T(m-1, j), zero outside the row
        cells = [self.zero, *prev, self.zero]
        return [step(m, j, cells[j], cells[j + 1]) for j in range(m + 1)]

    def value(self, n: int, k: int):
        # a cached cell is read before any check: a non-int index fails the
        # read and reaches the checks below, and a bool indexes as its int
        try:
            if n >= 0 and k >= 0:
                return self._rows[n][k]
        except (IndexError, TypeError):
            pass
        if not (isinstance(n, int) and isinstance(k, int)) or n < 0 or k < 0:
            raise ValueError(f"triangle {self.tag}: indices must be nonnegative ints, got ({n!r}, {k!r})")
        if k > n:
            return self.zero
        while len(self._rows) <= n:
            self._rows.append(self._next_row(self._rows[-1]))
        return self._rows[n][k]

    def rows(self, nmax: int):
        """Yield the rows n = 0..nmax as lists [T(n,0), ..., T(n,n)].

        Rows already cached are yielded as they are, and each further row is
        built from the one before and stored nowhere, so a pass past the
        cache holds two rows, not the whole triangle.  Treat the rows as
        read-only: a cached one is the cache's own list.
        """
        memo = self._rows
        row = None
        for n in range(nmax + 1):
            row = memo[n] if n < len(memo) else self._next_row(row)
            yield row


ls_triangle = Triangle(lambda n, k, left, right: left + k * (k + 1) * right, tag="ls")
lc_triangle = Triangle(lambda n, k, left, right: left + n * (n - 1) * right, tag="lc")
js_triangle = Triangle(
    lambda n, k, left, right: _add_linear_multiple(left, right, k * k, k), one=Poly((1,)), zero=Poly(), tag="js"
)
jc_triangle = Triangle(
    lambda n, k, left, right: _add_linear_multiple(left, right, (n - 1) ** 2, n - 1),
    one=Poly((1,)),
    zero=Poly(),
    tag="jc",
)


def ls(n: int, k: int) -> int:
    """Legendre-Stirling number of the second kind, by the triangular recurrence."""
    return ls_triangle.value(n, k)


def lc(n: int, k: int) -> int:
    """Legendre-Stirling number of the first kind (unsigned)."""
    return lc_triangle.value(n, k)


def js(n: int, k: int) -> Poly:
    """Jacobi-Stirling number of the second kind, a polynomial in z."""
    return js_triangle.value(n, k)


def jc(n: int, k: int) -> Poly:
    """Jacobi-Stirling number of the first kind, a polynomial in z."""
    return jc_triangle.value(n, k)


# the ls table cap: ls_explicit caches no answer for a larger n
_EXPLICIT_CACHE_NMAX = 200


def _explicit_weights(k: int) -> list:
    """The signed weights (-1)^(r+k) (2r+1) C(2k+1, k-r) of the explicit sum, r = 0..k."""
    return [(-(2 * r + 1) if (r + k) & 1 else 2 * r + 1) * comb(2 * k + 1, k - r) for r in range(k + 1)]


def _explicit(n: int, k: int, weights: list, powers: list) -> int:
    """ls(n,k) as sum_r weights[r] powers[r] / (2k+1)!, where powers[r] = (r^2+r)^n.

    powers may run past r = k; the sum stops with the weights.
    """
    total = sum(map(mul, weights, powers))
    denominator = factorial(2 * k + 1)
    quotient, remainder = divmod(total, denominator)
    if remainder:
        raise ArithmeticError(f"ls_explicit({n},{k}) is not an integer: {total}/{denominator}")
    return quotient


@lru_cache(maxsize=1024)
def _explicit_value(n: int, k: int) -> int:
    """ls_explicit(n,k) once its arguments are checked, cached per (n, k).

    1024 entries hold every (n, k) with n <= 40 (861 keys).  ls_explicit
    reads the cache only for n <= _EXPLICIT_CACHE_NMAX, where an entry is at
    most about 1,750 bits, so a full cache stays under 1 MB.
    """
    return _explicit(n, k, _explicit_weights(k), [(r * r + r) ** n for r in range(k + 1)])


def ls_explicit(n: int, k: int) -> int:
    """ls(n,k) by the explicit alternating sum.

    Sum over r = 0..k of (-1)^(r+k) (2r+1) (r^2+r)^n / ((r+k+1)! (k-r)!).
    Every denominator divides (2k+1)!, with quotient C(2k+1, k-r), so the sum
    is taken in integers over that one denominator and finished by a single
    division.  Python's 0**0 == 1 supplies the convention needed at n = 0.  A
    nonzero remainder would mean an implementation bug and raises
    ArithmeticError.  Answers for n up to the ls table cap of 200 are cached
    per (n, k), up to 1024 entries; a larger n, whose answer has no size
    bound, is computed on every call and kept nowhere, and the row sweep of
    verify identities computes its own.  The arguments are checked before
    the cache is read, so a bad one raises ValueError on every call.
    """
    _require_int("ls_explicit", n, k)
    if n < 0 or k < 0:
        raise ValueError("ls_explicit: indices must be nonnegative")
    if n > _EXPLICIT_CACHE_NMAX:
        return _explicit_value.__wrapped__(n, k)
    return _explicit_value(n, k)


def _explicit_rows(nmax: int):
    """Yield [ls_explicit(n, k) for k = 0..n] for n = 0..nmax.

    The sweep owns its weights and its powers: row n adds column n's
    weights, and its powers (r^2+r)^n are row n-1's times r^2+r, one
    multiplication per r.  Every entry is computed here: ls_explicit's
    per-(n, k) cache is neither read nor filled.
    """
    weights, powers = [], []
    for n in range(nmax + 1):
        weights.append(_explicit_weights(n))
        powers = [p * (r * r + r) for r, p in enumerate(powers)]
        powers.append((n * n + n) ** n)
        yield [_explicit(n, k, weights[k], powers) for k in range(n + 1)]


def ls_vertical(n: int, j: int) -> int:
    """ls(n,j) by the vertical recurrence.

    Sum over k = j..n of ls(k-1, j-1) (j(j+1))^(n-k); requires 1 <= j <= n.
    """
    _require_int("ls_vertical", n, j)
    if not 1 <= j <= n:
        raise ValueError("ls_vertical: need 1 <= j <= n")
    ratio = j * (j + 1)
    return sum(ls(k - 1, j - 1) * ratio ** (n - k) for k in range(j, n + 1))


def _difference(n: int, got: Poly, want: Poly) -> CheckResult:
    """Pass when got == want, else name n and show got - want."""
    if got == want:
        return CheckResult(True)
    return CheckResult(False, f"n={n}: difference {(got - want).render()}")


def _horizontal_ls_sweep(nmax: int):
    """Check x^n = sum_k ls(n,k) x(x-2)(x-6)...(x-(k-1)k) by exact expansion, for n = 0..nmax.

    Yields one CheckResult per n, building each basis once.
    """
    # bases[k] is x(x-2)(x-6)...(x-(k-1)k), one factor on bases[k-1]
    bases = [Poly((1,))]
    for n in range(nmax + 1):
        if n:
            bases.append(bases[-1] * Poly((-(n - 1) * n, 1)))
        rhs = Poly()
        for k in range(n + 1):
            rhs = rhs + bases[k] * ls(n, k)
        yield _difference(n, rhs, Poly((0,) * n + (1,)))


def _vertical_gf_sweep(kmax: int, nmax: int):
    """Check prod_{r=1..k} 1/(1 - r(r+1)x) = sum_m ls(m+k,k) x^m up to x^(nmax-k), for k = 1..kmax.

    Yields one CheckResult per k.  The product for k, a list of its first nmax - k + 1 coefficients, is
    the product for k-1 times the series (k(k+1))^j of 1/(1 - k(k+1)x),
    truncated by the one product loop.
    """
    prod = [1]
    for k in range(1, kmax + 1):
        ratio, size = k * (k + 1), nmax - k + 1
        prod = _convolve(prod, [ratio**j for j in range(size)], size)
        yield next(
            (
                CheckResult(False, f"k={k}: coefficient of x^{m} is {c}, triangle gives {ls(m + k, k)}")
                for m, c in enumerate(prod)
                if c != ls(m + k, k)
            ),
            CheckResult(True),
        )


def _horizontal_js_sweep(nmax: int):
    """Check x^n = sum_k js(n,k)(z) prod_{i<k} (x - i(z+i)) over Z[z], for n = 0..nmax.

    Yields one CheckResult per n, one basis factor per n.
    """
    bases = []
    for n, basis in enumerate(_falling_bases(nmax)):
        bases.append(basis)
        rhs = sum((b.scale(js(n, k)) for k, b in enumerate(bases)), Poly())
        yield _difference(n, rhs, Poly((0,) * n + (1,)))


def _jc_product_sweep(nmax: int):
    """Check prod_{i<n} (x + i(z+i)) = sum_k jc(n,k)(z) x^k over Z[z], for n = 0..nmax.

    Yields one CheckResult per n, one factor per n.
    """
    product = Poly((1,))
    for n in range(nmax + 1):
        if n:
            product = product * Poly((Poly(((n - 1) ** 2, n - 1)), 1))
        yield _difference(n, product, Poly(tuple(jc(n, k) for k in range(n + 1))))
