"""Exact arithmetic substrate: binomials and dense polynomials.

Everything in this module is exact.  Integers are Python ints, rationals are
`fractions.Fraction` (always reduced, positive denominator), and there is no
floating point anywhere.  `Poly` is a dense univariate polynomial whose
coefficients may be ints, Fractions, or again `Poly` values; the nested form
gives polynomials in x over Z[z], which is all the bivariate structure the
rest of the package needs.  A Poly is falsy exactly when it is zero, and
every general product, of polynomials or of truncated coefficient lists, runs
through the one product loop `_convolve`.  The one specialised product is
`_add_linear_multiple`, p + (a + bz) q in one pass, the cell step of the
Jacobi-Stirling triangles.  The public constructor rejects a coefficient
that is not an int, a Fraction or a Poly (a float above all), and a set or
dict of coefficients; results of Poly arithmetic, whose coefficients come
from Poly values and exact scalars, are wrapped unchecked by `_trusted`.
`fractions` is imported only where a Fraction is built, so integer-only work
such as a table never loads it.
"""
from __future__ import annotations

import sys
from itertools import accumulate, repeat, zip_longest
from math import comb
from operator import mul


def _binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) = n(n-1)...(n-k+1) / k! for any integer n.

    The upper argument may be negative, following
    C(-m, k) = (-1)^k C(m+k-1, k).  Unchecked: the callers pass int
    indices with k >= 0 by construction.

    >>> _binomial(5, 3)
    10
    >>> _binomial(-2, 3)
    -4
    >>> _binomial(2, 5)
    0
    """
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def _coeff_list(coeffs) -> list:
    """coeffs read once into a new list; ValueError when it is a str, a set,
    a dict or not iterable.

    An exact tuple is read as it is, and for anything else only iter() is
    guarded, so an error raised while an iterable is read reaches the caller
    unchanged.  A str is iterable, but its characters are not coefficients,
    and a set or a dict has no order to give the coefficients.
    """
    if coeffs.__class__ is not tuple:
        if isinstance(coeffs, str):
            raise ValueError(f"Poly: coefficients must not be a str, got {coeffs!r}")
        if isinstance(coeffs, (set, frozenset, dict)):
            raise ValueError(f"Poly: coefficients must be in order, not a {type(coeffs).__name__}: {coeffs!r}")
        try:
            coeffs = iter(coeffs)
        except TypeError:
            raise ValueError(f"Poly: coefficients must be iterable, got {coeffs!r}") from None
    return list(coeffs)


def _trim(cs: list) -> tuple:
    """Pop the trailing zeros off the list cs and return what is left as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _trusted(cs: list) -> "Poly":
    """A Poly over the list cs, trimmed, its coefficients taken unchecked.

    For results of Poly arithmetic only: their coefficients come from Poly
    values and exact scalars, so the public constructor's checks would
    read every coefficient again to no purpose.
    """
    p = object.__new__(Poly)
    p.coeffs = _trim(cs)
    return p


def _convolve(a, b, size: int) -> list:
    """The first size coefficients of the product of the sequences a and b.

    The package's general product loop, for Poly products and for truncated
    power series given as coefficient lists; `_add_linear_multiple` is the
    one specialised product, by a linear factor.  A zero coefficient of a is
    skipped, and each term is added as out[j] + x * y, so an int 0 slot
    takes a Poly term through Poly.__radd__.  For a Poly product both
    slices are whole, and a tuple returns a whole slice uncopied.  Slots
    past both operands stay 0.

    >>> _convolve([1, 1, 1], [1, 2, 4], 3)
    [1, 3, 7]
    """
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if not x:
            continue
        for j, y in enumerate(b[: size - i], i):
            out[j] = out[j] + x * y
    return out


def _add_linear_multiple(p: "Poly", q: "Poly", a, b) -> "Poly":
    """p + (a + bz) q for Polys p and q in z and scalars a and b, in one pass.

    Coefficient i is p[i] + a q[i] + b q[i-1], read off the three padded
    coefficient tuples by one comprehension; the result is trimmed, so a
    cancelled leading term goes.  It is the cell step of the js and jc
    triangles, and equals p + Poly((a, b)) * q.

    >>> _add_linear_multiple(Poly((1, 2)), Poly((3,)), 4, 5) == Poly((13, 17))
    True
    """
    qc = q.coeffs
    return _trusted([x + a * y + b * w for x, y, w in zip_longest(p.coeffs, qc, (0, *qc), fillvalue=0)])


def _scalar_types() -> tuple:
    """int and Fraction, the scalars Poly arithmetic accepts.

    A Fraction exists only once fractions is loaded, so until then the
    tuple is (int,), and this never loads it.
    """
    fractions = sys.modules.get("fractions")
    return (int,) if fractions is None else (int, fractions.Fraction)


def _is_scalar(c) -> bool:
    """Whether c is an int or a Fraction."""
    return isinstance(c, int) or isinstance(c, _scalar_types())


class Poly:
    """Dense polynomial, constant coefficient first, trailing zeros trimmed.

    The zero polynomial is the empty coefficient tuple, the one falsy Poly,
    and its degree is -1, one below a constant's.  Arithmetic
    works over the exact coefficients the constructor accepts: ints,
    Fractions, or Poly itself; every coefficient is zero exactly when it is
    falsy.  Any other coefficient, a float above all, raises ValueError:
    nothing here is approximate.

    >>> p = Poly([-1, 0, 1])
    >>> p.render()
    '-1+x^2'
    >>> p.eval(3)
    8
    >>> (Poly([0, 1]) * Poly([0, 1])).degree
    2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = _coeff_list(coeffs)
        exact = (Poly, *_scalar_types())
        if not all(map(isinstance, cs, repeat(exact))):
            bad = next(c for c in cs if not isinstance(c, exact))
            kind = "float" if isinstance(bad, float) else type(bad).__name__
            raise ValueError(f"Poly: coefficients must be exact, got the {kind} {bad!r}; use ints, Fractions or Polys")
        self.coeffs = _trim(cs)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly((other,))
        return _trusted([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return _trusted([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            return _trusted([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        # a zero factor leaves every slot 0, and the trim takes them all
        return _trusted(_convolve(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply every coefficient by c.

        This is scalar multiplication in the coefficient ring; use it when c
        lives one level down (e.g. a z-polynomial scaling a poly in x).
        """
        return Poly(co * c for co in self.coeffs)

    # -- euclidean division (field coefficients) ----------------------------

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        from fractions import Fraction

        lead_inv = Fraction(1, 1) / other.coeffs[-1]
        rem = list(self.coeffs)
        d = len(other.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - d + 1)
        while True:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < d:
                break
            t = rem[-1] * lead_inv
            shift = len(rem) - d
            quo[shift] = t
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - t * c
            rem.pop()
        return _trusted(quo), _trusted(rem)

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return _trusted([i * c for i, c in enumerate(self.coeffs) if i >= 1])

    def eval(self, point):
        """Evaluate by Horner's rule; exact for int/Fraction points."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = eval

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        # both sides are trimmed, so equal polynomials have equal tuples; a
        # nested coefficient compares with its constant through this method
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if not _is_scalar(other):
            return NotImplemented
        return self.coeffs == ((other,) if other else ())

    def render(self, var: str = "x", inner_var: str = "z") -> str:
        """Human-readable form, ascending powers: '1+8x+10x^2'."""
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if isinstance(c, Poly):
                cs = f"({c.render(inner_var)})"
            elif c == 1 and e > 0:
                cs = ""
            elif c == -1 and e > 0:
                cs = "-"
            else:
                cs = str(c)
            if e == 0:
                parts.append(str(c) if not isinstance(c, Poly) else cs)
            elif e == 1:
                parts.append(f"{cs}{var}")
            else:
                parts.append(f"{cs}{var}^{e}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self):
        return f"Poly('{self.render()}')"


def _falling_bases(kmax: int):
    """Yield the product of (x - i(z+i)) for i = 0..k-1, for k = 0..kmax,
    each one factor x - i(z+i) on the one before.

    The products are polys in x over Z[z]; k = 0 gives 1.  Specializing z
    to 1 yields the basis of the Legendre-Stirling horizontal identity,
    x(x-2)(x-6)...

    >>> list(_falling_bases(2))[-1] == Poly((Poly(()), Poly((-1, -1)), 1))
    True
    """
    return accumulate((Poly((Poly((-i * i, -i)), 1)) for i in range(kmax)), mul, initial=Poly((1,)))
