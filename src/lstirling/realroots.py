"""Exact real-root certificates for the gamma polynomials, by interlacing induction.

The polynomials q_k(x) = gamma_k(x) / x^(k+2) are conjectured to have only
real roots, with the roots of q_k (tagged r) and q_{k+1} (tagged s) merged in
the ascending order (s r)^(k-1) s s (r s)^(k-1).  This module proves that
for k = 1, 2, ... in turn, reading nothing but the signs of q_{k+1} at
rational points.

The certificate of q_k is a list of 2k-2 disjoint open intervals
I_1 < ... < I_{2k-2} in (-1, 0), each with a strict sign change of q_k.
They leave 2k-1 gaps: (-1, I_1), the gaps between neighbours, and
(I_{2k-2}, 0).  Step k asks q_{k+1} for a strict sign change across every
gap but the middle one (index k-1), and for the middle gap to keep its sign
at both ends and flip it at its midpoint or a quarter point m, which splits
it into two sign-change intervals.  That gives 2k disjoint open intervals,
each with a strict sign change of q_{k+1}, a polynomial of degree 2k, so
every root of q_{k+1} is real and simple, one in each interval, and the
merged order is the conjectured pattern by construction.  The 2k intervals
are the certificate of q_{k+1} for step k+1.  q_1 = 1 has no roots, so step
1 splits (-1, 0) alone.

A gap that fails bisects its neighbouring intervals of q_k (the sign of q_k
at the midpoint alone picks the half that keeps the root), at most
REFINE_CAP times per interval, and the gaps are retried from the first one
whose endpoint moved.  A step that runs out of that budget proves nothing and
is reported as inconclusive.  The sign of an integer polynomial of degree d
at a/b (b > 0) is the sign of sum c_i a^i b^(d-i), read in ints only, so no
float reaches a verdict.
"""
from __future__ import annotations

from fractions import Fraction

from . import _Record, _require_int
from .algebra import Poly
from .gamma import gamma_poly

REFINE_CAP = 256
_MINUS_ONE, _ZERO = Fraction(-1), Fraction(0)
_ENDPOINT_TYPES = (int, Fraction)


def _sign_at(p: Poly, x) -> int:
    """Sign of the integer polynomial p at the rational x, in ints only.

    With x = a/b and b > 0, p(x) b^d = sum c_i a^i b^(d-i) has the sign of
    p(x); it is accumulated by Horner's rule in a with powers of b.
    """
    cs = p.coeffs
    if not cs:
        return 0
    a, b = x.numerator, x.denominator
    acc = cs[-1]
    bpow = 1
    for c in reversed(cs[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return (acc > 0) - (acc < 0)


def refine_interval(p: Poly, interval):
    """One bisection step on an isolating interval of p; endpoints stay non-roots.

    The interval holds one simple root of the square-free p and neither
    endpoint is a root, so p changes sign across it: the sign of p at the
    midpoint alone picks the half that keeps the root.  A midpoint that is
    the root is boxed at half the distance to the nearer endpoint.  An
    interval that is not a tuple of two ints or Fractions (a bool is
    neither), or a p that is not a Poly, raises ValueError.
    """
    if not isinstance(p, Poly):
        raise ValueError(f"refine_interval: p must be a Poly, got {p!r}")
    lo, hi = interval if isinstance(interval, tuple) and len(interval) == 2 else (None, None)
    if type(lo) not in _ENDPOINT_TYPES or type(hi) not in _ENDPOINT_TYPES:
        raise ValueError(f"refine_interval: expected a pair of int or Fraction endpoints, got {interval!r}")
    # exact for int endpoints too, so no float is ever formed
    mid = Fraction(lo + hi, 2)
    s = _sign_at(p, mid)
    if s == 0:
        w = min(mid - lo, hi - mid) / 2
        return (mid - w, mid + w)
    if s != _sign_at(p, lo):
        return (lo, mid)
    return (mid, hi)


def q_poly(k: int) -> Poly:
    """gamma_k(x) / x^(k+2), after checking x = 0 has multiplicity exactly k+2."""
    _require_int("q_poly", k)
    if k < 1:
        raise ValueError("q_poly: k must be at least 1")
    g = gamma_poly(k)
    val = next(i for i, c in enumerate(g.coeffs) if c != 0)
    if val != k + 2:
        raise ArithmeticError(f"q_poly: x=0 multiplicity is {val} for k={k}, expected {k + 2}")
    return Poly(g.coeffs[val:])


class RootCertificate(_Record):
    """Disjoint open rational intervals, each with a strict sign change of q_k.

    square_free is True when the intervals prove every root of q_k real and
    simple, one per interval; an uncertified q_k has square_free False and no
    intervals.
    """

    __slots__ = ("k", "degree", "square_free", "intervals")

    def __init__(self, k: int, degree: int, square_free: bool, intervals: list):
        self.k = k
        self.degree = degree
        self.square_free = square_free
        self.intervals = intervals  # open (Fraction, Fraction) pairs, increasing

    @property
    def all_real(self) -> bool:
        return self.square_free and len(self.intervals) == self.degree

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "degree": self.degree,
            "square_free": self.square_free,
            "all_real": self.all_real,
            "intervals": [
                [[lo.numerator, lo.denominator], [hi.numerator, hi.denominator]]
                for lo, hi in self.intervals
            ],
        }


class ConjectureResult(_Record):
    """Verdict for one k: certificates for q_k and q_{k+1} plus the merged order.

    The expected ascending pattern tags each root by source, s for q_{k+1}
    and r for q_k: (s r)^(k-1) s s (r s)^(k-1).  The induction gives "true"
    when it proves the pattern, "vacuous" for the degenerate k = 1 case and
    "inconclusive" when the refinement budget ran out; "false", a realized
    violation, is left to a route that can refute, such as a Sturm count.
    """

    __slots__ = ("k", "lower", "upper", "pattern", "expected_pattern", "verdict", "note")

    def __init__(
        self,
        k: int,
        lower: RootCertificate,
        upper: RootCertificate,
        pattern: str,
        expected_pattern: str,
        verdict: str,
        note: str | None = None,
    ):
        self.k = k
        self.lower = lower
        self.upper = upper
        self.pattern = pattern
        self.expected_pattern = expected_pattern
        self.verdict = verdict
        self.note = note

    @property
    def ok(self) -> bool:
        return self.verdict in ("true", "vacuous")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "verdict": self.verdict,
            "pattern": self.pattern,
            "expected_pattern": self.expected_pattern,
            "note": self.note,
            "lower": self.lower.to_json_dict(),
            "upper": self.upper.to_json_dict(),
        }


def expected_pattern(k: int) -> list:
    """Ascending source tags of the conjectured merged root order, for k >= 1."""
    _require_int("expected_pattern", k)
    if k < 1:
        raise ValueError("expected_pattern: k must be at least 1")
    return ["s", "r"] * (k - 1) + ["s", "s"] + ["r", "s"] * (k - 1)


def _split(p: Poly, lo, hi):
    """A point of (lo, hi) where p has the sign opposite to its equal signs at lo and hi.

    Only the midpoint and the two quarter points are tried: a deeper search
    costs far more sign evaluations than refining the neighbours and retrying.
    """
    s = _sign_at(p, lo)
    if s == 0 or _sign_at(p, hi) != s:
        return None
    w = hi - lo
    for m in (lo + w / 2, lo + w / 4, hi - w / 4):
        if _sign_at(p, m) == -s:
            return m
    return None


def _step(k: int, p_r: Poly, ivs: list, p_s: Poly):
    """Certify q_{k+1} = p_s from the intervals ivs of q_k = p_r.

    Bisects the entries of ivs in place where a gap fails, and returns the
    2k intervals of q_{k+1}, or None once a failing gap has no neighbour to
    bisect (only q_1 has none) or one that would need more than REFINE_CAP
    bisections.
    """
    n = len(ivs)
    used = [0] * n
    middle = k - 1
    g = 0
    while g <= n:
        # gap g lies between ivs[g-1] and ivs[g]; -1 and 0 bound the outer two
        lo = ivs[g - 1][1] if g else _MINUS_ONE
        hi = ivs[g][0] if g < n else _ZERO
        if g == middle:
            split = _split(p_s, lo, hi)
            ok = split is not None
        else:
            s = _sign_at(p_s, lo)
            ok = s != 0 and _sign_at(p_s, hi) == -s
        if ok:
            g += 1
            continue
        neighbours = [j for j in (g - 1, g) if 0 <= j < n]
        if len(neighbours) == 2:
            # the wider neighbour is the likelier to hide the missing root;
            # bisecting only it cut the sign evaluations by a tenth
            wl, wr = (ivs[j][1] - ivs[j][0] for j in neighbours)
            if wl != wr:
                neighbours = neighbours[:1] if wl > wr else neighbours[1:]
        if not neighbours or any(used[j] >= REFINE_CAP for j in neighbours):
            return None
        restart = g
        for j in neighbours:
            old_lo = ivs[j][0]
            ivs[j] = refine_interval(p_r, ivs[j])
            used[j] += 1
            if j < g and ivs[j][0] != old_lo:
                restart = g - 1  # gap g-1 ends at the left endpoint just moved
        g = restart
    ends = [_MINUS_ONE] + [e for iv in ivs for e in iv] + [_ZERO]
    out = list(zip(ends[::2], ends[1::2]))
    lo, hi = out[middle]
    out[middle : middle + 1] = [(lo, split), (split, hi)]
    return out


def _induction(kmax: int):
    p_r, cert_r = q_poly(1), RootCertificate(1, 0, True, [])
    for k in range(1, kmax + 1):
        p_s = q_poly(k + 1)
        expected = " ".join(expected_pattern(k))
        # the step refines its own copy, so the certificate yielded before
        # keeps the intervals it was yielded with
        ivs = list(cert_r.intervals)
        ivs_s = _step(k, p_r, ivs, p_s) if cert_r.square_free else None
        lower = RootCertificate(k, cert_r.degree, cert_r.square_free, ivs)
        if ivs_s is None:
            upper = RootCertificate(k + 1, p_s.degree, False, [])
            if cert_r.square_free:
                note = f"refinement budget exhausted separating roots of q_{k} and q_{k + 1}"
            else:
                note = f"q_{k} was not certified"
            yield ConjectureResult(k, lower, upper, "", expected, "inconclusive", note)
        else:
            upper = RootCertificate(k + 1, p_s.degree, True, ivs_s)
            yield ConjectureResult(k, lower, upper, expected, expected, "vacuous" if k == 1 else "true")
        p_r, cert_r = p_s, upper


def conjecture_results(kmax: int):
    """The ConjectureResult for each k = 1 .. kmax, in order, as an iterator.

    Step k certifies q_{k+1} from the certificate of q_k, so each step runs
    once, and the result for one k is the last that conjecture_results(k)
    yields; after an inconclusive step every later k is inconclusive too.
    """
    _require_int("conjecture_results", kmax)
    if kmax < 1:
        raise ValueError("conjecture_results: kmax must be at least 1")
    return _induction(kmax)
