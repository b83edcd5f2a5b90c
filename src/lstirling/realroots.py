"""Exact real-root certificates for the gamma polynomials.

The polynomials q_k(x) = gamma_k(x) / x^(k+2) are conjectured to have only
real (necessarily negative) roots, with the roots of consecutive q_k, q_{k+1}
arranged in a fixed merged order.  This module proves such statements for
concrete k with Sturm chains over the integers: each chain element is the
primitive integer polynomial that is a positive multiple of the euclidean
Sturm element (a primitive pseudo-remainder sequence), so sign variations,
and with them root counts, are those of the classical chain.  The sign of an
integer polynomial of degree d at a rational point a/b (b > 0) is read as
the sign of sum c_i a^i b^(d-i), in ints only.  Isolating intervals have
rational endpoints and are refined by bisection, each step decided by the
sign of the polynomial alone, until the merged ordering is decided.
Floats never enter any verdict; they may appear only in diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .algebra import Poly
from .gamma import gamma_poly

REFINE_CAP = 256


def _primitive(cs) -> list:
    """The primitive integer coefficient list that is a positive multiple of cs."""
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _pseudo_remainder(a: list, b: list) -> list:
    """A positive multiple of a mod b, by integer pseudo-division; zeros trimmed."""
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        # r <- (|lead| r - sign(lead) r[-1] x^shift b) / g: a positive
        # multiple of r with the same remainder, leading term cancelled
        g = gcd(lead, r[-1])
        scale, t = abs(lead) // g, r[-1] // g
        if lead < 0:
            t = -t
        shift = len(r) - len(b)
        r = [c * scale for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= t * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def sturm_chain(p: Poly) -> list:
    """The Sturm sequence of p as primitive integer polynomials.

    Element i is the positive multiple with coprime integer coefficients of
    the euclidean element (p, p', then negated remainders), so every sign,
    variation count and root count is the classical one.  Ends at the last
    nonzero remainder; for square-free p that element is a nonzero constant.
    """
    if p.is_zero():
        raise ValueError("sturm_chain: zero polynomial")
    chain = [_primitive(p.coeffs)]
    d = [i * c for i, c in enumerate(p.coeffs) if i >= 1]
    if d:
        chain.append(_primitive(d))
        while True:
            r = _pseudo_remainder(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_primitive([-c for c in r]))
    return [Poly(cs) for cs in chain]


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


def _sign(x) -> int:
    return (x > 0) - (x < 0)

def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _var_at(chain, x) -> int:
    return _variations([_sign_at(p, x) for p in chain])


def _var_at_inf(chain, direction: int) -> int:
    # sign at +oo is the leading sign; at -oo it flips with odd degree
    signs = []
    for p in chain:
        if p.is_zero():
            signs.append(0)
            continue
        s = _sign(p.leading())
        if direction < 0 and (len(p.coeffs) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_roots(chain, a=None, b=None) -> int:
    """Distinct real roots of chain[0] in (a, b]; None means -oo / +oo.

    The chain is one built by sturm_chain.  The count is V(a) - V(b), with
    zero signs dropped, which is exact for (a, b] even when an endpoint is a
    root of chain[0]: there its zero drops out and the remaining signs vary
    as they do just right of the root.  An endpoint that is a repeated root
    makes every chain element vanish and raises ValueError.
    """
    # exact rationals from here on; a float endpoint is read at its exact value
    a = None if a is None else Fraction(a)
    b = None if b is None else Fraction(b)
    if a is not None and b is not None and not a < b:
        raise ValueError("count_roots: need a < b")
    for x in (a, b):
        if x is not None and _sign_at(chain[-1], x) == 0:
            raise ValueError(f"count_roots: endpoint {x} is a repeated root")
    va = _var_at_inf(chain, -1) if a is None else _var_at(chain, a)
    vb = _var_at_inf(chain, +1) if b is None else _var_at(chain, b)
    return va - vb


def _root_bound(p: Poly) -> Fraction:
    # Cauchy bound 1 + max|c_i| / |lc| of the integer polynomial p: every
    # root has absolute value strictly below it
    lead = abs(p.leading())
    rest = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return Fraction(lead + rest, lead)


def _shrink_around(chain, mid, lo, hi):
    # mid is an exact rational root inside (lo, hi); box it so the box holds
    # no other root and neither endpoint is a root
    p = chain[0]
    w = min(mid - lo, hi - mid) / 2
    while (
        _sign_at(p, mid - w) == 0
        or _sign_at(p, mid + w) == 0
        or count_roots(chain, mid - w, mid + w) != 1
    ):
        w /= 2
    return (mid - w, mid + w)


def isolate_roots(p: Poly):
    """Disjoint open rational intervals, one per real root, endpoints non-roots.

    Returns (chain, intervals) with intervals in increasing order; chain is
    the integer Sturm chain of p.  Requires square-free input; a repeated
    root raises ValueError since every downstream certificate needs simple
    roots.
    """
    if p.is_zero():
        raise ValueError("isolate_roots: zero polynomial")
    chain = sturm_chain(p)
    p = chain[0]
    # the chain's last element is gcd(p, p') up to a constant factor
    if chain[-1].degree > 0:
        raise ValueError(f"isolate_roots: input is not square-free (gcd degree {chain[-1].degree})")
    if p.degree == 0:
        return chain, []
    bound = _root_bound(p)
    total = count_roots(chain, -bound, bound)
    intervals = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _sign_at(p, mid) == 0:
            ml, mh = _shrink_around(chain, mid, lo, hi)
            stack.append((lo, ml, count_roots(chain, lo, ml)))
            intervals.append((ml, mh))
            stack.append((mh, hi, count_roots(chain, mh, hi)))
            continue
        left = count_roots(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, cnt - left))
    intervals.sort()
    return chain, intervals


def refine_interval(p: Poly, interval):
    """One bisection step on an isolating interval of p; endpoints stay non-roots.

    The interval holds one simple root of the square-free p and neither
    endpoint is a root, so p changes sign across it: the sign of p at the
    midpoint alone picks the half that keeps the root.  A midpoint that is
    the root is boxed at half the distance to the nearer endpoint.
    """
    lo, hi = interval
    mid = (lo + hi) / 2
    s = _sign_at(p, mid)
    if s == 0:
        w = min(mid - lo, hi - mid) / 2
        return (mid - w, mid + w)
    if s != _sign_at(p, lo):
        return (lo, mid)
    return (mid, hi)


def q_poly(k: int) -> Poly:
    """gamma_k(x) / x^(k+2), after checking x = 0 has multiplicity exactly k+2."""
    if k < 1:
        raise ValueError("q_poly: k must be at least 1")
    g = gamma_poly(k)
    val = next(i for i, c in enumerate(g.coeffs) if c != 0)
    if val != k + 2:
        raise ArithmeticError(f"q_poly: x=0 multiplicity is {val} for k={k}, expected {k + 2}")
    return Poly(g.coeffs[val:])


@dataclass
class RootCertificate:
    """Isolating intervals for the real roots of one q_k."""

    k: int
    degree: int
    square_free: bool
    intervals: list  # open (Fraction, Fraction) pairs, increasing

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


@dataclass
class ConjectureResult:
    """Verdict for one k: certificates for q_k and q_{k+1} plus the merged order.

    The expected ascending pattern tags each root by source, s for q_{k+1}
    and r for q_k: (s r)^(k-1) s s (r s)^(k-1).  Verdicts: "true" when the
    pattern is realized, "vacuous" for the degenerate k = 1 case, "false" on
    a realized violation, "inconclusive" when the refinement budget ran out.
    """

    k: int
    lower: RootCertificate
    upper: RootCertificate
    pattern: str
    expected_pattern: str
    verdict: str
    note: str | None = None

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
    """Ascending source tags of the conjectured merged root order."""
    return ["s", "r"] * (k - 1) + ["s", "s"] + ["r", "s"] * (k - 1)


@lru_cache(maxsize=2)
def _isolation(k: int):
    # one isolation per q_k: verify_conjecture(k) and verify_conjecture(k+1)
    # share q_{k+1}; the cached tuples are only read, never changed
    p = q_poly(k)
    try:
        chain, intervals = isolate_roots(p)
    except ValueError as err:
        return int(p.degree), p, (), str(err)
    return int(p.degree), chain[0], tuple(intervals), None


def _merge(p_r, ivs_r, p_s, ivs_s):
    """Refine two sorted lists of isolating intervals into one ascending order.

    Each list is sorted and disjoint, so the first overlap in the merged
    order is between the two heads: a head wholly left of the other is
    final, and overlapping heads are both bisected.  Returns the refined
    lists and the source tags in ascending order, or None once a root would
    need more than REFINE_CAP bisections.
    """
    ivs_r, ivs_s, tags = list(ivs_r), list(ivs_s), []
    i = j = used_r = used_s = 0
    while i < len(ivs_r) and j < len(ivs_s):
        if ivs_r[i][1] <= ivs_s[j][0]:
            tags.append("r")
            i, used_r = i + 1, 0
        elif ivs_s[j][1] <= ivs_r[i][0]:
            tags.append("s")
            j, used_s = j + 1, 0
        elif used_r >= REFINE_CAP or used_s >= REFINE_CAP:
            return None
        else:
            ivs_r[i] = refine_interval(p_r, ivs_r[i])
            ivs_s[j] = refine_interval(p_s, ivs_s[j])
            used_r += 1
            used_s += 1
    tags += ["r"] * (len(ivs_r) - i) + ["s"] * (len(ivs_s) - j)
    return ivs_r, ivs_s, tags


def verify_conjecture(k: int) -> ConjectureResult:
    """Decide the merged-order statement for the root sets of q_k and q_{k+1}.

    Both polynomials must be square-free with all roots real; isolating
    intervals are then refined (at most REFINE_CAP bisections per root) until
    the merged list is totally ordered, and the ascending source pattern is
    compared against the conjectured one.  The certificates carry the refined
    intervals once the order is decided, and the isolating ones otherwise.
    """
    if k < 1:
        raise ValueError("verify_conjecture: k must be at least 1")
    deg_r, p_r, ivs_r, err_r = _isolation(k)
    deg_s, p_s, ivs_s, err_s = _isolation(k + 1)
    expected = expected_pattern(k)

    def result(pattern, verdict, note=None):
        # ivs_r and ivs_s as they stand at this call: isolating intervals
        # before the merge, refined ones after it
        cert_r = RootCertificate(k, deg_r, err_r is None, list(ivs_r))
        cert_s = RootCertificate(k + 1, deg_s, err_s is None, list(ivs_s))
        return ConjectureResult(k, cert_r, cert_s, pattern, " ".join(expected), verdict, note)

    if err_r or err_s:
        return result("", "false", err_r or err_s)
    for q, deg, ivs in ((k, deg_r, ivs_r), (k + 1, deg_s, ivs_s)):
        if len(ivs) != deg:
            return result("", "false", f"q_{q} has {len(ivs)} real roots, degree {deg}")
    merged = _merge(p_r, ivs_r, p_s, ivs_s)
    if merged is None:
        return result(
            "", "inconclusive", f"refinement budget exhausted separating roots of q_{k} and q_{k + 1}"
        )
    ivs_r, ivs_s, tags = merged
    pattern = " ".join(tags)
    if tags != expected:
        return result(pattern, "false", "merged order differs from the conjectured pattern")
    return result(pattern, "vacuous" if k == 1 else "true")
