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
rational endpoints and are refined by bisection until the merged ordering
is decided.  Floats never enter any verdict; they may appear only in
diagnostics.
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


def _deflate(p: Poly, r: Fraction) -> Poly:
    # divide out (b x - a) for r = a/b as often as it divides; by Gauss's
    # lemma each quotient of an integer polynomial stays integral
    a, b = r.numerator, r.denominator
    q = p
    while not q.is_zero() and _sign_at(q, r) == 0:
        out, carry = [], 0
        for c in reversed(q.coeffs[1:]):
            carry = (c + carry * a) // b
            out.append(carry)
        q = Poly(reversed(out))
    return q


def _nudge_right(p: Poly, r: Fraction, limit=None) -> Fraction:
    """Smallest tested point just right of the root r crossing no other root.

    Deflates the root at r, then shrinks a power-of-two step until the
    deflated polynomial provably has no root in (r, r+w].  Used to honor
    half-open interval semantics when a count endpoint happens to be a root.
    """
    q = _deflate(p, r)
    ch = sturm_chain(q)
    w = Fraction(1)
    while True:
        c = r + w
        if (limit is None or c < limit) and _sign_at(q, c) != 0 and _var_at(ch, r) - _var_at(ch, c) == 0:
            return c
        w /= 2


def count_roots(chain, a=None, b=None) -> int:
    """Distinct real roots of chain[0] in (a, b]; None means -oo / +oo.

    The chain is one built by sturm_chain.  A rational endpoint that is
    itself a root is nudged just past itself, so (a, b] keeps its meaning:
    the left endpoint stays excluded, a root at the right endpoint stays
    included.
    """
    p = chain[0]
    # exact rationals from here on; a float endpoint is read at its exact value
    a = None if a is None else Fraction(a)
    b = None if b is None else Fraction(b)
    if a is not None and b is not None and not a < b:
        raise ValueError("count_roots: need a < b")
    if a is not None and _sign_at(p, a) == 0:
        a = _nudge_right(p, a, limit=b)
    if b is not None and _sign_at(p, b) == 0:
        b = _nudge_right(p, b)
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


def refine_interval(chain, interval):
    """One bisection step on an isolating interval; endpoints stay non-roots."""
    lo, hi = interval
    p = chain[0]
    mid = (lo + hi) / 2
    if _sign_at(p, mid) == 0:
        return _shrink_around(chain, mid, lo, hi)
    if count_roots(chain, lo, mid) == 1:
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
    # share q_{k+1}; verify_conjecture reassigns a certificate's intervals,
    # so _certificate builds a fresh one from these tuples on every call
    p = q_poly(k)
    try:
        chain, intervals = isolate_roots(p)
    except ValueError as err:
        return int(p.degree), (), (), str(err)
    return int(p.degree), tuple(chain), tuple(intervals), None


def _certificate(k: int):
    degree, chain, intervals, err = _isolation(k)
    return chain, RootCertificate(k, degree, err is None, list(intervals)), err


def verify_conjecture(k: int) -> ConjectureResult:
    """Decide the merged-order statement for the root sets of q_k and q_{k+1}.

    Both polynomials must be square-free with all roots real; isolating
    intervals are then refined (at most REFINE_CAP bisections per root) until
    the merged list is totally ordered, and the ascending source pattern is
    compared against the conjectured one.
    """
    if k < 1:
        raise ValueError("verify_conjecture: k must be at least 1")
    chain_r, cert_r, err_r = _certificate(k)
    chain_s, cert_s, err_s = _certificate(k + 1)
    expected = expected_pattern(k)
    expected_str = " ".join(expected)

    def result(pattern, verdict, note=None):
        return ConjectureResult(k, cert_r, cert_s, pattern, expected_str, verdict, note)

    if err_r or err_s:
        return result("", "false", err_r or err_s)
    if not cert_r.all_real or not cert_s.all_real:
        bad = cert_r if not cert_r.all_real else cert_s
        return result(
            "", "false", f"q_{bad.k} has {len(bad.intervals)} real roots, degree {bad.degree}"
        )

    entries = [["r", iv, chain_r, 0] for iv in cert_r.intervals]
    entries += [["s", iv, chain_s, 0] for iv in cert_s.intervals]
    while True:
        entries.sort(key=lambda e: e[1])
        clash = None
        for left, right in zip(entries, entries[1:]):
            if not left[1][1] <= right[1][0]:
                clash = (left, right)
                break
        if clash is None:
            break
        for entry in clash:
            if entry[3] >= REFINE_CAP:
                return result(
                    "",
                    "inconclusive",
                    f"refinement budget exhausted separating roots of q_{k} and q_{k + 1}",
                )
            entry[1] = refine_interval(entry[2], entry[1])
            entry[3] += 1

    cert_r.intervals = [e[1] for e in entries if e[0] == "r"]
    cert_s.intervals = [e[1] for e in entries if e[0] == "s"]
    tags = [e[0] for e in entries]
    pattern = " ".join(tags)
    if tags != expected:
        return result(pattern, "false", "merged order differs from the conjectured pattern")
    return result(pattern, "vacuous" if k == 1 else "true")
