"""Exact real-root certificates for the gamma polynomials.

The polynomials q_k(x) = gamma_k(x) / x^(k+2) are conjectured to have only
real (necessarily negative) roots, with the roots of consecutive q_k, q_{k+1}
arranged in a fixed merged order.  This module proves such statements for
concrete k with Sturm chains: all arithmetic is over Fractions, root counts
come from sign-variation differences, and isolating intervals are refined by
bisection until the merged ordering is decided.  Floats never enter any
verdict; they may appear only in diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly
from .gamma import gamma_poly

REFINE_CAP = 256


def sturm_chain(p: Poly) -> list:
    """The Sturm sequence p, p', then negated euclidean remainders.

    Ends at the last nonzero remainder; for square-free p that element is a
    nonzero constant.
    """
    if p.is_zero():
        raise ValueError("sturm_chain: zero polynomial")
    p = p.to_fractions()
    chain = [p]
    d = p.derivative()
    if not d.is_zero():
        chain.append(d)
        while True:
            r = chain[-2] % chain[-1]
            if r.is_zero():
                break
            chain.append(-r)
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)

def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _var_at(chain, x) -> int:
    return _variations([_sign(p.eval(x)) for p in chain])


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
    q = p
    while not q.is_zero() and q.eval(r) == 0:
        q = q // Poly((Fraction(-r), Fraction(1)))
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
        if (limit is None or c < limit) and q.eval(c) != 0 and _var_at(ch, r) - _var_at(ch, c) == 0:
            return c
        w /= 2


def count_roots(chain, a=None, b=None) -> int:
    """Distinct real roots of chain[0] in (a, b]; None means -oo / +oo.

    A rational endpoint that is itself a root is nudged just past itself, so
    (a, b] keeps its meaning: the left endpoint stays excluded, a root at the
    right endpoint stays included.
    """
    p = chain[0]
    if a is not None and b is not None and not a < b:
        raise ValueError("count_roots: need a < b")
    if a is not None and p.eval(a) == 0:
        a = _nudge_right(p, Fraction(a), limit=b)
    if b is not None and p.eval(b) == 0:
        b = _nudge_right(p, Fraction(b))
    va = _var_at_inf(chain, -1) if a is None else _var_at(chain, a)
    vb = _var_at_inf(chain, +1) if b is None else _var_at(chain, b)
    return va - vb


def _root_bound(p: Poly) -> Fraction:
    # Cauchy bound: every root has absolute value strictly below it
    lead = abs(Fraction(p.leading()))
    rest = max((abs(Fraction(c)) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + rest / lead


def _shrink_around(chain, mid, lo, hi):
    # mid is an exact rational root inside (lo, hi); box it so the box holds
    # no other root and neither endpoint is a root
    p = chain[0]
    w = min(mid - lo, hi - mid) / 2
    while (
        p.eval(mid - w) == 0
        or p.eval(mid + w) == 0
        or count_roots(chain, mid - w, mid + w) != 1
    ):
        w /= 2
    return (mid - w, mid + w)


def isolate_roots(p: Poly):
    """Disjoint open rational intervals, one per real root, endpoints non-roots.

    Returns (chain, intervals) with intervals in increasing order.  Requires
    square-free input; a repeated root raises ValueError since every
    downstream certificate needs simple roots.
    """
    p = p.to_fractions()
    if p.is_zero():
        raise ValueError("isolate_roots: zero polynomial")
    chain = sturm_chain(p)
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
        if p.eval(mid) == 0:
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
    if p.eval(mid) == 0:
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


def _certificate(k: int):
    p = q_poly(k)
    try:
        chain, intervals = isolate_roots(p)
    except ValueError as err:
        return None, RootCertificate(k, int(p.degree), False, []), str(err)
    cert = RootCertificate(k, int(p.degree), True, intervals)
    return chain, cert, None


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
