"""Re-check the certificates of `lstirling conjecture` without its code.

`lstirling check-certs FILE.jsonl` reads the JSON lines that `lstirling
conjecture` writes, line i holding the certificate for k = i, and rebuilds
each q_k = gamma_k / x^(k+2) here, in plain ints, from the differential
recurrence of gamma_k.  Nothing is imported from `realroots`, `gamma` or
`algebra`, so a defect in the code that made a certificate cannot also hide
in its check.

A certificate for k is valid when, for q_k and for q_{k+1} alike, it states
the degree d and that all roots are real and simple, and lists d increasing,
disjoint open intervals, each with a strict sign change of the polynomial;
and when merging the two lists re-derives the pattern
(s r)^(k-1) s s (r s)^(k-1) that it states (s for q_{k+1}, r for q_k).  d
disjoint sign-change intervals of a polynomial of degree d hold one simple
real root each, so such a certificate proves the merged order for k.
"""
from __future__ import annotations

import json
from fractions import Fraction


class MalformedCertificate(ValueError):
    """A line that is not JSON, or not a certificate of the form `conjecture` writes."""


class InvalidCertificate(ValueError):
    """A well-formed certificate that does not prove what it states."""


def q_polys(kmax: int) -> list:
    """[None, q_1, ..., q_kmax] as ascending int coefficient lists.

    gamma_0 = 1 and, with g = gamma_m,
    gamma_{m+1} = (m(m+1)/2 - mx + x^2) x g - (m + (m-2)x - 2x^2) x^2 g'
                  + (1+x)^2 x^3 g''/2,
    read term by term: g_i x^i contributes T(m-i) g_i to x^(i+1),
    -(i+1)(m-i) g_i to x^(i+2) and T(i+1) g_i to x^(i+3), T(t) = t(t+1)/2.
    """
    out, g = [None], [1]
    for m in range(kmax):
        new = [0] * (len(g) + 3)
        for i, c in enumerate(g):
            if c:
                new[i + 1] += (m - i) * (m - i + 1) // 2 * c
                new[i + 2] -= (i + 1) * (m - i) * c
                new[i + 3] += (i + 1) * (i + 2) // 2 * c
        while new[-1] == 0:
            new.pop()
        val = next(i for i, c in enumerate(new) if c)
        if val != m + 3:
            raise ArithmeticError(f"gamma_{m + 1} has x-valuation {val}, expected {m + 3}")
        g = new
        out.append(new[val:])
    return out


def sign_at(q: list, x: Fraction) -> int:
    """Sign of q at x = a/b, b > 0, as the sign of sum q_i a^i b^(d-i)."""
    a, b = x.numerator, x.denominator
    acc, bpow = q[-1], 1
    for c in reversed(q[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return (acc > 0) - (acc < 0)


def expected_pattern(k: int) -> str:
    return " ".join(["s", "r"] * (k - 1) + ["s", "s"] + ["r", "s"] * (k - 1))


# -- reading --------------------------------------------------------------------


def _get(doc: dict, key: str, kind, where: str):
    value = doc.get(key)
    # JSON true and false load as bools, which are ints to isinstance
    if type(value) is not kind:
        raise MalformedCertificate(f"{where}: {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _rational(v, where: str) -> Fraction:
    if not (type(v) is list and len(v) == 2 and all(type(x) is int for x in v) and v[1] > 0):
        raise MalformedCertificate(f"{where}: an endpoint must be [num, den] with ints and den > 0, got {v!r}")
    return Fraction(*v)


def _root_set(doc: dict, key: str, where: str) -> dict:
    cert = _get(doc, key, dict, where)
    where = f"{where} {key}"
    ivs = []
    for iv in _get(cert, "intervals", list, where):
        if type(iv) is not list or len(iv) != 2:
            raise MalformedCertificate(f"{where}: an interval must be a pair of endpoints, got {iv!r}")
        ivs.append((_rational(iv[0], where), _rational(iv[1], where)))
    square_free = _get(cert, "square_free", bool, where)
    all_real = _get(cert, "all_real", bool, where)
    return {
        "k": _get(cert, "k", int, where),
        "degree": _get(cert, "degree", int, where),
        "proved": square_free and all_real,
        "intervals": ivs,
    }


def _read(text: str, kmax_cap: int) -> list:
    docs = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as err:
            # deep nesting exhausts the parser's recursion; it is no certificate either
            raise MalformedCertificate(f"{where}: not JSON ({err})") from None
        if type(doc) is not dict:
            raise MalformedCertificate(f"{where}: expected a JSON object")
        k = _get(doc, "k", int, where)
        if not 1 <= k <= kmax_cap:
            raise MalformedCertificate(f"{where}: k={k} is outside 1..{kmax_cap}")
        docs.append(
            {
                "where": where,
                "k": k,
                "verdict": _get(doc, "verdict", str, where),
                "pattern": _get(doc, "pattern", str, where),
                "expected_pattern": _get(doc, "expected_pattern", str, where),
                "lower": _root_set(doc, "lower", where),
                "upper": _root_set(doc, "upper", where),
            }
        )
    if not docs:
        raise MalformedCertificate("holds no certificate")
    return docs


# -- checking -------------------------------------------------------------------


def _check_root_set(cert: dict, k: int, q: list, where: str) -> None:
    where = f"{where} q_{k}"
    degree = len(q) - 1
    if cert["k"] != k:
        raise InvalidCertificate(f"{where}: stated for q_{cert['k']}")
    if cert["degree"] != degree:
        raise InvalidCertificate(f"{where}: stated degree {cert['degree']}, q_{k} has degree {degree}")
    if not cert["proved"]:
        raise InvalidCertificate(f"{where}: not stated square-free with all roots real")
    ivs = cert["intervals"]
    if len(ivs) != degree:
        raise InvalidCertificate(f"{where}: {len(ivs)} intervals for degree {degree}")
    for i, (lo, hi) in enumerate(ivs):
        if not lo < hi:
            raise InvalidCertificate(f"{where}: interval {i} is empty")
        if i and ivs[i - 1][1] > lo:
            raise InvalidCertificate(f"{where}: intervals {i - 1} and {i} overlap")
        if sign_at(q, lo) * sign_at(q, hi) != -1:
            raise InvalidCertificate(f"{where}: interval {i} shows no strict sign change")


def check(text: str, kmax_cap: int) -> int:
    """Check every certificate in the JSON lines text; return how many there are.

    Raises MalformedCertificate for text that is not such JSON lines (or a k
    outside 1..kmax_cap), and InvalidCertificate at the first certificate
    that does not prove what it states.
    """
    docs = _read(text, kmax_cap)
    qs = q_polys(max(doc["k"] for doc in docs) + 1)
    for i, doc in enumerate(docs, start=1):
        k, where = doc["k"], doc["where"]
        if k != i:
            raise InvalidCertificate(f"{where}: certificate {i} is stated for k={k}")
        want = expected_pattern(k)
        verdict = "vacuous" if k == 1 else "true"
        if doc["verdict"] != verdict:
            raise InvalidCertificate(f"{where}: verdict {doc['verdict']!r}, a proof reads {verdict!r}")
        _check_root_set(doc["lower"], k, qs[k], where)
        _check_root_set(doc["upper"], k + 1, qs[k + 1], where)
        merged = sorted(
            [(lo, hi, "r") for lo, hi in doc["lower"]["intervals"]]
            + [(lo, hi, "s") for lo, hi in doc["upper"]["intervals"]]
        )
        if any(left[1] > right[0] for left, right in zip(merged, merged[1:])):
            raise InvalidCertificate(f"{where}: intervals of q_{k} and q_{k + 1} overlap, so their order is undecided")
        derived = " ".join(tag for _, _, tag in merged)
        if not derived == doc["pattern"] == doc["expected_pattern"] == want:
            raise InvalidCertificate(
                f"{where}: pattern {doc['pattern']!r}, expected {doc['expected_pattern']!r},"
                f" re-derived {derived!r}, conjectured {want!r}"
            )
    return len(docs)
