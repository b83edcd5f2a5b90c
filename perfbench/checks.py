"""Output checks of the benchmark, written apart from the code they check.

Everything here uses plain Python integers and lists; nothing is imported
from lstirling, so a defect in the package cannot also hide in its check.
Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import functools
import hashlib
import json
import re

# -- reference recurrences -------------------------------------------------


def triangle_rows(nmax: int, factor) -> list:
    """Rows 0..nmax of T(n,k) = T(n-1,k-1) + factor(n,k) T(n-1,k), integers."""
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        rows.append([(prev[k - 1] if k else 0) + (factor(n, k) * prev[k] if k < n else 0) for k in range(n + 1)])
    return rows


def _padd(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def z_triangle_rows(nmax: int, factor) -> list:
    """Rows of the same recurrence over Z[z]; cells are ascending coefficient lists."""
    rows = [[[1]]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        rows.append(
            [_padd(prev[k - 1] if k else [], _pmul(factor(n, k), prev[k]) if k < n else []) for k in range(n + 1)]
        )
    return rows


def ls_rows(nmax: int) -> list:
    return triangle_rows(nmax, lambda n, k: k * (k + 1))


def lc_rows(nmax: int) -> list:
    return triangle_rows(nmax, lambda n, k: n * (n - 1))


def js_rows(nmax: int) -> list:
    return z_triangle_rows(nmax, lambda n, k: [k * k, k])


def jc_rows(nmax: int) -> list:
    return z_triangle_rows(nmax, lambda n, k: [(n - 1) ** 2, n - 1])


def gamma_by_ode(kmax: int) -> list:
    """gamma_0 .. gamma_kmax as ascending integer coefficient lists.

    Iterates gamma_{m+1} = (m(m+1)/2 - mx + x^2) x g - (m + (m-2)x - 2x^2) x^2 g'
    + (1+x)^2 x^3 g''/2 from gamma_0 = 1.
    """
    out = [[1]]
    for m in range(kmax):
        g = out[-1]
        d1 = [i * c for i, c in enumerate(g)][1:]
        half_d2 = [i * (i - 1) // 2 * c for i, c in enumerate(g)][2:]
        t1 = _pmul([0, m * (m + 1) // 2, -m, 1], g)
        t2 = _pmul([0, 0, -m, -(m - 2), 2], d1)
        t3 = _pmul([0, 0, 0, 1, 2, 1], half_d2)
        out.append(_padd(_padd(t1, t2), t3))
    return out


def q_by_ode(kmax: int) -> list:
    """q_k = gamma_k / x^(k+2) for k = 1..kmax (index 0 unused), with the valuation checked."""
    out = [None]
    for k, g in enumerate(gamma_by_ode(kmax)[1:], start=1):
        val = next(i for i, c in enumerate(g) if c)
        if val != k + 2:
            raise ArithmeticError(f"gamma_{k} has x-valuation {val}, expected {k + 2}")
        out.append(g[val:])
    return out


# -- certify: independent certificate re-check ---------------------------


def sign_at(coeffs: list, num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), as sign(sum c_i num^i den^(d-i))."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    dpow = 1
    for i in range(d - 1, -1, -1):
        dpow *= den
        acc = acc * num + coeffs[i] * dpow
    return (acc > 0) - (acc < 0)


def _less(a, b) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def _less_eq(a, b) -> bool:
    return a[0] * b[1] <= b[0] * a[1]


def expected_pattern(k: int) -> str:
    return " ".join(["s", "r"] * (k - 1) + ["s", "s"] + ["r", "s"] * (k - 1))


def _check_root_set(cert: dict, q: list, where: str) -> list:
    problems = []
    degree = len(q) - 1
    if cert.get("degree") != degree:
        problems.append(f"{where}: degree {cert.get('degree')}, q has degree {degree}")
    if cert.get("square_free") is not True or cert.get("all_real") is not True:
        problems.append(f"{where}: not reported square-free with all roots real")
    ivs = cert.get("intervals") or []
    if len(ivs) != degree:
        problems.append(f"{where}: {len(ivs)} intervals for degree {degree}")
    for i, iv in enumerate(ivs):
        (ln, ld), (hn, hd) = iv
        if ld <= 0 or hd <= 0 or not _less((ln, ld), (hn, hd)):
            problems.append(f"{where}: interval {i} is not a proper rational interval")
            continue
        if sign_at(q, ln, ld) * sign_at(q, hn, hd) != -1:
            problems.append(f"{where}: interval {i} has no strict sign change")
        if i and not _less_eq(tuple(ivs[i - 1][1]), (ln, ld)):
            problems.append(f"{where}: intervals {i - 1} and {i} overlap")
    # d disjoint intervals, each with a strict sign change, hold d roots of a
    # degree-d polynomial: exactly one each, and every root is real
    return problems


def check_certificates(stdout: str, kmax: int, qs: list) -> list:
    """Re-check `conjecture --kmax kmax` JSON lines against q_k built here."""
    problems = []
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != kmax:
        return [f"{len(lines)} certificate lines for kmax={kmax}"]
    for k, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
            lower, upper = doc["lower"], doc["upper"]
            want = expected_pattern(k)
            if doc["k"] != k or lower["k"] != k or upper["k"] != k + 1:
                problems.append(f"k={k}: certificate indices out of order")
                continue
            if doc["verdict"] != ("vacuous" if k == 1 else "true"):
                problems.append(f"k={k}: verdict {doc['verdict']!r}")
            problems += _check_root_set(lower, qs[k], f"k={k} q_{k}")
            problems += _check_root_set(upper, qs[k + 1], f"k={k} q_{k + 1}")
            merged = sorted(
                [(tuple(lo), tuple(hi), "r") for lo, hi in lower["intervals"]]
                + [(tuple(lo), tuple(hi), "s") for lo, hi in upper["intervals"]],
                key=functools.cmp_to_key(lambda a, b: a[0][0] * b[0][1] - b[0][0] * a[0][1]),
            )
            for left, right in zip(merged, merged[1:]):
                if not _less_eq(left[1], right[0]):
                    problems.append(f"k={k}: merged intervals overlap, order undecided")
                    break
            derived = " ".join(e[2] for e in merged)
            if derived != want or doc["pattern"] != want or doc["expected_pattern"] != want:
                problems.append(f"k={k}: pattern {doc['pattern']!r}, re-derived {derived!r}, expected {want!r}")
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"k={k}: malformed certificate ({err!r})")
    return problems


# -- tables: output digests -------------------------------------------------

_TIMING = re.compile(r"^((?:ok  |FAIL) .*?) \d+\.\d+s((?: counterexample: .*)?)$", re.M)


def normalize(stdout: bytes) -> bytes:
    """Blank the elapsed-time field of verify report lines; other bytes stay."""
    return _TIMING.sub(r"\1 <t>s\2", stdout.decode(errors="replace")).encode()


def digest(stdout: bytes) -> str:
    return hashlib.sha256(normalize(stdout)).hexdigest()


def check_digest(stdout: bytes, rc: int, expected: dict) -> list:
    problems = []
    if rc != expected["rc"]:
        problems.append(f"exit code {rc}, expected {expected['rc']}")
    got = digest(stdout)
    if got != expected["sha256"]:
        problems.append(f"stdout sha256 {got[:16]}.., expected {expected['sha256'][:16]}..")
    return problems


# -- enumerate: verdict lines and object counts --------------------------

_ROUND_TRIP = re.compile(r"^\s+bijection n=(\d+): (\d+) partitions round-tripped$", re.M)
_REPORT = re.compile(r"^(ok  |FAIL) (\S+)", re.M)


def check_sweep(stdout: bytes, rc: int, suite: str, nmax: int, ls: list) -> list:
    """Exit code 0, every report line ok, and the round-trip counts equal sum_k ls(n,k)."""
    text = stdout.decode(errors="replace")
    problems = [] if rc == 0 else [f"exit code {rc}"]
    reports = _REPORT.findall(text)
    want = ["bijection.round_trip"] * nmax if suite == "bijection" else ["zstat.brute_vs_triangle"]
    if [name for _, name in reports] != want:
        problems.append(f"report lines {[name for _, name in reports]}, expected {want}")
    if any(head != "ok  " for head, _ in reports):
        problems.append("a report line is not ok")
    if suite == "bijection":
        counts = {int(n): int(c) for n, c in _ROUND_TRIP.findall(text)}
        expected = {n: sum(ls[n]) for n in range(1, nmax + 1)}
        if counts != expected:
            problems.append(f"round-trip counts {counts}, expected {expected}")
    return problems
