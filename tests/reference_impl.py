"""Reference implementations kept as test oracles.

`validate_by_sorting` checks the partition rules by sorting the whole ground
set, and `phi_inverse_by_scanning` peels the largest value and finds its box
by scanning every box.  Both cost more than linear time in n, but they follow
the definitions step by step and share no code with `partitions.validate` or
`codes.phi_inverse`, so the tests compare the library against them.

`refine_by_counting` picks the half of an isolating interval that keeps the
root by a Sturm count on the left half, where `realroots.refine_interval`
reads only the sign of the polynomial at the midpoint.  `_sign_by_terms`
sums the terms of p(a/b) b^d one at a time, where `realroots._sign_at`
runs Horner's rule.

`ls_explicit_by_fractions` adds the explicit alternating sum for ls(n,k) one
`Fraction` term at a time, where `triangles.ls_explicit` sums integers over
the single denominator (2k+1)!.

`codes_level_by_level` lists the codes of length n by extending every code
of each length by every allowed symbol, X first, then A(i,j), B(s) and Bb(s)
in index order; `codes._walk` walks the same tree depth first and builds
each partition from its parent's.

`validate_code_rule_by_rule` tries the code rules on each symbol in the order
of their messages, with `isinstance` tests, and `parse_code_by_scanning`
matches one token at a time and builds each symbol through the checked
constructors `A`, `B` and `Bb`; `codes.validate_code` and `codes.parse_code`
must give the same result or the same error message.

`table_csv_by_csv_writer` and `gamma_csv_by_csv_writer` render the CSV of
`lstirling table` and `lstirling gamma` through `csv.writer`, one row at a
time, where the CLI writes the lines itself; `table_json_by_json_dumps`
renders the JSON of `lstirling table` as one `json.dumps` of the whole
document, where the CLI writes it one triangle row at a time.

`LSPartitionDataclass` is `partitions.LSPartition` as the frozen dataclass
it used to be, with its rendering `repr`; the plain record must compare,
hash and print as it does.

The Sturm route is the oracle of the real-root certificates.  `sturm_chain`
builds the classical Sturm sequence as primitive integer polynomials (a
primitive pseudo-remainder sequence), `count_roots` counts the distinct real
roots in (a, b] as V(a) - V(b), and `isolate_roots` bisects a Cauchy bound
into one isolating interval per root.  `verify_conjecture_by_resorting`
isolates the roots of q_k and q_{k+1} that way, sorts every interval after
each refinement and bisects the first overlapping neighbours with
`refine_by_counting`; every sign it reads comes from `_sign_by_terms`.
`realroots.conjecture_results` instead certifies q_{k+1} from the intervals of
q_k by interlacing induction and never counts roots, so the two routes share
only `q_poly`.
"""
import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import mul

from lstirling import gamma, realroots, triangles
from lstirling.algebra import Poly
from lstirling.codes import A, B, Bb, X
from lstirling.partitions import LSPartition, render_element
from lstirling.triangles import CheckResult


def codes_level_by_level(n: int) -> list:
    """Every code of length n in enumeration order, one whole level at a time."""
    level = [((X,), 1)]  # (code, boxes opened)
    for _ in range(n - 1):
        level = [
            (code + (sym,), t + (sym == X))
            for code, t in level
            for sym in [X]
            + [A(i, j) for i in range(1, t + 1) for j in range(1, t + 1) if i != j]
            + [B(s) for s in range(1, t + 1)]
            + [Bb(s) for s in range(1, t + 1)]
        ]
    return [code for code, _ in level]


def validate_code_rule_by_rule(code) -> CheckResult:
    """Check the structural rules; report the first offending position (1-based)."""
    if not code:
        return CheckResult(False, "position 1: empty code")
    t = 0
    for pos, sym in enumerate(code, start=1):
        if sym == X:
            t += 1
            continue
        if not isinstance(sym, tuple) or not sym or sym[0] not in ("X", "A", "B", "Bb"):
            return CheckResult(False, f"position {pos}: unknown symbol {sym!r}")
        kind = sym[0]
        if kind == "X":
            return CheckResult(False, f"position {pos}: malformed X")
        if pos == 1:
            return CheckResult(False, "position 1: code must start with X")
        idxs = sym[1:]
        if (kind == "A" and len(idxs) != 2) or (kind in ("B", "Bb") and len(idxs) != 1):
            return CheckResult(False, f"position {pos}: malformed {kind} symbol")
        if kind == "A" and idxs[0] == idxs[1]:
            return CheckResult(False, f"position {pos}: A indices must differ")
        for idx in idxs:
            if isinstance(idx, bool):
                return CheckResult(False, f"position {pos}: box index {idx!r} is a bool, not an int")
            if not isinstance(idx, int) or not 1 <= idx <= t:
                return CheckResult(False, f"position {pos}: box index {idx} exceeds the {t} boxes opened")
    return CheckResult(True)


_TOKEN = re.compile(r"X|A\(([0-9]+),([0-9]+)\)|(B|Bb)\(([0-9]+)\)")


def parse_code_by_scanning(text: str):
    """Parse 'X,X,A(2,1),B(2),Bb(1)' one token at a time; ValueError on bad text."""
    if not isinstance(text, str):
        raise ValueError(f"parse_code: expected str, got {type(text).__name__}")
    out = []
    s = text.strip()
    pos = 0
    while pos < len(s):
        if s[pos] in ", ":
            pos += 1
            continue
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"bad code token at position {pos}: {s[pos:]!r}")
        if m.group(0) == "X":
            out.append(X)
        elif m.group(1):
            out.append(A(int(m.group(1)), int(m.group(2))))
        elif m.group(3) == "B":
            out.append(B(int(m.group(4))))
        else:
            out.append(Bb(int(m.group(4))))
        pos = m.end()
    if not out:
        raise ValueError("parse_code: empty code text")
    return tuple(out)


def ls_explicit_by_fractions(n: int, k: int) -> int:
    """ls(n,k) = sum_{r=0..k} (-1)^(r+k) (2r+1) (r^2+r)^n / ((r+k+1)! (k-r)!) in exact rationals."""
    if n < 0 or k < 0:
        raise ValueError("ls_explicit: indices must be nonnegative")
    total = Fraction(0)
    for r in range(k + 1):
        term = Fraction(
            (-1) ** (r + k) * (2 * r + 1) * (r * r + r) ** n,
            factorial(r + k + 1) * factorial(k - r),
        )
        total += term
    if total.denominator != 1:
        raise ArithmeticError(f"ls_explicit({n},{k}) is not an integer: {total}")
    return int(total)


def validate_by_sorting(p: LSPartition) -> CheckResult:
    """Check coverage, r1, r2, and standard form; report the first violation."""
    seen = sorted(e for b in p.boxes for e in b) + sorted(p.zero_box)
    expected = sorted((v, barred) for v in range(1, p.n + 1) for barred in (False, True))
    if sorted(seen) != expected:
        return CheckResult(False, "coverage: elements do not cover {1,1',...,n,n'} exactly once")
    for v in range(1, p.n + 1):
        if (v, False) in p.zero_box and (v, True) in p.zero_box:
            return CheckResult(False, f"r1: zero box holds both copies of {v}")
    for idx, box in enumerate(p.boxes, start=1):
        if not box:
            return CheckResult(False, f"r2: box {idx} is empty")
        mn = min(e[0] for e in box)
        if (mn, False) not in box or (mn, True) not in box:
            return CheckResult(False, f"r2: box {idx} is missing a copy of its minimum {mn}")
        for v in sorted({e[0] for e in box} - {mn}):
            if (v, False) in box and (v, True) in box:
                return CheckResult(False, f"r2: box {idx} holds both copies of non-minimum {v}")
    minima = [min(e[0] for e in b) for b in p.boxes]
    if minima != sorted(minima):
        return CheckResult(False, "standard-form: boxes are not sorted by minima")
    return CheckResult(True)


def phi_inverse_by_scanning(p: LSPartition):
    """Recover the code of a valid partition by peeling the largest value."""
    v = validate_by_sorting(p)
    if not v:
        raise ValueError(f"phi_inverse: invalid partition ({v.detail})")
    boxes = [set(b) for b in p.boxes]
    zero = set(p.zero_box)
    out = []
    for m in range(p.n, 0, -1):
        plain, barred = (m, False), (m, True)
        ip = next((i for i, b in enumerate(boxes) if plain in b), None)
        ib = next((i for i, b in enumerate(boxes) if barred in b), None)
        if ip is not None and ib is not None:
            if ip == ib:
                # both copies share a box, so m is its minimum and the box
                # is exactly the pair {m, m'}
                out.append(X)
                boxes.pop(ip)
            else:
                out.append(A(ip + 1, ib + 1))
                boxes[ip].remove(plain)
                boxes[ib].remove(barred)
        elif ip is not None:
            out.append(B(ip + 1))
            boxes[ip].remove(plain)
            zero.remove(barred)
        else:
            out.append(Bb(ib + 1))
            boxes[ib].remove(barred)
            zero.remove(plain)
    return tuple(reversed(out))


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
    if not p:
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


def _sign_by_terms(p: Poly, x) -> int:
    """Sign of the integer polynomial p at the rational x, term by term.

    With x = a/b, b > 0 and d the degree of p, p(x) b^d is the sum of the
    terms c_i a^i b^(d-i), each computed on its own, where
    `realroots._sign_at` accumulates the same sum by Horner's rule.
    """
    x = Fraction(x)
    a, b, d = x.numerator, x.denominator, p.degree
    a_powers = accumulate(repeat(a, d), mul, initial=1)
    b_powers = list(accumulate(repeat(b, d), mul, initial=1))
    total = sum(map(mul, map(mul, p.coeffs, a_powers), reversed(b_powers)))
    return (total > 0) - (total < 0)


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _var_at(chain, x) -> int:
    return _variations([_sign_by_terms(p, x) for p in chain])


def _var_at_inf(chain, direction: int) -> int:
    # sign at +oo is the leading sign; at -oo it flips with odd degree
    signs = []
    for p in chain:
        if not p:
            signs.append(0)
            continue
        lead = p.coeffs[-1]
        s = (lead > 0) - (lead < 0)
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
        if x is not None and _sign_by_terms(chain[-1], x) == 0:
            raise ValueError(f"count_roots: endpoint {x} is a repeated root")
    va = _var_at_inf(chain, -1) if a is None else _var_at(chain, a)
    vb = _var_at_inf(chain, +1) if b is None else _var_at(chain, b)
    return va - vb


def _root_bound(p: Poly) -> Fraction:
    # Cauchy bound 1 + max|c_i| / |lc| of the integer polynomial p: every
    # root has absolute value strictly below it
    lead = abs(p.coeffs[-1])
    rest = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return Fraction(lead + rest, lead)


def _shrink_around(chain, mid, lo, hi):
    # mid is an exact rational root inside (lo, hi); box it so the box holds
    # no other root and neither endpoint is a root
    p = chain[0]
    w = min(mid - lo, hi - mid) / 2
    while (
        _sign_by_terms(p, mid - w) == 0
        or _sign_by_terms(p, mid + w) == 0
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
    if not p:
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
        if _sign_by_terms(p, mid) == 0:
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


def refine_by_counting(chain, interval):
    """One bisection step, keeping the half whose Sturm count is one."""
    lo, hi = interval
    mid = (lo + hi) / 2
    if _sign_by_terms(chain[0], mid) == 0:
        return _shrink_around(chain, mid, lo, hi)
    if count_roots(chain, lo, mid) == 1:
        return (lo, mid)
    return (mid, hi)


def verify_conjecture_by_resorting(k: int) -> realroots.ConjectureResult:
    """The merged-order verdict for q_k and q_{k+1}, re-sorting after each bisection."""
    certs, chains = [], []
    for q in (k, k + 1):
        p = realroots.q_poly(q)
        try:
            chain, intervals = isolate_roots(p)
        except ValueError as err:
            chain, intervals, note = (), [], str(err)
        else:
            note = None
        certs.append((realroots.RootCertificate(q, p.degree, note is None, list(intervals)), note))
        chains.append(chain)
    (cert_r, err_r), (cert_s, err_s) = certs
    expected = realroots.expected_pattern(k)

    def result(pattern, verdict, note=None):
        return realroots.ConjectureResult(k, cert_r, cert_s, pattern, " ".join(expected), verdict, note)

    if err_r or err_s:
        return result("", "false", err_r or err_s)
    for cert in (cert_r, cert_s):
        if not cert.all_real:
            return result("", "false", f"q_{cert.k} has {len(cert.intervals)} real roots, degree {cert.degree}")
    entries = [["r", iv, chains[0], 0] for iv in cert_r.intervals]
    entries += [["s", iv, chains[1], 0] for iv in cert_s.intervals]
    while True:
        entries.sort(key=lambda e: e[1])
        clash = next(
            ((left, right) for left, right in zip(entries, entries[1:]) if not left[1][1] <= right[1][0]),
            None,
        )
        if clash is None:
            break
        for entry in clash:
            if entry[3] >= realroots.REFINE_CAP:
                return result(
                    "", "inconclusive", f"refinement budget exhausted separating roots of q_{k} and q_{k + 1}"
                )
            entry[1] = refine_by_counting(entry[2], entry[1])
            entry[3] += 1
    cert_r.intervals = [e[1] for e in entries if e[0] == "r"]
    cert_s.intervals = [e[1] for e in entries if e[0] == "s"]
    tags = [e[0] for e in entries]
    pattern = " ".join(tags)
    if tags != expected:
        return result(pattern, "false", "merged order differs from the conjectured pattern")
    return result(pattern, "vacuous" if k == 1 else "true")


def table_csv_by_csv_writer(family: str, nmax: int) -> str:
    """`table --family FAMILY --nmax NMAX` CSV; a js/jc cell is its coefficient list as compact JSON."""
    value = getattr(triangles, family)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "k", "value"])
    for n in range(nmax + 1):
        for k in range(n + 1):
            cell = value(n, k)
            if family in ("js", "jc"):
                cell = json.dumps(list(cell.coeffs), separators=(",", ":"))
            writer.writerow([n, k, cell])
    return buf.getvalue()


def table_json_by_json_dumps(family: str, nmax: int) -> str:
    """`table --family FAMILY --nmax NMAX --format json`; a js/jc cell is its coefficient list."""
    value = getattr(triangles, family)
    cell = (lambda c: list(c.coeffs)) if family in ("js", "jc") else (lambda c: c)
    rows = [[cell(value(n, k)) for k in range(n + 1)] for n in range(nmax + 1)]
    return json.dumps({"family": family, "nmax": nmax, "rows": rows}) + "\n"


def gamma_csv_by_csv_writer(kmax: int) -> str:
    """The rows `gamma --kmax KMAX` writes as CSV, before its summary line."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "offset", "coeffs"])
    for k in range(kmax + 1):
        writer.writerow([k, gamma.support(k)[0], json.dumps(list(gamma.gamma_row(k)), separators=(",", ":"))])
    return buf.getvalue()


@dataclass(frozen=True)
class LSPartitionDataclass:
    n: int
    boxes: tuple
    zero_box: frozenset

    def __repr__(self):
        def box(b):
            return ",".join(render_element(e) for e in sorted(b))

        inner = "".join("{" + box(b) + "}" for b in self.boxes)
        return f"LSPartition('{inner}<{box(self.zero_box)}>')"
