"""Reference implementations kept as test oracles.

`validate_by_sorting` checks the partition rules by sorting the whole ground
set, and `phi_inverse_by_scanning` peels the largest value and finds its box
by scanning every box.  Both cost more than linear time in n, but they follow
the definitions step by step and share no code with `partitions.validate` or
`codes.phi_inverse`, so the tests compare the library against them.

`refine_by_counting` picks the half of an isolating interval that keeps the
root by a Sturm count on the left half, where `realroots.refine_interval`
reads only the sign of the polynomial at the midpoint.

`ls_explicit_by_fractions` adds the explicit alternating sum for ls(n,k) one
`Fraction` term at a time, where `triangles.ls_explicit` sums integers over
the single denominator (2k+1)!.

`verify_conjecture_by_resorting` orders the roots of q_k and q_{k+1} by
sorting every interval after each refinement and bisecting the first
overlapping neighbours, instead of merging the two sorted lists once as
`realroots.verify_conjecture` does.
"""
from fractions import Fraction
from math import factorial

from lstirling import realroots
from lstirling.codes import A, B, Bb, X
from lstirling.partitions import LSPartition
from lstirling.triangles import CheckResult


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
        for v in {e[0] for e in box} - {mn}:
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


def refine_by_counting(chain, interval):
    """One bisection step, keeping the half whose Sturm count is one."""
    lo, hi = interval
    mid = (lo + hi) / 2
    if realroots._sign_at(chain[0], mid) == 0:
        return realroots._shrink_around(chain, mid, lo, hi)
    if realroots.count_roots(chain, lo, mid) == 1:
        return (lo, mid)
    return (mid, hi)


def verify_conjecture_by_resorting(k: int) -> realroots.ConjectureResult:
    """The merged-order verdict for q_k and q_{k+1}, re-sorting after each bisection."""
    certs, chains = [], []
    for q in (k, k + 1):
        p = realroots.q_poly(q)
        try:
            chain, intervals = realroots.isolate_roots(p)
        except ValueError as err:
            chain, intervals, note = (), [], str(err)
        else:
            note = None
        certs.append((realroots.RootCertificate(q, int(p.degree), note is None, list(intervals)), note))
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
            entry[1] = realroots.refine_interval(entry[2][0], entry[1])
            entry[3] += 1
    cert_r.intervals = [e[1] for e in entries if e[0] == "r"]
    cert_s.intervals = [e[1] for e in entries if e[0] == "s"]
    tags = [e[0] for e in entries]
    pattern = " ".join(tags)
    if tags != expected:
        return result(pattern, "false", "merged order differs from the conjectured pattern")
    return result(pattern, "vacuous" if k == 1 else "true")
