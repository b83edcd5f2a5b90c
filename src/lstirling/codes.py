"""Insertion codes for the doubled-multiset partitions, and the bijection.

A code of length n is a sequence of symbols, one per inserted value:

    X       start a fresh pair box {m, m'}
    A(i,j)  plain copy into nonzero box i, barred copy into box j (i != j)
    B(s)    plain copy into nonzero box s, barred copy into the zero box
    Bb(s)   barred copy into nonzero box s, plain copy into the zero box

The first symbol must be X, and every box index used at step m must not
exceed the number of X symbols seen before step m.  The map phi builds a
partition by replaying a code; phi_inverse recovers the code from the box
index of each value's two copies.  Codes of length n with k X symbols are counted by ls(n,k):
a non-X step taken with t pair boxes available has t(t-1) + 2t = t^2 + t
choices, which is where the factor k(k+1) of the triangle recurrence lives.

Symbols are plain tuples: ("X",), ("A", i, j), ("B", s), ("Bb", s); box
indices are ints, never bools.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .partitions import ENUM_LIMIT, LSPartition, validate
from .triangles import CheckResult, _require_int

X = ("X",)


def A(i: int, j: int) -> tuple:
    _require_int("A(i,j)", i, j)
    if i == j:
        raise ValueError("A(i,j) requires distinct box indices")
    if i < 1 or j < 1:
        raise ValueError("A(i,j) box indices start at 1")
    return ("A", i, j)


def B(s: int) -> tuple:
    _require_int("B(s)", s)
    if s < 1:
        raise ValueError("B(s) box index starts at 1")
    return ("B", s)


def Bb(s: int) -> tuple:
    _require_int("Bb(s)", s)
    if s < 1:
        raise ValueError("Bb(s) box index starts at 1")
    return ("Bb", s)


def n_x(code) -> int:
    """Number of X symbols, i.e. the number of pair boxes the code opens."""
    return sum(1 for sym in code if sym == X)


def validate_code(code) -> CheckResult:
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


def phi(code) -> LSPartition:
    """Replay a code into the partition it encodes."""
    v = validate_code(code)
    if not v:
        raise ValueError(f"phi: invalid code ({v.detail})")
    return _replay(code)


def _replay(code) -> LSPartition:
    # phi without the check, for codes known to be valid
    boxes: list = []
    zero: list = []
    for m, sym in enumerate(code, start=1):
        kind = sym[0]
        if kind == "X":
            boxes.append([(m, False), (m, True)])
        elif kind == "A":
            boxes[sym[1] - 1].append((m, False))
            boxes[sym[2] - 1].append((m, True))
        elif kind == "B":
            boxes[sym[1] - 1].append((m, False))
            zero.append((m, True))
        else:
            boxes[sym[1] - 1].append((m, True))
            zero.append((m, False))
    return LSPartition(len(code), tuple(map(frozenset, boxes)), frozenset(zero))


def phi_inverse(p: LSPartition):
    """Recover the code of a valid partition, one symbol per value.

    Peeling the largest value never shifts a box index: the box removed at an
    X holds the pair {m, m'} alone, and in standard form every box after it
    has a larger minimum, so it was removed before.  Hence each value's
    symbol reads off the final box indices of its two copies.
    """
    v = validate(p)
    if not v:
        raise ValueError(f"phi_inverse: invalid partition ({v.detail})")
    where = {e: i for i, box in enumerate(p.boxes, start=1) for e in box}
    out = []
    for m in range(1, p.n + 1):
        ip, ib = where.get((m, False)), where.get((m, True))
        if ip is None:
            out.append(("Bb", ib))
        elif ib is None:
            out.append(("B", ip))
        elif ip == ib:
            out.append(X)
        else:
            out.append(("A", ip, ib))
    return tuple(out)


@lru_cache(maxsize=None)
def _legal_non_x(t: int) -> tuple:
    """The non-X symbols allowed with t pair boxes open, in enumeration order."""
    out = [A(i, j) for i in range(1, t + 1) for j in range(1, t + 1) if i != j]
    out.extend(B(s) for s in range(1, t + 1))
    out.extend(Bb(s) for s in range(1, t + 1))
    return tuple(out)


def enumerate_codes(n: int):
    """Yield every valid code of length n; guarded at n <= ENUM_LIMIT."""
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"enumerate_codes: n must be in 1..{ENUM_LIMIT}, got {n}")

    def extend(code, t):
        # code has fewer than n symbols; the last level yields the leaves
        # itself instead of recursing once per leaf
        if len(code) == n - 1:
            yield code + (X,)
            for sym in _legal_non_x(t):
                yield code + (sym,)
            return
        yield from extend(code + (X,), t + 1)
        for sym in _legal_non_x(t):
            yield from extend(code + (sym,), t)

    if n == 1:
        yield (X,)
    else:
        yield from extend((X,), 1)


def count_codes(n: int, k: int) -> int:
    """Number of codes of length n with exactly k X symbols; equals ls(n,k).

    Multiplies per-step choice counts: a non-X position reached with t X's
    seen contributes t^2 + t choices.
    """
    _require_int("count_codes", n, k)
    if n < 1:
        raise ValueError("count_codes: n must be at least 1")
    if k < 1 or k > n:
        return 0
    ways = [0] * (k + 1)
    ways[1] = 1
    for _ in range(n - 1):
        nxt = [0] * (k + 1)
        for t in range(1, k + 1):
            w = ways[t]
            if not w:
                continue
            if t + 1 <= k:
                nxt[t + 1] += w
            nxt[t] += w * (t * t + t)
        ways = nxt
    return ways[k]


def render_code(code) -> str:
    """Comma-separated token form: 'X,X,A(2,1),B(2),Bb(1)'."""
    parts = []
    for sym in code:
        if sym == X:
            parts.append("X")
        elif sym[0] == "A":
            parts.append(f"A({sym[1]},{sym[2]})")
        else:
            parts.append(f"{sym[0]}({sym[1]})")
    return ",".join(parts)


_TOKEN = re.compile(r"X|A\((\d+),(\d+)\)|(B|Bb)\((\d+)\)")


def parse_code(text: str):
    """Inverse of render_code; text that is not a str raises ValueError."""
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
