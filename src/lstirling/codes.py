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

from .partitions import ENUM_LIMIT, LSPartition, _code_of, validate
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
    """Check the structural rules; report the first offending position (1-based).

    The one place that decides code legality.  A symbol is a tuple: ("X",),
    or ("A", i, j) with i != j, or ("B", s) or ("Bb", s), each box index an
    int (never a bool) in 1..t, where t counts the X symbols before it.  The
    message is worked out only for the symbol that is rejected.
    """
    if not code:
        return CheckResult(False, "position 1: empty code")
    t = 0
    for pos, sym in enumerate(code, start=1):
        if type(sym) is tuple:
            size = len(sym)
            if size == 1:
                if sym[0] == "X":
                    t += 1
                    continue
            elif size == 2:
                s = sym[1]
                if (sym[0] == "B" or sym[0] == "Bb") and type(s) is int and 0 < s <= t:
                    continue
            elif size == 3:
                i, j = sym[1], sym[2]
                if sym[0] == "A" and type(i) is int and type(j) is int and i != j and 0 < i <= t and 0 < j <= t:
                    continue
        return CheckResult(False, _symbol_error(pos, sym, t))
    return CheckResult(True)


def _symbol_error(pos: int, sym, t: int) -> str:
    """Why validate_code rejected sym at position pos, with t boxes open."""
    if type(sym) is not tuple or not sym or sym[0] not in ("X", "A", "B", "Bb"):
        return f"position {pos}: unknown symbol {sym!r}"
    kind, idxs = sym[0], sym[1:]
    if kind == "X":
        return f"position {pos}: malformed X"
    if pos == 1:
        return "position 1: code must start with X"
    if len(idxs) != (2 if kind == "A" else 1):
        return f"position {pos}: malformed {kind} symbol"
    if kind == "A" and idxs[0] == idxs[1]:
        return f"position {pos}: A indices must differ"
    for idx in idxs:
        if type(idx) is bool:
            return f"position {pos}: box index {idx!r} is a bool, not an int"
        if type(idx) is not int or not 1 <= idx <= t:
            break
    return f"position {pos}: box index {idx} exceeds the {t} boxes opened"


def phi(code) -> LSPartition:
    """Replay a code into the partition it encodes."""
    v = validate_code(code)
    if not v.ok:
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
    symbol reads off the final box indices of its two copies, and the scan
    that reads them (partitions._code_of) checks the partition as it goes.
    """
    code = _code_of(p)
    if code is None:
        raise ValueError(f"phi_inverse: invalid partition ({validate(p).detail})")
    return code


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


_TOKEN = r"(X)|A\((\d+),(\d+)\)|(Bb?)\((\d+)\)"
# one findall reads the whole text: each match is a token with the separators
# before it, separators alone, or one character of anything else
_SCAN = re.compile(rf"[, ]*(?:{_TOKEN})|[, ]+|(.)", re.DOTALL)
# the longest prefix of tokens and separators, which ends at the first bad token
_PREFIX = re.compile(rf"(?:[, ]*(?:{_TOKEN}))*[, ]*")


def parse_code(text: str):
    """Inverse of render_code; text that is not a str raises ValueError.

    Tokens may be separated by commas and spaces.  The first error in the
    text is reported: a box index below 1, a bad token (with its position in
    the stripped text), or no token at all.
    """
    if not isinstance(text, str):
        raise ValueError(f"parse_code: expected str, got {type(text).__name__}")
    s = text.strip()
    out = []
    for x, i, j, kind, idx, junk in _SCAN.findall(s):
        if i:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError("A(i,j) requires distinct box indices")
            if i < 1 or j < 1:
                raise ValueError("A(i,j) box indices start at 1")
            out.append(("A", i, j))
        elif kind:
            idx = int(idx)
            if idx < 1:
                raise ValueError(f"{kind}(s) box index starts at 1")
            out.append((kind, idx))
        elif x:
            out.append(X)
        elif junk:
            pos = _PREFIX.match(s).end()
            raise ValueError(f"bad code token at position {pos}: {s[pos:]!r}")
    if not out:
        raise ValueError("parse_code: empty code text")
    return tuple(out)
