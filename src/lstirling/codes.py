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

One checking replay, _image, is the only place that decides whether a code
is legal: it checks each symbol against the boxes opened before it and
inserts it in the same pass.  phi returns its image, and validate_code reads
its verdict.  parse_code builds every symbol through its constructor (A, B
or Bb), so each symbol's rule and message are written once.

The codes form a prefix tree, and the partition of a code is the partition
of its prefix plus one insertion.  Every enumeration (enumerate_codes,
partitions.enumerate_partitions, the bijection and zero-box sweeps) reads
one depth-first walk of that tree, _walk, which builds each node's
partition from its parent's; phi stays the path for a single code.

Symbols are plain tuples: ("X",), ("A", i, j), ("B", s), ("Bb", s); box
indices are ints, never bools.  Every symbol that the package hands out, from
A, B and Bb, parse_code, the walk or phi_inverse, with box indices up to 64,
is one object from a shared table in partitions (partitions._symbol_at), so
the codes a caller keeps share their symbols.
"""
from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter

from . import CheckResult, _require_int
from .partitions import _X as X
from .partitions import ENUM_LIMIT, LSPartition, _code_of, _symbol_at, validate


def A(i: int, j: int) -> tuple:
    _require_int("A(i,j)", i, j)
    if i == j:
        raise ValueError("A(i,j) requires distinct box indices")
    if i < 1 or j < 1:
        raise ValueError("A(i,j) box indices start at 1")
    return _symbol_at(i, j)


def B(s: int) -> tuple:
    _require_int("B(s)", s)
    if s < 1:
        raise ValueError("B(s) box index starts at 1")
    return _symbol_at(s, 0)


def Bb(s: int) -> tuple:
    _require_int("Bb(s)", s)
    if s < 1:
        raise ValueError("Bb(s) box index starts at 1")
    return _symbol_at(0, s)


def _read_code(code) -> tuple | None:
    """The code read once as a tuple, or None when it is not iterable.

    An exact tuple comes back as it is, uncopied, and a falsy argument such
    as None is the empty code.  Only iter() is guarded, so a TypeError raised
    while an iterable is read propagates to the caller.
    """
    if code.__class__ is tuple:
        return code
    if not code:
        return ()
    try:
        it = iter(code)
    except TypeError:
        return None
    return tuple(it)


# each symbol's tag with its length
_SHAPES = (("X", 1), ("A", 3), ("B", 2), ("Bb", 2))


def validate_code(code) -> CheckResult:
    """Check the structural rules; report the first offending position (1-based).

    A symbol is a tuple: ("X",), or ("A", i, j) with i != j, or ("B", s) or
    ("Bb", s), each box index an int (never a bool) in 1..t, where t counts
    the X symbols before it.  The verdict is _image's; the message is worked
    out only for the symbol that it rejects.  The code may be any iterable
    of symbols; it is read once, as a tuple.
    """
    read = _read_code(code)
    if read is None:
        return CheckResult(False, f"not a code: {type(code).__name__} object is not iterable")
    if not read:
        return CheckResult(False, "position 1: empty code")
    pos = _image(read)
    if pos.__class__ is not int:
        return CheckResult(True)
    return CheckResult(False, _symbol_error(pos, read[pos - 1], read[: pos - 1].count(X)))


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
    """Replay a code, any iterable of symbols, into the partition it encodes."""
    read = _read_code(code)
    if read is not None:
        image = _image(read)
        if image.__class__ is not int:
            return image
        code = read
    raise ValueError(f"phi: invalid code ({validate_code(code).detail})")


def _element_pairs(size: int) -> tuple:
    """((m, False), (m, True)) for m = 1..size: each value's plain and barred copy."""
    return tuple(((m, False), (m, True)) for m in range(1, size + 1))


# shared by every replay of a code no longer than this; a longer code builds
# its own pairs, so the table never grows with the input
_PAIRS = _element_pairs(64)


def _image(code: tuple):
    """phi(code) for a legal code, else the 1-based position of its first
    illegal symbol (1 for the empty code).

    The one place that decides code legality: each symbol is checked against
    the t boxes opened before it and inserted in the same pass.  _walk builds
    the same images, unchecked, for a whole enumeration.
    """
    n = len(code)
    if not n:
        return 1
    pairs = _PAIRS if n <= len(_PAIRS) else _element_pairs(n)
    boxes: list = []
    zero: list = []
    t = 0  # boxes opened so far
    for pos, ((plain, barred), sym) in enumerate(zip(pairs, code), start=1):
        if type(sym) is tuple:
            size = len(sym)
            if size == 1:
                if sym[0] == "X":
                    boxes.append([plain, barred])
                    t += 1
                    continue
            elif size == 2:
                s = sym[1]
                if type(s) is int and 0 < s <= t:
                    if sym[0] == "B":
                        boxes[s - 1].append(plain)
                        zero.append(barred)
                        continue
                    if sym[0] == "Bb":
                        boxes[s - 1].append(barred)
                        zero.append(plain)
                        continue
            elif size == 3:
                i, j = sym[1], sym[2]
                if sym[0] == "A" and type(i) is int and type(j) is int and i != j and 0 < i <= t and 0 < j <= t:
                    boxes[i - 1].append(plain)
                    boxes[j - 1].append(barred)
                    continue
        return pos
    # a tuple from a list, as in parse_code: tuple() of an iterator resizes
    # its result, and the resized tuples collect on CPython's free lists
    return LSPartition(n, tuple(list(map(frozenset, boxes))), frozenset(zero))


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
def _insertions(t: int) -> tuple:
    """The non-X steps allowed with t pair boxes open, in enumeration order.

    Each is (symbol, slot of the plain copy, slot of the barred copy), where
    slot s >= 1 is nonzero box s and slot 0 the zero box.
    """
    out = [(A(i, j), i, j) for i in range(1, t + 1) for j in range(1, t + 1) if i != j]
    out.extend((B(s), s, 0) for s in range(1, t + 1))
    out.extend((Bb(s), 0, s) for s in range(1, t + 1))
    return tuple(out)


def _walk(n: int):
    """(code, phi(code)) for every code of length n, in enumeration order.

    A depth-first walk of the code tree, X before the non-X steps in
    _insertions order.  A node's boxes are its parent's plus one insertion:
    the boxes the step does not touch are shared, and the unions a parent's
    children need (each box with the new value's plain copy, and with its
    barred copy) are made once per parent.  Unguarded: callers check n.
    """
    pairs = _element_pairs(n)
    # nodes still to visit, each (code, [zero box, box 1, ..., box t])
    stack = [((), [frozenset()])]
    while stack:
        code, slots = stack.pop()
        plain, barred = pairs[len(code)]
        with_plain = [box | {plain} for box in slots]
        with_barred = [box | {barred} for box in slots]
        children = [(code + (X,), slots + [frozenset((plain, barred))])]
        for sym, a, b in _insertions(len(slots) - 1):
            child = slots.copy()
            child[a] = with_plain[a]
            child[b] = with_barred[b]
            children.append((code + (sym,), child))
        if len(code) < n - 1:
            # reversed, so that the first child is popped first
            stack.extend(reversed(children))
        else:
            for leaf, child in children:
                yield leaf, LSPartition(n, tuple(child[1:]), child[0])


def enumerate_codes(n: int):
    """An iterator over every valid code of length n; guarded at n <= ENUM_LIMIT.

    The codes of _walk, in its order.  n is checked when the function is
    called, before anything is iterated.
    """
    _require_int("enumerate_codes", n)
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"enumerate_codes: n must be in 1..{ENUM_LIMIT}, got {n}")
    return map(itemgetter(0), _walk(n))


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
    """Comma-separated token form: 'X,X,A(2,1),B(2),Bb(1)'.

    Any iterable of symbols of a known tag and arity renders, legal or not:
    (X, B(0)) renders as 'X,B(0)'.  A non-iterable argument or an unknown
    symbol raises ValueError.  Box indices are not checked.
    """
    read = _read_code(code)
    if read is None:
        raise ValueError(f"render_code: {type(code).__name__} object is not iterable")
    for sym in read:
        if type(sym) is not tuple or sym[:1] + (len(sym),) not in _SHAPES:
            raise ValueError(f"render_code: unknown symbol {sym!r}")
    return ",".join(
        "X" if sym == X else f"A({sym[1]},{sym[2]})" if len(sym) == 3 else f"{sym[0]}({sym[1]})" for sym in read
    )


_TOKEN = re.compile(r"X|A\(\d+,\d+\)|Bb?\(\d+\)")
# the longest prefix of tokens and separators, which ends at the first bad token
_PREFIX = re.compile(rf"(?:[, ]*(?:{_TOKEN.pattern}))*[, ]*")
_CONSTRUCTORS = {"A": A, "B": B, "Bb": Bb}


@lru_cache(maxsize=1024)
def _symbol(token: str) -> tuple:
    """The symbol a token of _TOKEN names, built by its constructor.

    Cached, since a parse meets the same few tokens again and again; a token
    whose constructor raises is not cached and raises on every parse.
    """
    if token == "X":
        return X
    kind, _, args = token[:-1].partition("(")
    return _CONSTRUCTORS[kind](*map(int, args.split(",")))


def parse_code(text: str):
    """Inverse of render_code; text that is not a str raises ValueError.

    Tokens may be separated by commas and spaces.  The first error in the
    text is reported: a box index that its symbol's constructor rejects, a
    bad token (with its position in the stripped text), or no token at all.
    """
    if not isinstance(text, str):
        raise ValueError(f"parse_code: expected str, got {type(text).__name__}")
    s = text.strip()
    end = _PREFIX.match(s).end()
    # the tokens before the first bad one, so that a bad index there is
    # reported first; the tuple is made from a list, since tuple() of an
    # iterator resizes its result, and the resized tuples of each length
    # collect on CPython's free lists (+1.2 MB peak on the library_mix queries)
    code = tuple(list(map(_symbol, _TOKEN.findall(s, 0, end))))
    if end < len(s):
        raise ValueError(f"bad code token at position {end}: {s[end:]!r}")
    if not code:
        raise ValueError("parse_code: empty code text")
    return code
