"""Set partitions of the doubled multiset {1, 1', 2, 2', ..., n, n'}.

Each value v occurs twice, once plain and once barred (written v').  Barred
and plain copies of the same value are equal in the ordering; only the value
matters.  A partition consists of nonzero boxes plus one distinguished zero
box, subject to:

    r1  the zero box may be empty and never holds both copies of a value;
    r2  every nonzero box is nonempty and holds both copies of its minimum
        value, and of no other value.

Standard form lists nonzero boxes in increasing order of their minima, zero
box last.  Text rendering uses curly braces for nonzero boxes and angle
brackets for the zero box: "{1,1',3',5'}{2,2',3,4}<4',5>".

Elements are (value, barred) tuples: an int value (never a bool) and a bool flag.
"""
from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter

from . import CheckResult, _FrozenRecord, _require_int
from .algebra import Poly

ENUM_LIMIT = 7

Element = tuple  # (value: int, barred: bool)


def render_element(e: Element) -> str:
    """v for the element (v, False) and v' for (v, True); anything else raises ValueError."""
    if not (isinstance(e, tuple) and len(e) == 2 and type(e[0]) is int and e[0] >= 1 and type(e[1]) is bool):
        raise ValueError(f"render_element: expected (value, barred), an int >= 1 and a bool, got {e!r}")
    v, barred = e
    return f"{v}'" if barred else str(v)


def parse_element(tok: str) -> Element:
    m = re.fullmatch(r"(\d+)(')?", tok.strip()) if isinstance(tok, str) else None
    if not m or int(m.group(1)) < 1:
        raise ValueError(f"bad element token {tok!r}")
    return (int(m.group(1)), m.group(2) == "'")


def _render_box(box) -> str:
    return ",".join(render_element(e) for e in sorted(box))


class LSPartition(_FrozenRecord):
    """A partition of {1,1',...,n,n'} into nonzero boxes plus a zero box.

    A frozen record over (n, boxes, zero_box), printed as its rendering.
    """

    __slots__ = ("n", "boxes", "zero_box")

    def __init__(self, n: int, boxes: tuple, zero_box: frozenset):
        # boxes: tuple of frozensets of Elements
        _set_n(self, n)
        _set_boxes(self, boxes)
        _set_zero_box(self, zero_box)

    def render(self) -> str:
        inner = "".join("{" + _render_box(b) + "}" for b in self.boxes)
        return inner + "<" + _render_box(self.zero_box) + ">"

    def __repr__(self):
        try:
            return f"LSPartition('{self.render()}')"
        except (TypeError, ValueError):  # fields that do not render print one by one
            return super().__repr__()


# the slots' own setters, which __init__ calls since __setattr__ refuses
_set_n = LSPartition.n.__set__
_set_boxes = LSPartition.boxes.__set__
_set_zero_box = LSPartition.zero_box.__set__


def _parse_box(tokens: list) -> frozenset:
    """The box of the elements that tokens name; ValueError if one is named twice."""
    elements = [parse_element(t) for t in tokens]
    box = frozenset(elements)
    if len(box) < len(elements):
        twice = next(e for e in elements if elements.count(e) > 1)
        raise ValueError(f"element {render_element(twice)} is listed twice in one box")
    return box


def parse(text: str) -> LSPartition:
    """Parse the canonical rendering; inverse of LSPartition.render.

    Text that is not a str, or not a rendering, raises ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"parse: expected str, got {type(text).__name__}")
    m = re.fullmatch(r"((?:\{[^{}<>]*\})*)<([^{}<>]*)>", text.strip())
    if not m:
        raise ValueError(f"bad partition text {text!r}")
    boxes = []
    for body in re.findall(r"\{([^{}]*)\}", m.group(1)):
        if not body.strip():
            raise ValueError("empty nonzero box")
        boxes.append(_parse_box(body.split(",")))
    zero_body = m.group(2).strip()
    zero = _parse_box(zero_body.split(",")) if zero_body else frozenset()
    values = [e[0] for b in boxes for e in b] + [e[0] for e in zero]
    return LSPartition(max(values, default=0), tuple(boxes), zero)


_X = ("X",)  # the code symbol that opens a box: codes.X

# the shared non-X code symbols, _SYMBOLS[a][b] for slots a, b <= 64, each
# made on first use by _symbol_at; the table is not prebuilt, since its
# 4,225 tuples would cost every importer about 0.3 MB
_SYMBOLS = [[None] * 65 for _ in range(65)]


def _symbol_at(a: int, b: int) -> tuple:
    """The non-X symbol that puts a value's plain copy in slot a and its
    barred copy in slot b, for unequal slots >= 0 (slot 0 the zero box):
    A(a, b) when both are nonzero boxes, B(a) when b is the zero box, Bb(b)
    when a is.

    Unchecked.  Every symbol the package hands out is built here, so equal
    symbols from the walk, parse_code and phi_inverse are one object.  A
    slot past 64 builds a fresh symbol, equal by value, so the table never
    grows with the input.
    """
    sym = ("A", a, b) if a and b else ("B", a) if a else ("Bb", b)
    if a < len(_SYMBOLS) and b < len(_SYMBOLS):
        row = _SYMBOLS[a]
        sym = row[b] = row[b] or sym
    return sym


def _homes(p: LSPartition):
    """The box of each value's two copies, or None unless p is an LSPartition
    whose elements cover {1,1',...,n,n'} exactly once.

    Returns lists (plain, barred): plain[v] is the index of the box holding v
    and barred[v] that of v', counting nonzero boxes from 1 and the zero box
    as 0 (slot 0 is unused).  An element is a tuple (value, flag) with an int
    value in 1..n, never a bool, and a bool flag.  No element is hashed: with
    2n elements in all, every slot filled means no slot was filled twice.
    """
    if not isinstance(p, LSPartition):
        return None
    n = p.n
    if type(n) is not int or n < 0:
        return None
    try:
        # counted first, so that the lists below are no longer than the input
        if len(p.zero_box) + sum(map(len, p.boxes)) != 2 * n:
            return None
        plain = [0] + [None] * n
        barred = plain.copy()
        for idx, box in enumerate((p.zero_box, *p.boxes)):
            for e in box:
                if not isinstance(e, tuple):
                    return None
                v, flag = e
                if type(v) is not int or not 0 < v <= n:
                    return None
                if flag is False:
                    plain[v] = idx
                elif flag is True:
                    barred[v] = idx
                else:
                    return None
    except (TypeError, ValueError):  # a box that is not a collection, an element of the wrong length
        return None
    if None in plain or None in barred:
        return None
    return plain, barred


def _code_of(p: LSPartition):
    """The insertion code whose image under phi is p, or None if p is invalid.

    The one place that decides coverage, r1, r2 and standard form.  Each
    value's symbol reads off the boxes of its two copies: both in one box is
    X, which must open the next box (so that box is nonempty, holds both
    copies of its minimum and no earlier value, and the minima increase);
    otherwise each copy sits in the zero box (not both: r1) or in a box
    already opened, so its value is not that box's minimum (r2).  The
    partition is valid exactly when the scan opens every box in turn.
    """
    homes = _homes(p)
    if homes is None:
        return None
    pairs = zip(*homes)
    next(pairs)  # slot 0
    symbols = _SYMBOLS
    out = []
    t = 0  # boxes opened so far
    for a, b in pairs:
        if a == b:
            if a != t + 1:
                return None
            t = a
            out.append(_X)
        elif a > t or b > t:
            return None
        else:
            # read inline, so that _symbol_at runs only on a symbol's first use
            try:
                out.append(symbols[a][b] or _symbol_at(a, b))
            except IndexError:  # a slot past the table's bound
                out.append(_symbol_at(a, b))
    return tuple(out) if t == len(p.boxes) else None


def _violation(p: LSPartition) -> str:
    """The first rule that a partition rejected by _code_of breaks, in the
    order coverage, r1, r2 box by box, standard form."""
    if not isinstance(p, LSPartition):
        return f"not a partition: {type(p).__name__}"
    n = p.n
    if type(n) is not int or n < 0:
        return f"coverage: n must be a nonnegative int, got {n!r}"
    homes = _homes(p)
    if homes is None:
        return "coverage: elements do not cover {1,1',...,n,n'} exactly once"
    plain, barred = homes
    values = range(1, n + 1)
    for v in values:
        if plain[v] == barred[v] == 0:
            return f"r1: zero box holds both copies of {v}"
    for idx in range(1, len(p.boxes) + 1):
        held = [v for v in values if plain[v] == idx or barred[v] == idx]
        if not held:
            return f"r2: box {idx} is empty"
        mn = held[0]
        if not plain[mn] == barred[mn] == idx:
            return f"r2: box {idx} is missing a copy of its minimum {mn}"
        for v in held[1:]:
            if plain[v] == barred[v] == idx:
                return f"r2: box {idx} holds both copies of non-minimum {v}"
    return "standard-form: boxes are not sorted by minima"


def validate(p: LSPartition) -> CheckResult:
    """Check coverage, r1, r2, and standard form; report the first violation.

    One scan of the elements and one of the values (_code_of), linear in n
    and free of hashing; the message is worked out only for a partition the
    scan rejects.  An argument that is not an LSPartition fails too.
    """
    if _code_of(p) is not None:
        return CheckResult(True)
    return CheckResult(False, _violation(p))


def enumerate_partitions(n: int):
    """An iterator over every valid partition of {1,1',...,n,n'}, each once.

    The partitions of codes._walk: the images under phi of the insertion
    codes of length n, in their order, each built from its prefix's partition
    by one insertion; standard form holds by construction.  Guarded at
    n <= ENUM_LIMIT, and n is checked when the function is called.
    """
    _require_int("enumerate_partitions", n)
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"enumerate_partitions: n must be in 1..{ENUM_LIMIT}, got {n}")
    # imported here because codes builds on this module
    from . import codes

    return map(itemgetter(1), codes._walk(n))


@lru_cache(maxsize=None)
def _zstat_rows(n: int) -> dict:
    rows: dict = {}
    for p in enumerate_partitions(n):
        k = len(p.boxes)
        i = [e[1] for e in p.zero_box].count(True)  # barred copies in the zero box
        row = rows.setdefault(k, [])
        if len(row) <= i:
            row.extend(0 for _ in range(i + 1 - len(row)))
        row[i] += 1
    return rows


def js_brute(n: int, k: int) -> Poly:
    """Zero-box statistic generating polynomial, by direct enumeration.

    Coefficient of z^i counts partitions with k nonzero boxes and exactly i
    barred elements in the zero box; agrees with js(n,k).
    """
    _require_int("js_brute", n, k)
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"js_brute: n must be in 1..{ENUM_LIMIT}, got {n}")
    return Poly(_zstat_rows(n).get(k, ()))
