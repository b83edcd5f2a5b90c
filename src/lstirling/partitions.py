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

Elements are (value, barred) tuples.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .algebra import Poly
from .triangles import CheckResult

ENUM_LIMIT = 7

Element = tuple  # (value: int, barred: bool)


def render_element(e: Element) -> str:
    v, barred = e
    return f"{v}'" if barred else str(v)


def parse_element(tok: str) -> Element:
    m = re.fullmatch(r"(\d+)(')?", tok.strip()) if isinstance(tok, str) else None
    if not m or int(m.group(1)) < 1:
        raise ValueError(f"bad element token {tok!r}")
    return (int(m.group(1)), m.group(2) == "'")


def _render_box(box) -> str:
    return ",".join(render_element(e) for e in sorted(box))


@dataclass(frozen=True)
class LSPartition:
    """A partition of {1,1',...,n,n'} into nonzero boxes plus a zero box."""

    n: int
    boxes: tuple  # tuple of frozensets of Elements
    zero_box: frozenset

    def render(self) -> str:
        inner = "".join("{" + _render_box(b) + "}" for b in self.boxes)
        return inner + "<" + _render_box(self.zero_box) + ">"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "boxes": [[render_element(e) for e in sorted(b)] for b in self.boxes],
            "zero_box": [render_element(e) for e in sorted(self.zero_box)],
        }

    def __repr__(self):
        return f"LSPartition('{self.render()}')"


def from_json_dict(doc: dict) -> LSPartition:
    """Inverse of LSPartition.to_json_dict; a malformed document raises ValueError."""
    if not isinstance(doc, dict) or not {"n", "boxes", "zero_box"} <= doc.keys():
        raise ValueError("partition document needs the keys n, boxes and zero_box")
    n, boxes, zero = doc["n"], doc["boxes"], doc["zero_box"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"partition document: n must be a nonnegative int, got {n!r}")
    if not isinstance(zero, list) or not isinstance(boxes, list) or not all(isinstance(b, list) for b in boxes):
        raise ValueError("partition document: boxes must be a list of lists and zero_box a list")
    return LSPartition(
        n,
        tuple(frozenset(parse_element(t) for t in b) for b in boxes),
        frozenset(parse_element(t) for t in zero),
    )


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
        boxes.append(frozenset(parse_element(t) for t in body.split(",")))
    zero_body = m.group(2).strip()
    zero = frozenset(parse_element(t) for t in zero_body.split(",")) if zero_body else frozenset()
    values = [e[0] for b in boxes for e in b] + [e[0] for e in zero]
    return LSPartition(max(values, default=0), tuple(boxes), zero)


@lru_cache(maxsize=16)
def _ground_set(n: int) -> frozenset:
    """{1,1',...,n,n'} as a set of elements; a sweep asks for one n at a time."""
    return frozenset((v, barred) for v in range(1, n + 1) for barred in (False, True))


_value = itemgetter(0)


def validate(p: LSPartition) -> CheckResult:
    """Check coverage, r1, r2, and standard form; report the first violation.

    One pass: each rule is a set comparison, a count of distinct values or a
    membership test, so the cost is linear in n.
    """
    n = p.n
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        return CheckResult(False, f"coverage: n must be a nonnegative int, got {n!r}")
    # elements off the ground set (bad values, non-tuples) fail the equality;
    # with the union equal to the 2n-element ground set, a total size of 2n
    # means no element sits in two boxes
    try:
        size = len(p.zero_box) + sum(map(len, p.boxes))
        covered = size == 2 * n and frozenset(p.zero_box).union(*p.boxes) == _ground_set(n)
    except TypeError:  # a box that is not a collection, or an unhashable element
        covered = False
    if not covered:
        return CheckResult(False, "coverage: elements do not cover {1,1',...,n,n'} exactly once")
    zero = p.zero_box
    if len(set(map(_value, zero))) != len(zero):
        v = min(v for v, barred in zero if not barred and (v, True) in zero)
        return CheckResult(False, f"r1: zero box holds both copies of {v}")
    minima = []
    for idx, box in enumerate(p.boxes, start=1):
        if not box:
            return CheckResult(False, f"r2: box {idx} is empty")
        values = set(map(_value, box))
        mn = min(values)
        if (mn, False) not in box or (mn, True) not in box:
            return CheckResult(False, f"r2: box {idx} is missing a copy of its minimum {mn}")
        # the minimum is the only value present twice exactly when the box
        # has one distinct value fewer than elements
        if len(values) != len(box) - 1:
            v = min(v for v in values if v != mn and (v, False) in box and (v, True) in box)
            return CheckResult(False, f"r2: box {idx} holds both copies of non-minimum {v}")
        minima.append(mn)
    if minima != sorted(minima):
        return CheckResult(False, "standard-form: boxes are not sorted by minima")
    return CheckResult(True)


def enumerate_partitions(n: int):
    """Yield every valid partition of {1,1',...,n,n'} exactly once.

    The partitions are the images under phi of the insertion codes of length
    n (codes.enumerate_codes); standard form holds by construction.  The
    codes are valid as built, so each is replayed without checking it again.
    Guarded at n <= ENUM_LIMIT.
    """
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"enumerate_partitions: n must be in 1..{ENUM_LIMIT}, got {n}")
    # imported here because codes builds on this module
    from . import codes

    for code in codes.enumerate_codes(n):
        yield codes._replay(code)


def count_by_blocks(n: int) -> dict:
    """Histogram {k: number of partitions with k nonzero boxes}."""
    out: dict = {}
    for p in enumerate_partitions(n):
        out[len(p.boxes)] = out.get(len(p.boxes), 0) + 1
    return out


@lru_cache(maxsize=None)
def _zstat_rows(n: int) -> dict:
    rows: dict = {}
    for p in enumerate_partitions(n):
        k = len(p.boxes)
        i = sum(1 for e in p.zero_box if e[1])
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
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"js_brute: n must be in 1..{ENUM_LIMIT}, got {n}")
    return Poly(_zstat_rows(n).get(k, ()))
