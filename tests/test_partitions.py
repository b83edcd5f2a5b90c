"""Doubled-multiset partition model: parsing, validation, enumeration, statistics."""
import copy
import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import LSPartitionDataclass, phi_inverse_by_scanning, validate_by_sorting
from strategies import JSON_LIKE

from lstirling.algebra import Poly
from lstirling.codes import phi_inverse
from lstirling.partitions import (
    ENUM_LIMIT,
    LSPartition,
    enumerate_partitions,
    js_brute,
    parse,
    parse_element,
    render_element,
    validate,
)
from lstirling.triangles import js, ls

WORKED = "{1,1',3',5'}{2,2',3,4}<4',5>"


def test_element_round_trip():
    assert parse_element("3'") == (3, True)
    assert parse_element("12") == (12, False)
    assert render_element((3, True)) == "3'"
    assert render_element((12, False)) == "12"


@pytest.mark.parametrize("bad", [True, 1.0, None, -1, (0, False), (True, False), (1.0, True), (3, 1), (3,)])
def test_render_element_rejects_what_is_not_an_element(bad):
    with pytest.raises(ValueError, match="render_element"):
        render_element(bad)


def test_bad_element_tokens_are_rejected():
    for tok in ("", "x", "3''", "'3", "0"):
        with pytest.raises(ValueError):
            parse_element(tok)


@pytest.mark.parametrize("text", ["{\uff11,1'}<>", "{1,\u0661'}<>", "{1,1'}<\uff12,2'>"])
def test_parse_rejects_a_non_ascii_digit(text):
    with pytest.raises(ValueError, match="bad element token"):
        parse(text)
    ascii_text = text.translate({0xFF11: "1", 0x0661: "1", 0xFF12: "2"})
    assert parse(ascii_text).render() == ascii_text


def test_parse_render_round_trip_on_worked_example():
    p = parse(WORKED)
    assert p.n == 5
    assert len(p.boxes) == 2
    assert p.render() == WORKED
    assert validate(p)


PARTITION_TEXT = st.text(alphabet="{}<>,' 0123456789", max_size=40)


@given(st.one_of(st.text(), PARTITION_TEXT, JSON_LIKE))
def test_parse_returns_or_raises_value_error_only(text):
    try:
        p = parse(text)
    except ValueError:
        return
    assert isinstance(p, LSPartition)


def test_parse_rejects_malformed_text():
    for text in ("", "{1,1'}", "<>{1,1'}", "{1,1'}<2,2'>extra", None, 12, b"{1,1'}<>"):
        with pytest.raises(ValueError):
            parse(text)


@pytest.mark.parametrize("text", ["{1,1',2,2}<2'>", "{1,1'}{2,2'}<3,3',3>", "{1,1',1}<>"])
def test_parse_rejects_a_box_that_lists_an_element_twice(text):
    # dropping the repeat would read a valid partition that the text does not render
    with pytest.raises(ValueError, match="listed twice in one box"):
        parse(text)


@pytest.mark.parametrize("text", ["{}<>", "{1,1'}{ }<>"])
def test_parse_rejects_an_empty_nonzero_box(text):
    with pytest.raises(ValueError, match="empty nonzero box"):
        parse(text)


def test_empty_zero_box_renders_and_parses():
    p = parse("{1,1'}{2,2'}<>")
    assert p.zero_box == frozenset()
    assert p.render() == "{1,1'}{2,2'}<>"
    assert validate(p)


def test_doubling_a_nonminimum_value_is_invalid():
    res = validate(parse("{1,1',2,2'}<>"))
    assert not res


# -- validation rules -----------------------------------------------------------


def _partition(n, boxes, zero):
    return LSPartition(n, tuple(frozenset(b) for b in boxes), frozenset(zero))


def test_validate_flags_missing_copies():
    p = _partition(2, [[(1, False), (1, True)]], [(2, False)])
    res = validate(p)
    assert not res
    assert "coverage" in res.detail


def test_validate_flags_doubled_value_in_zero_box():
    p = _partition(2, [[(1, False), (1, True)]], [(2, False), (2, True)])
    res = validate(p)
    assert not res
    assert "zero box" in res.detail


def test_validate_flags_nonminimum_doubled_pair():
    # box {1, 2, 2'} repeats a value that is not the box minimum
    p = _partition(2, [[(1, False), (2, False), (2, True)]], [(1, True)])
    res = validate(p)
    assert not res


def test_validate_flags_missing_doubled_minimum():
    # box {1, 2} has a single copy of its minimum
    p = _partition(2, [[(1, False), (2, False)]], [(1, True), (2, True)])
    res = validate(p)
    assert not res


def test_validate_flags_unordered_boxes():
    good = parse("{1,1'}{2,2'}<>")
    assert validate(good)
    swapped = LSPartition(good.n, (good.boxes[1], good.boxes[0]), good.zero_box)
    res = validate(swapped)
    assert not res
    assert "order" in res.detail or "minima" in res.detail


@pytest.mark.parametrize(
    "boxes,zero,detail",
    [
        ([[(1, False), (1, True), (2, True)], []], [(2, False)], "r2: box 2 is empty"),
        ([[(1, False), (2, True)], [(2, False), (1, True)]], [], "r2: box 1 is missing a copy of its minimum 1"),
        ([[(2, False), (2, True)], [(1, False), (1, True)]], [], "standard-form: boxes are not sorted by minima"),
    ],
)
def test_validate_names_the_broken_rule(boxes, zero, detail):
    p = _partition(2, boxes, zero)
    assert validate(p).detail == validate_by_sorting(p).detail == detail


def test_validate_reports_the_smallest_doubled_value():
    def both(*values):
        return [(v, barred) for v in values for barred in (False, True)]

    res = validate(_partition(3, [both(1, 2, 3)], []))
    assert res.detail == "r2: box 1 holds both copies of non-minimum 2"
    res = validate(_partition(3, [both(1)], both(2, 3)))
    assert res.detail == "r1: zero box holds both copies of 2"


@pytest.mark.parametrize(
    "p",
    [
        _partition(1, [[(1, False), (1, True)]], ["x"]),
        _partition(1, [[(1, False), "x"]], [(1, True)]),
        _partition(1, [[(1, False), (1, True)]], [(None, True)]),
        _partition(2, [[(1, False), (1, True), (None, True)]], [(2, False)]),
        _partition("2", [[(1, False), (1, True), (2, True)]], [(2, False)]),
        _partition(None, [], []),
        _partition(True, [[(1, False), (1, True)]], []),
        LSPartition(1, (5,), frozenset()),
        LSPartition(1, ([(1, False), (1, True), [1]],), frozenset()),
        LSPartition(1, ([(1, False), [1, True]],), frozenset()),
        # each of these equals {1,1'} element for element, but only an int
        # value (not a bool) with a bool flag renders as text parse accepts
        _partition(1, [[(1.0, False), (1, True)]], []),
        _partition(1, [[(True, False), (1, True)]], []),
        _partition(1, [[(1, 0), (1, True)]], []),
        _partition(1, [[(True, 0), (1, True)]], []),
        _partition(1, [[(1, False), (1, 1)]], []),
        _partition(1, [[(1, False), (1, 1.0)]], []),
        # 2n elements, but one copy twice and another missing
        _partition(2, [[(1, False), (1, True)], [(2, False), (1, True)]], []),
        _partition(2, [[(1, False), (1, True)], [(1, False), (2, True)]], []),
        # a two-element set in place of (8, True): it unpacks as 8, True
        _partition(8, [[(v, False), (v, True) if v < 8 else frozenset({8, True})] for v in range(1, 9)], []),
    ],
)
def test_malformed_partitions_fail_coverage_instead_of_raising(p):
    res = validate(p)
    assert not res
    assert res.detail.startswith("coverage")
    with pytest.raises(ValueError):
        phi_inverse(p)


@pytest.mark.parametrize("arg", [None, WORKED, (5, (), frozenset()), 5], ids=["None", "str", "tuple", "int"])
def test_a_non_partition_fails_validation_without_attribute_error(arg):
    res = validate(arg)
    assert not res
    assert res.detail == f"not a partition: {type(arg).__name__}"
    with pytest.raises(ValueError, match="not a partition"):
        phi_inverse(arg)


@pytest.mark.parametrize(
    "p",
    [
        LSPartition(1, None, frozenset()),
        LSPartition(1, (5,), frozenset()),
        LSPartition(None, (), None),
        LSPartition(1, (frozenset({(1, False), "x"}),), frozenset()),
    ],
)
def test_repr_of_a_malformed_partition_lists_its_fields(p):
    assert repr(p) == f"LSPartition(n={p.n!r}, boxes={p.boxes!r}, zero_box={p.zero_box!r})"


def test_partition_record_compares_hashes_and_prints_as_the_dataclass_did():
    ps = list(enumerate_partitions(3)) + [
        LSPartition(0, (), frozenset()),
        LSPartition(1, (), frozenset({(1, False), (1, True)})),
        parse(WORKED),
    ]
    refs = [LSPartitionDataclass(p.n, p.boxes, p.zero_box) for p in ps]
    for p, ref in zip(ps, refs):
        assert repr(p) == repr(ref)
        assert hash(p) == hash(ref)
        assert p == LSPartition(p.n, tuple(p.boxes), frozenset(p.zero_box))
        assert p != ref and p != (p.n, p.boxes, p.zero_box)
        for q, ref_q in zip(ps, refs):
            assert (p == q) == (ref == ref_q) and (p != q) == (ref != ref_q)


def test_partition_fields_are_read_only():
    p = parse(WORKED)
    for name in ("n", "boxes", "zero_box", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == parse(WORKED)


def test_a_partition_survives_pickle_copy_and_match():
    p = parse(WORKED)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and hash(twin) == hash(p) and twin.__class__ is LSPartition
    matched = None
    match p:
        case LSPartition(n, boxes, zero):
            matched = (n, boxes, zero)
    assert matched == (5, p.boxes, p.zero_box)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_partitions(2.5),
        lambda: enumerate_partitions(True),
        lambda: js_brute(3, "a"),
        lambda: js_brute(3.0, 1),
        lambda: js_brute(3, True),
    ],
    ids=[
        "enumerate_partitions-float",
        "enumerate_partitions-bool",
        "js_brute-str-k",
        "js_brute-float-n",
        "js_brute-bool-k",
    ],
)
def test_enumeration_entry_points_reject_non_int_arguments(call):
    with pytest.raises(ValueError, match="must be ints"):
        call()


@pytest.mark.parametrize("n", [0, ENUM_LIMIT + 1])
def test_js_brute_rejects_a_length_past_the_enumeration_cap(n):
    with pytest.raises(ValueError, match=rf"js_brute: n must be in 1\.\.{ENUM_LIMIT}, got {n}"):
        js_brute(n, 1)


def _rule(res):
    """The ok flag and the rule prefix of a failure detail."""
    return (bool(res), None if res else res.detail.split(":")[0])


def test_validate_agrees_with_sorting_reference_on_every_partition():
    for n in range(1, 6):
        for p in enumerate_partitions(n):
            assert _rule(validate(p)) == _rule(validate_by_sorting(p)) == (True, None)


def test_validate_agrees_with_sorting_reference_on_every_set_partition():
    # every way to split the ground set into a zero box and nonzero boxes,
    # with the boxes in increasing and in decreasing order of their minima
    rules = set()
    for n in range(1, 4):
        for p in _candidates(n):
            for q in (p, LSPartition(n, p.boxes[::-1], p.zero_box)):
                got = _rule(validate(q))
                assert got == _rule(validate_by_sorting(q)), q
                rules.add(got[1])
    assert rules == {None, "r1", "r2", "standard-form"}


def test_validate_messages_match_sorting_reference_on_every_set_partition():
    for n in range(1, 4):
        for p in _candidates(n):
            for q in (p, LSPartition(n, p.boxes[::-1], p.zero_box)):
                assert validate(q).detail == validate_by_sorting(q).detail, q


@lru_cache(maxsize=None)
def _valid(n):
    return tuple(enumerate_partitions(n))


@st.composite
def perturbed_partitions(draw):
    """A valid partition with one element moved, dropped, duplicated or out of
    range, or with two boxes (the zero box among them) swapped."""
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from(_valid(n)))
    boxes = [set(b) for b in p.boxes] + [set(p.zero_box)]  # zero box last
    elements = sorted(e for b in boxes for e in b)
    kind = draw(st.sampled_from(["move", "drop", "duplicate", "swap", "out_of_range"]))
    if kind == "swap":
        i = draw(st.integers(0, len(boxes) - 1))
        j = draw(st.integers(0, len(boxes) - 1))
        boxes[i], boxes[j] = boxes[j], boxes[i]
    elif kind == "out_of_range":
        e = (draw(st.sampled_from([-1, 0, n + 1, n + 2])), draw(st.booleans()))
        boxes[draw(st.integers(0, len(boxes) - 1))].add(e)
    else:
        e = draw(st.sampled_from(elements))
        home = next(i for i, b in enumerate(boxes) if e in b)
        if kind != "duplicate":
            boxes[home].discard(e)
        if kind != "drop":
            # len(boxes) stands for a new singleton box before the zero box
            dest = draw(st.integers(0, len(boxes)).filter(lambda i: i != home))
            if dest == len(boxes):
                boxes.insert(-1, {e})
            else:
                boxes[dest].add(e)
    return LSPartition(n, tuple(frozenset(b) for b in boxes[:-1]), frozenset(boxes[-1]))


@settings(max_examples=300)
@given(perturbed_partitions())
def test_validate_messages_match_sorting_reference_on_perturbations(p):
    assert validate(p).detail == validate_by_sorting(p).detail


@settings(max_examples=300)
@given(perturbed_partitions())
def test_validate_and_phi_inverse_agree_with_references_on_perturbations(p):
    expected = validate_by_sorting(p)
    assert _rule(validate(p)) == _rule(expected)
    if expected:
        assert phi_inverse(p) == phi_inverse_by_scanning(p)
    else:
        with pytest.raises(ValueError):
            phi_inverse(p)


# -- enumeration ------------------------------------------------------------------


def test_every_enumerated_partition_is_valid_and_round_trips():
    for n in range(1, 6):
        seen = set()
        for p in enumerate_partitions(n):
            assert validate(p), validate(p).detail
            text = p.render()
            assert text not in seen
            seen.add(text)
            assert parse(text) == p


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]


def _candidates(n):
    """Every set partition of {1,1',...,n,n'} plus a zero-box marker, as an
    LSPartition with its nonzero boxes sorted by minima."""
    marker = (0, False)
    items = [marker] + [(v, barred) for v in range(1, n + 1) for barred in (False, True)]
    for blocks in _set_partitions(items):
        zero = next(b for b in blocks if marker in b)
        boxes = sorted((frozenset(b) for b in blocks if b is not zero), key=min)
        yield LSPartition(n, tuple(boxes), frozenset(zero) - {marker})


def _brute_partitions(n):
    """The candidates that pass validate."""
    return (p for p in _candidates(n) if validate(p))


def test_enumeration_matches_definition_level_brute_force():
    for n in range(1, 5):
        brute = list(_brute_partitions(n))
        assert len(brute) == len(set(brute)) == sum(ls(n, k) for k in range(1, n + 1))
        assert set(brute) == set(enumerate_partitions(n))


def test_enumeration_limit_guard():
    with pytest.raises(ValueError):
        enumerate_partitions(ENUM_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_partitions(0)


# -- zero-box statistic --------------------------------------------------------------


def test_zero_box_statistic_polynomial_matches_bivariate_triangle():
    for n in range(1, 6):
        for k in range(0, n + 1):
            assert js_brute(n, k) == js(n, k)


def test_zero_box_statistic_counts_add_up():
    # evaluating the statistic polynomial at 1 forgets the statistic
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert js_brute(n, k).eval(1) == ls(n, k)


def test_zero_box_statistic_small_case_by_hand():
    # n=2, k=1 leaves exactly two shapes: {1,1',2}<2'> and {1,1',2'}<2>
    # ({1,1',2,2'}<> doubles a non-minimum, {1,1'}<2,2'> doubles inside the
    # zero box).  Barred-in-zero-box counts 1 and 0 give 1 + z.
    assert js_brute(2, 1) == Poly((1, 1))
