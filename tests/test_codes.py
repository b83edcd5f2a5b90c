"""Insertion codes: parsing, validation, counting, and the partition bijection."""
import hashlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_impl import (
    codes_level_by_level,
    parse_code_by_scanning,
    phi_inverse_by_scanning,
    validate_code_rule_by_rule,
)
from strategies import JSON_LIKE

import lstirling
from lstirling import codes, partitions
from lstirling.codes import (
    A,
    B,
    Bb,
    X,
    count_codes,
    enumerate_codes,
    parse_code,
    phi,
    phi_inverse,
    render_code,
    validate_code,
)
from lstirling.partitions import ENUM_LIMIT, enumerate_partitions
from lstirling.triangles import ls

WORKED_TEXT = "X,X,A(2,1),B(2),Bb(1)"
WORKED_PARTITION = "{1,1',3',5'}{2,2',3,4}<4',5>"


def test_symbol_constructors_validate_their_arguments():
    assert A(2, 1) == ("A", 2, 1)
    assert B(3) == ("B", 3)
    assert Bb(1) == ("Bb", 1)
    with pytest.raises(ValueError):
        A(0, 1)
    with pytest.raises(ValueError):
        A(1, 0)
    with pytest.raises(ValueError):
        A(1, 1)  # the two destination boxes must differ
    with pytest.raises(ValueError):
        B(0)
    with pytest.raises(ValueError):
        Bb(-1)


@pytest.mark.parametrize("bad", ["2", 2.5, None, True])
@pytest.mark.parametrize(
    "make",
    [lambda v: A(v, 2), lambda v: A(1, v), B, Bb],
    ids=["A-i", "A-j", "B", "Bb"],
)
def test_symbol_constructors_reject_a_non_int_box_index(make, bad):
    with pytest.raises(ValueError, match="must be ints"):
        make(bad)


def test_parse_and_render_round_trip():
    code = parse_code(WORKED_TEXT)
    assert code == (X, X, A(2, 1), B(2), Bb(1))
    assert render_code(code) == WORKED_TEXT
    assert code.count(X) == 2


@pytest.mark.parametrize("text", ["X,B(\uff11)", "X,X,A(\u0661,2)", "X,X,A(2,\u0661)", "X,Bb(\u0967)"])
def test_parse_rejects_a_non_ascii_digit(text):
    # \d would read these digits as 1, and render_code of the code would not give the text back
    with pytest.raises(ValueError, match="bad code token"):
        parse_code(text)
    ascii_text = text.translate({0xFF11: "1", 0x0661: "1", 0x0967: "1"})
    assert render_code(parse_code(ascii_text)) == ascii_text


def test_parse_tolerates_spaces():
    assert parse_code("X, X, A(2,1)") == (X, X, A(2, 1))


def test_parse_rejects_garbage_with_position():
    with pytest.raises(ValueError):
        parse_code("X,Q")
    with pytest.raises(ValueError):
        parse_code("X,A(2;1)")
    with pytest.raises(ValueError):
        parse_code("")
    for text in (",", " , ", None, 12, b"X", ["X"]):
        with pytest.raises(ValueError):
            parse_code(text)


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="XABb(),0123456789 ", max_size=40),
        JSON_LIKE,
    )
)
def test_parse_code_returns_or_raises_value_error_only(text):
    try:
        code = parse_code(text)
    except ValueError:
        return
    assert isinstance(code, tuple) and code


def test_validate_requires_leading_x():
    res = validate_code((B(1),))
    assert not res
    assert "first" in res.detail or "position 1" in res.detail


def test_validate_bounds_indices_by_prefix_x_count():
    # after one X, no second box exists yet
    assert not validate_code((X, A(2, 1)))
    assert not validate_code((X, A(1, 2)))
    assert not validate_code((X, B(2)))
    assert not validate_code((X, Bb(2)))
    assert validate_code((X, B(1)))
    assert validate_code((X, Bb(1)))
    assert validate_code((X, X))
    assert validate_code((X, X, A(1, 2)))
    assert validate_code((X, X, A(2, 1)))


@pytest.mark.parametrize(
    "code, detail",
    [
        pytest.param((X, X, B(3)), "position 3: box index 3 exceeds the 2 boxes opened", id="B-after-two"),
        pytest.param((X, B(2), X), "position 2: box index 2 exceeds the 1 boxes opened", id="later-X-uncounted"),
        pytest.param((X, X, X, A(4, 1)), "position 4: box index 4 exceeds the 3 boxes opened", id="A-after-three"),
        pytest.param((X, B(1), X, Bb(5), X), "position 4: box index 5 exceeds the 2 boxes opened", id="Bb-between-X"),
    ],
)
def test_an_out_of_range_index_names_the_boxes_open_before_it(code, detail):
    # only the X symbols before the rejected position open boxes
    res = validate_code(code)
    assert (res.ok, res.detail) == (False, detail)


def test_bool_box_indices_are_rejected():
    # True == 1, so without a type check ("B", True) would replay as B(1)
    res = validate_code((X, ("B", True)))
    assert not res
    assert res.detail == "position 2: box index True is a bool, not an int"
    assert not validate_code((X, X, ("A", 2, True)))
    assert not validate_code((X, ("Bb", False)))
    with pytest.raises(ValueError):
        phi((X, ("B", True)))
    for make, args in ((A, (True, 2)), (A, (2, True)), (B, (True,)), (Bb, (True,)), (B, ("1",))):
        with pytest.raises(ValueError):
            make(*args)


@st.composite
def valid_codes(draw, max_len=8):
    """A legal code: each step picks one of the t^2 + t + 1 symbols open to it."""
    code, t = [X], 1
    for _ in range(draw(st.integers(0, max_len - 1))):
        r = draw(st.integers(0, t * t + t))
        if r == 0:
            code.append(X)
            t += 1
        elif r <= t * (t - 1):
            i, j = divmod(r - 1, t - 1)
            code.append(A(i + 1, j + 1 + (j >= i)))
        elif r <= t * t:
            code.append(B(r - t * (t - 1)))
        else:
            code.append(Bb(r - t * t))
    return tuple(code)


@st.composite
def perturbed_codes(draw):
    """A legal code with one or two symbols spoiled: a bool, float, zero or
    too-large box index, equal A indices, a wrong arity, an unknown tag, or a
    symbol that is not a tuple; sometimes handed over as a list."""
    code = list(draw(valid_codes()))
    legal = tuple(code)
    for pos in draw(st.lists(st.integers(0, len(code) - 1), min_size=1, max_size=2, unique=True)):
        sym = code[pos]
        t = legal[:pos].count(X)
        tag, idxs = (sym[0], list(sym[1:])) if sym != X else (draw(st.sampled_from(["A", "B", "Bb"])), [1, 2])
        idxs = idxs[: 2 if tag == "A" else 1]
        kind = draw(st.sampled_from(["bool", "float", "zero", "too_large", "equal", "arity", "tag", "non_tuple"]))
        k = draw(st.integers(0, len(idxs) - 1))
        if kind == "bool":
            idxs[k] = draw(st.booleans())
        elif kind == "float":
            idxs[k] = float(idxs[k])
        elif kind == "zero":
            idxs[k] = 0
        elif kind == "too_large":
            idxs[k] = t + draw(st.integers(1, 3))
        elif kind == "equal":
            tag, idxs = "A", [idxs[0], idxs[0]]
        elif kind == "arity":
            idxs = idxs + [1] if draw(st.booleans()) else idxs[:-1]
            tag = draw(st.sampled_from([tag, "X"]))
        elif kind == "tag":
            tag = draw(st.sampled_from(["C", "b", "x", "AB", None, 1]))
        new = (tag, *idxs)
        if kind == "non_tuple":
            new = draw(st.sampled_from([list(new), render_code((sym,)), None, 1, ()]))
        code[pos] = new
    return code if draw(st.booleans()) else tuple(code)


@settings(max_examples=300)
@given(st.one_of(valid_codes(), perturbed_codes(), st.sampled_from([(), [], None, "", "X"])))
@example((("A", 1),))  # a malformed symbol at position 1 is reported as not X
@example((("B", 1, 2), X))
@example((X, ("A", True, 1)))  # equal indices are reported before a bool
@example((X, X, ("A", 2, True)))
@example((X, ("Bb", 1.0)))
def test_validate_code_agrees_with_rule_by_rule_reference(code):
    got, want = validate_code(code), validate_code_rule_by_rule(code)
    assert (got.ok, got.detail) == (want.ok, want.detail)
    if want.ok:
        assert phi(code) == phi(tuple(code))
    else:
        with pytest.raises(ValueError) as err:
            phi(code)
        assert str(err.value) == f"phi: invalid code ({want.detail})"


def _outcome(fn, text):
    try:
        return "ok", fn(text)
    except ValueError as err:
        return "error", str(err)


@st.composite
def perturbed_code_texts(draw):
    """The rendering of a legal code, then a few edits: a character inserted,
    deleted or replaced, separators changed or dropped, an index zeroed,
    stretched or written in other digits, or whitespace around the text."""
    text = render_code(draw(valid_codes()))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "separators", "index", "pad"]))
        pos = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:pos] + draw(st.sampled_from(list("XABb(),0123456789 \t;'"))) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1 :]
        elif kind == "replace":
            text = text[:pos] + draw(st.sampled_from(list("XABb(),019 \n"))) + text[pos + 1 :]
        elif kind == "separators":
            text = text.replace(",", draw(st.sampled_from(["", " ", ", ,", " , ", ",,"])))
        elif kind == "index":
            digits = [m.start() for m in re.finditer(r"\d", text)]
            if digits:
                at = draw(st.sampled_from(digits))
                text = text[:at] + draw(st.sampled_from(["0", "00", "12", "\u0661", "9" * 30])) + text[at + 1 :]
        else:
            text = draw(st.sampled_from([" ", "\t", "\n", ","])) + text + draw(st.sampled_from(["", " ", "\n", ",", " ,"]))
    return text


@settings(max_examples=300)
@given(st.one_of(valid_codes().map(render_code), perturbed_code_texts(), st.text(alphabet="XABb(),0123456789 ", max_size=30)))
@example("X, ,")  # trailing separators
@example(" X,,A(1,2) ,\tB(1)")
@example("X,B(0),Q")  # a bad index before a bad token is reported first
def test_parse_code_agrees_with_scanning_reference(text):
    assert _outcome(parse_code, text) == _outcome(parse_code_by_scanning, text)


_INDEX = st.integers(1, 10**30)


@st.composite
def well_formed_codes(draw):
    """A code of known symbols with any positive box indices, so mostly out
    of range for the boxes opened before them."""
    symbol = st.one_of(
        st.just(X),
        st.tuples(_INDEX, _INDEX).filter(lambda ij: ij[0] != ij[1]).map(lambda ij: A(*ij)),
        _INDEX.map(B),
        _INDEX.map(Bb),
    )
    return tuple(draw(st.lists(symbol, min_size=1, max_size=8)))


@given(st.one_of(valid_codes(), well_formed_codes()))
def test_parse_code_inverts_render_code(code):
    assert parse_code(render_code(code)) == code


def test_a_rejected_token_raises_on_every_parse():
    # the token cache keeps symbols only, never a constructor's error
    for _ in range(2):
        with pytest.raises(ValueError, match="A\\(i,j\\) requires distinct box indices"):
            parse_code("X,A(1,1)")
        with pytest.raises(ValueError, match="B\\(s\\) box index starts at 1"):
            parse_code("X,B(0)")


def test_render_code_rejects_what_is_not_a_code_with_value_error():
    with pytest.raises(ValueError, match="int object is not iterable"):
        render_code(5)
    for sym in (("Q",), ("B",), ("A", 1), ("X", 1), ("Bb", 1, 2), (), ["B", 1], "X", None):
        with pytest.raises(ValueError, match="unknown symbol"):
            render_code([X, sym])
    assert render_code(iter([X, B(1)])) == "X,B(1)"
    assert render_code(sym for sym in (X, X, A(2, 1))) == "X,X,A(2,1)"
    assert render_code(()) == "" and render_code(None) == ""


def test_render_code_renders_a_well_formed_illegal_code():
    # the bijection sweep names an illegal code by its rendering
    assert render_code((X, ("B", 0), ("A", 3, 3), ("Bb", True))) == "X,B(0),A(3,3),Bb(True)"


def test_phi_rejects_invalid_codes():
    with pytest.raises(ValueError):
        phi((X, A(2, 1)))
    with pytest.raises(ValueError):
        phi((B(1),))


def test_an_empty_iterator_is_an_empty_code():
    assert (validate_code(iter(())).ok, validate_code(iter(())).detail) == (False, "position 1: empty code")
    with pytest.raises(ValueError, match="position 1: empty code"):
        phi(iter(()))


def test_a_generator_of_symbols_replays_as_its_tuple():
    code = parse_code(WORKED_TEXT)
    assert validate_code(sym for sym in code).ok
    assert phi(sym for sym in code) == phi(code)
    assert phi(iter([X, X])) == phi((X, X))


@pytest.mark.parametrize("code", [5, 2.5, object()])
def test_a_non_iterable_code_fails_without_type_error(code):
    v = validate_code(code)
    assert not v.ok
    assert "not iterable" in v.detail
    with pytest.raises(ValueError, match="not iterable"):
        phi(code)


def test_a_type_error_inside_a_generator_code_propagates():
    def broken():
        yield X
        raise TypeError("bad symbol source")

    with pytest.raises(TypeError, match="bad symbol source"):
        validate_code(broken())
    with pytest.raises(TypeError, match="bad symbol source"):
        phi(broken())


def test_worked_example_maps_to_worked_partition():
    p = phi(parse_code(WORKED_TEXT))
    assert p.render() == WORKED_PARTITION


def test_worked_example_inverse():
    from lstirling.partitions import parse

    assert render_code(phi_inverse(parse(WORKED_PARTITION))) == WORKED_TEXT


def test_round_trip_partition_to_code_to_partition():
    for n in range(1, 6):
        for p in enumerate_partitions(n):
            code = phi_inverse(p)
            assert validate_code(code), render_code(code)
            assert phi(code) == p


def test_round_trip_code_to_partition_to_code():
    for n in range(1, 6):
        for code in enumerate_codes(n):
            assert phi_inverse(phi(code)) == code


def test_phi_inverse_agrees_with_scanning_reference():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            assert phi_inverse(p) == phi_inverse_by_scanning(p)


def test_enumeration_order_of_codes_is_stable():
    digest = hashlib.sha256()
    for n in range(1, 7):
        for code in enumerate_codes(n):
            digest.update(render_code(code).encode() + b"\n")
    assert digest.hexdigest() == "6f4bdaccc20cacd56eeeaf1e9a7d1d5560510bc5e3bc86fbc17006e33223cc07"


@pytest.mark.parametrize("n", range(1, ENUM_LIMIT + 1))
def test_the_walk_yields_each_code_with_its_image_under_phi(n):
    # every image the enumeration sweeps read is phi's, and the codes come in
    # the order that test_enumeration_order_of_codes_is_stable pins
    assert list(codes._walk(n)) == [(code, phi(code)) for code in codes_level_by_level(n)]


def test_enumerated_codes_are_valid_and_counted_by_x_symbols():
    for n in range(1, 6):
        histogram: dict = {}
        for code in enumerate_codes(n):
            assert len(code) == n
            assert validate_code(code)
            histogram[code.count(X)] = histogram.get(code.count(X), 0) + 1
        assert histogram == {k: ls(n, k) for k in range(1, n + 1) if ls(n, k)}


def test_count_codes_matches_triangle():
    for n in range(1, 9):
        for k in range(0, n + 1):
            assert count_codes(n, k) == ls(n, k)


@pytest.mark.parametrize("n", [0, -1])
def test_count_codes_rejects_a_length_below_one(n):
    with pytest.raises(ValueError, match="count_codes: n must be at least 1"):
        count_codes(n, 1)


def test_count_codes_agrees_with_exhaustive_enumeration():
    for n in range(1, 6):
        by_x: dict = {}
        for code in enumerate_codes(n):
            by_x[code.count(X)] = by_x.get(code.count(X), 0) + 1
        for k in range(0, n + 2):
            assert count_codes(n, k) == by_x.get(k, 0)


def test_enumerate_codes_guard():
    with pytest.raises(ValueError):
        enumerate_codes(0)
    with pytest.raises(ValueError):
        enumerate_codes(99)


@pytest.mark.parametrize("n", [True, 3.0, "3", None])
def test_enumerate_codes_rejects_a_non_int_length(n):
    with pytest.raises(ValueError, match="must be ints"):
        enumerate_codes(n)


def test_enumerated_codes_are_distinct():
    # the bijection sweep counts its codes but does not check that they differ
    for n in range(1, 7):
        seen = list(enumerate_codes(n))
        assert len(set(seen)) == len(seen) == sum(ls(n, k) for k in range(1, n + 1))


def test_a_code_longer_than_the_element_pair_table_replays_without_growing_it():
    size = len(codes._PAIRS)
    code = (X, X) + (A(1, 2), B(2), Bb(1), X) * (size // 4 + 2)
    assert len(code) > size
    p = phi(code)
    m = len(code)
    assert p.n == m and len(p.boxes) == code.count(X)
    assert p.boxes[-1] == frozenset({(m, False), (m, True)})
    assert phi_inverse(p) == code
    assert len(codes._PAIRS) == size


def test_every_producer_hands_out_the_shared_symbols():
    # the walk, phi_inverse and parse_code give one object per symbol, and
    # the constructors give the walk's
    assert lstirling.X is partitions._X is X
    for n in range(1, 6):
        for code in enumerate_codes(n):
            for decoded in (phi_inverse(phi(code)), parse_code(render_code(code))):
                assert decoded == code
                assert all(x is y for x, y in zip(code, decoded))
    assert A(2, 1) is A(2, 1) is partitions._SYMBOLS[2][1]
    assert B(3) is B(3) is partitions._SYMBOLS[3][0] and Bb(1) is Bb(1) is partitions._SYMBOLS[0][1]


def test_a_code_past_the_symbol_table_round_trips_without_growing_it():
    bound = len(partitions._SYMBOLS) - 1
    code = (X,) * (bound + 2) + (A(bound + 2, 1), A(1, bound + 1), B(bound + 2), Bb(bound + 1), A(2, 3))
    assert code.count(X) == 66 > bound
    decoded = phi_inverse(phi(code))
    assert decoded == code and decoded is not code
    assert parse_code(render_code(code)) == code
    # symbols within the bound are shared, those past it are equal but fresh
    assert decoded[-1] is A(2, 3) and decoded[-5] is not A(bound + 2, 1)
    assert len(partitions._SYMBOLS) == bound + 1 == 65
    assert all(len(row) == bound + 1 for row in partitions._SYMBOLS)
