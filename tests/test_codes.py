"""Insertion codes: parsing, validation, counting, and the partition bijection."""
import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_impl import phi_inverse_by_scanning
from strategies import JSON_LIKE

from lstirling.codes import (
    A,
    B,
    Bb,
    X,
    count_codes,
    enumerate_codes,
    n_x,
    parse_code,
    phi,
    phi_inverse,
    render_code,
    validate_code,
)
from lstirling.partitions import enumerate_partitions
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


def test_parse_and_render_round_trip():
    code = parse_code(WORKED_TEXT)
    assert code == (X, X, A(2, 1), B(2), Bb(1))
    assert render_code(code) == WORKED_TEXT
    assert n_x(code) == 2


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


def test_phi_rejects_invalid_codes():
    with pytest.raises(ValueError):
        phi((X, A(2, 1)))
    with pytest.raises(ValueError):
        phi((B(1),))


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


def test_enumerated_codes_are_valid_and_counted_by_x_symbols():
    for n in range(1, 6):
        histogram: dict = {}
        for code in enumerate_codes(n):
            assert len(code) == n
            assert validate_code(code)
            histogram[n_x(code)] = histogram.get(n_x(code), 0) + 1
        assert histogram == {k: ls(n, k) for k in range(1, n + 1) if ls(n, k)}


def test_count_codes_matches_triangle():
    for n in range(1, 9):
        for k in range(0, n + 1):
            assert count_codes(n, k) == ls(n, k)


def test_count_codes_agrees_with_exhaustive_enumeration():
    for n in range(1, 6):
        by_x: dict = {}
        for code in enumerate_codes(n):
            by_x[n_x(code)] = by_x.get(n_x(code), 0) + 1
        for k in range(0, n + 2):
            assert count_codes(n, k) == by_x.get(k, 0)


def test_enumerate_codes_guard():
    with pytest.raises(ValueError):
        list(enumerate_codes(0))
    with pytest.raises(ValueError):
        list(enumerate_codes(99))
