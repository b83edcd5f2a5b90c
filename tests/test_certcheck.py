"""The independent certificate checker: its own q_k, its sign rule, and hostile input."""
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lstirling import certcheck
from lstirling.realroots import conjecture_results, q_poly


def test_q_polys_from_the_ode_agree_with_the_gamma_recurrence():
    qs = certcheck.q_polys(20)
    assert qs[0] is None and qs[1] == [1] and qs[2] == [1, 8, 10]
    for k in range(1, 21):
        assert qs[k] == list(q_poly(k).coeffs), k


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8).filter(lambda cs: cs[-1] != 0),
    st.fractions(min_value=-3, max_value=3, max_denominator=64),
)
def test_sign_at_is_the_sign_of_the_value(cs, x):
    value = sum(c * x**i for i, c in enumerate(cs))
    assert certcheck.sign_at(cs, x) == (value > 0) - (value < 0)


_LINES = [json.dumps(r.to_json_dict()) for r in conjecture_results(3)]

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc):
    """Every (container, key) inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _paths(value)


def _check(text):
    # a verdict either way, but never a KeyError, TypeError or the like
    try:
        certcheck.check(text, 16)
    except (certcheck.MalformedCertificate, certcheck.InvalidCertificate):
        pass


@given(_json)
def test_any_json_line_raises_only_the_checker_errors(doc):
    _check(json.dumps(doc))


@given(st.integers(0, len(_LINES) - 1), st.data())
def test_a_certificate_with_one_value_replaced_raises_only_the_checker_errors(line, data):
    doc = json.loads(_LINES[line])
    container, key = data.draw(st.sampled_from(list(_paths(doc))))
    container[key] = data.draw(_json)
    lines = list(_LINES)
    lines[line] = json.dumps(doc)
    _check("\n".join(lines))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k", 3, "line 2 q_2: stated for q_3"),
        # the second interval of q_2 with its endpoints swapped
        ("intervals", [[[-11, 16], [-5, 8]], [[-1, 8], [-3, 16]]], "line 2 q_2: interval 1 is empty"),
    ],
    ids=["k", "empty-interval"],
)
def test_a_root_set_that_does_not_prove_its_own_polynomial_is_invalid(field, value, message):
    doc = json.loads(_LINES[1])
    doc["lower"][field] = value
    text = "\n".join([_LINES[0], json.dumps(doc), _LINES[2]])
    with pytest.raises(certcheck.InvalidCertificate, match=re.escape(message)):
        certcheck.check(text, 16)
