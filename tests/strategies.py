"""Hypothesis strategies shared by the parser fuzz tests."""
from hypothesis import strategies as st

# JSON-like values, plus bytes, that a caller might hand a parser by mistake
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.binary(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
