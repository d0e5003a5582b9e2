"""The indent-2 JSON writer: the bytes of json.dumps(value, indent=2) for the
value types that payloads hold, and TypeError for every other type.

The property compares against the json module of the interpreter that runs
the test, so each Python version checks the writer against its own encoder.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci.certkit import dumps_indented

# Quotes, backslashes, control characters, DEL, non-ASCII, the edge of the
# BMP and astral characters, mixed with plain text.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é �￿'),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
        st.characters(),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 64) + 1, max_value=2 ** 64 - 1),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    TEXT,
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_matches_json_dumps_indent_2(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


def test_empty_containers_and_scalars_at_top_level():
    for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[]], None, True,
                  False, 0, -2 ** 70, "", "\U0001f600"):
        assert dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), 0.5, float("nan"), {1: "a"}, {None: 1}, {("a",): 1},
     [1, {"x": 2.0}], {"a": [Fraction(3)]}, {1, 2}, b"bytes"],
)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps_indented(value)
