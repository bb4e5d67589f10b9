"""The report writer, reports.canonical_json, against the json call it
replaces: json.dumps(value, sort_keys=True, indent=2), byte for byte, on
any document of str keys and JSON values, and a TypeError on anything
else."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermimass.reports import _JOIN_SLICE, canonical_json

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

SPECIAL_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
    -1e308, sys.float_info.max, 1e-16, 0.1, 1e16, 123456789.0,
])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
# quotes, backslashes, control characters and non-ASCII text
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f é€𝄞')))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200), FLOATS, TEXT,
)
# lists of floats only, the writer's one-join path, with and without NaN
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_LISTS = st.lists(FLOATS, max_size=12) | st.lists(FINITE, min_size=1, max_size=12)
DOCUMENTS = st.recursive(
    SCALARS | FLOAT_LISTS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


@PROPERTY
@given(DOCUMENTS)
def test_writer_equals_json_dumps(doc):
    assert canonical_json(doc) == dumps(doc)


@PROPERTY
@given(st.lists(st.one_of(FLOATS, st.integers(), st.booleans()), max_size=12))
def test_mixed_float_int_bool_lists(items):
    assert canonical_json(items) == dumps(items)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", {"": []}, {"a": {}, "b": [[], {}]}, [[[]]],
    [math.nan, math.inf, -math.inf], [1.0, math.nan], [-0.0, 5e-324, 1e308],
    [1.0, 2, True, None, "x"], [True, False], [0, -1, 10 ** 40], {"é\"\n": "\x00€"},
    {"b": 1, "a": 2, "B": 3, "": 4, "aa": 5}, np.arange(5, dtype=float).tolist(),
    # a float subclass is written by float's repr, as json does
    [np.float64(0.1), np.float64(math.nan)], np.float64(2.5),
    # longer than one join slice, with a NaN, an int or a str in the last slice
    [0.5] * _JOIN_SLICE + [0.1], [0.5] * _JOIN_SLICE + [math.nan],
    [0.5] * _JOIN_SLICE + [1], [0.5] * _JOIN_SLICE + ["x"],
])
def test_edge_documents(doc):
    assert canonical_json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    np.int64(3), [np.int64(3)], {"a": np.int64(3)}, [1.0, np.int64(3)], np.bool_(True),
    {1: "a"}, {"a": {2.0: 1}}, {None: 1}, {("a",): 1}, {1, 2}, b"bytes", object(),
    np.array([1.0, 2.0]), [0.5] * _JOIN_SLICE + [np.int64(3)],
])
def test_numpy_integers_other_objects_and_non_str_keys_raise(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)
