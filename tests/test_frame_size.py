"""A crossing's frame length, counted without building the frame.

``frame_size(v)`` is ``len(serialize(v))`` and ``batch_frame_size(vs, k)``
is ``len(serialize_batch(vs, kind=k))``: on every golden wire vector,
on values of every kind at their edges and nested to depth 3, and in
what both refuse, with the same exception type. The one difference is
an element value an array took when it was built: a ``float`` element
past binary32 is sized, while ``serialize`` refuses to write it.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalingError
from repro.values import (
    KIND_BIT,
    KIND_BOOLEAN,
    KIND_DOUBLE,
    KIND_FLOAT,
    KIND_INT,
    KIND_LONG,
    Bit,
    EnumValue,
    MutableArray,
    ValueArray,
    array_kind,
    batch_frame_size,
    deserialize,
    deserialize_batch,
    enum_kind,
    frame_size,
    serialize,
    serialize_batch,
)
from repro.values.marshal import TAG_BATCH, _decode_element_kind

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "wire")
INT_MIN, INT_MAX = -(2**31), 2**31 - 1
LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _same_size(value):
    want = _outcome(lambda v: len(serialize(v)), value)
    assert _outcome(frame_size, value) == want, value


def _same_batch_size(values, kind):
    want = _outcome(lambda: len(serialize_batch(values, kind=kind)))
    assert _outcome(batch_frame_size, values, kind) == want, (values, kind)


@pytest.mark.parametrize(
    "name", sorted(n[:-4] for n in os.listdir(GOLDEN_DIR) if n.endswith(".hex"))
)
def test_every_golden_vector_is_sized_to_its_length(name):
    with open(os.path.join(GOLDEN_DIR, name + ".hex")) as handle:
        text = "".join(
            line for line in handle if not line.lstrip().startswith("#")
        )
    data = bytes.fromhex("".join(text.split()))
    if data[0] == TAG_BATCH:
        kind, _ = _decode_element_kind(data, 1)
        values = deserialize_batch(data)
        assert batch_frame_size(values, kind) == len(data)
        assert batch_frame_size(ValueArray(kind, values), kind) == len(data)
    else:
        assert frame_size(deserialize(data)) == len(data)


# -- values of every kind -----------------------------------------------------

_COLOR = enum_kind("color", 5)


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308,
                1.5, 1e300]
_EDGE_FLOAT32 = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-45,
                 1.1754942e-38, 3.4028234663852886e38, 1.5]

#: kind -> elements of it: hypothesis' plus the edges.
_ELEMENTS = {
    KIND_INT: st.one_of(st.sampled_from([0, -1, INT_MIN, INT_MAX]),
                        st.integers(INT_MIN, INT_MAX)),
    KIND_LONG: st.one_of(st.sampled_from([LONG_MIN, LONG_MAX, INT_MAX + 1]),
                         st.integers(LONG_MIN, LONG_MAX)),
    KIND_DOUBLE: st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
    KIND_FLOAT: st.one_of(
        st.sampled_from(_EDGE_FLOAT32),
        st.floats(width=32),
    ),
    KIND_BOOLEAN: st.booleans(),
    KIND_BIT: st.sampled_from([Bit(0), Bit(1)]),
    _COLOR: st.integers(0, 4).map(lambda i: EnumValue("color", i, 5)),
}


def _arrays(depth):
    """``(kind, strategy of ValueArrays of that kind)`` nested ``depth``
    deep below scalar or enum elements."""
    pairs = [(kind, st.lists(elements, max_size=20).map(
        lambda items, kind=kind: ValueArray(kind, items)
    )) for kind, elements in _ELEMENTS.items()]
    for _ in range(depth):
        pairs = [(array_kind(kind), st.lists(arrays, max_size=4).map(
            lambda items, kind=kind: ValueArray(array_kind(kind), items)
        )) for kind, arrays in pairs]
    return pairs


_ALL_ARRAYS = [pair for depth in range(3) for pair in _arrays(depth)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    *_ELEMENTS.values(),
    st.integers(LONG_MIN - 5, LONG_MAX + 5),
    *(arrays for _, arrays in _ALL_ARRAYS),
))
def test_a_value_is_sized_as_serialize_writes_it(value):
    _same_size(value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(_ALL_ARRAYS))).flatmap(
    lambda i: st.tuples(st.just(_ALL_ARRAYS[i][0]), _ALL_ARRAYS[i][1])
))
def test_a_batch_is_sized_as_serialize_batch_writes_it(case):
    kind, array = case
    _same_batch_size(array, kind.element)       # a ValueArray: its shape
    _same_batch_size(list(array), kind.element)  # a list: each checked
    _same_batch_size(array, kind)                # the wrong kind


def test_an_array_of_another_kind_is_sized_element_by_element():
    _same_batch_size(ValueArray(KIND_INT, [1, INT_MIN]), KIND_LONG)
    _same_batch_size(ValueArray(KIND_INT, [1, 2]), KIND_DOUBLE)
    _same_batch_size(MutableArray(KIND_BIT, [1, 0]), KIND_BIT)


def test_nesting_to_depth_three_is_sized():
    inner = ValueArray(KIND_BIT, [Bit(1)] * 9)
    value = ValueArray(array_kind(array_kind(KIND_BIT)), [
        ValueArray(array_kind(KIND_BIT), [inner, ValueArray(KIND_BIT, [])]),
        ValueArray(array_kind(KIND_BIT), []),
    ])
    _same_size(value)
    _same_batch_size([value, value], array_kind(value.element_kind))


# -- refusals -----------------------------------------------------------------


def _deep(depth):
    kind = KIND_INT
    for _ in range(depth):
        kind = array_kind(kind)
    return ValueArray(kind, [])


#: Values serialize refuses: a mutable array, non-values, integers no
#: long holds, a nameless enum, an enum name past 255 bytes and a kind
#: nested past 32.
REFUSED = [
    MutableArray(KIND_INT, [1]),
    MutableArray(array_kind(KIND_INT), []),
    "not a value",
    None,
    LONG_MAX + 1,
    LONG_MIN - 1,
    EnumValue("", 0, 1),
    EnumValue("n" * 256, 0, 1),
    EnumValue("big", 0, 300),
    ValueArray(enum_kind("n" * 256, 1), []),
    _deep(33),
]


@pytest.mark.parametrize("index", range(len(REFUSED)))
def test_frame_size_refuses_what_serialize_refuses(index):
    value = REFUSED[index]
    assert isinstance(_outcome(serialize, value), type)
    _same_size(value)


def test_a_kind_nested_32_deep_is_sized():
    # The value's kind is one array deeper than its element kind.
    assert frame_size(_deep(31)) == len(serialize(_deep(31)))


#: (values, kind) batches serialize_batch refuses: a wrong element
#: kind, an int out of range, a mutable element, an empty batch with no
#: kind, a long enum name and a kind nested past 32.
REFUSED_BATCHES = [
    ([1, True], KIND_INT),
    ([1.5], KIND_INT),
    ([INT_MAX + 1], KIND_INT),
    ([LONG_MIN - 1], KIND_LONG),
    ([Bit(1), 1], KIND_BIT),
    ([EnumValue("color", 0, 4)], _COLOR),
    ([MutableArray(KIND_INT, [1])], array_kind(KIND_INT)),
    ([ValueArray(KIND_LONG, [1])], array_kind(KIND_INT)),
    ([], None),
    ([1, "x"], None),
    ([], enum_kind("n" * 256, 1)),
    ([], _deep(33).element_kind),
]


@pytest.mark.parametrize("index", range(len(REFUSED_BATCHES)))
def test_batch_frame_size_refuses_what_serialize_batch_refuses(index):
    values, kind = REFUSED_BATCHES[index]
    assert isinstance(
        _outcome(lambda: serialize_batch(values, kind=kind)), type
    )
    _same_batch_size(values, kind)


def test_a_float_past_binary32_is_sized_but_not_written():
    array = ValueArray(KIND_FLOAT, [0.5, 1e39])
    with pytest.raises(MarshalingError, match="out of range for float"):
        serialize(array)
    assert frame_size(array) == len(serialize(ValueArray(KIND_FLOAT, [0.5, 1.0])))
    assert batch_frame_size(array, KIND_FLOAT) == len(
        serialize_batch([0.5, 1.0], kind=KIND_FLOAT)
    )
