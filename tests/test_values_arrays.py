"""Unit tests for value arrays ``T[[]]`` and ordinary arrays ``T[]``."""

import pytest

from repro.errors import ValueSemanticsError
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
    enum_kind,
    is_value,
    kind_of,
    parse_bit_literal,
    same_value,
)
from repro.values.arrays import _coerce_element


class TestValueArray:
    def test_construction_and_access(self):
        arr = ValueArray(KIND_INT, [1, 2, 3])
        assert arr.length == 3
        assert list(arr) == [1, 2, 3]
        assert arr[0] == 1 and arr[2] == 3

    def test_immutability(self):
        arr = ValueArray(KIND_INT, [1, 2, 3])
        with pytest.raises(TypeError):
            arr[0] = 9  # Sequence without __setitem__
        with pytest.raises(ValueSemanticsError):
            arr._items = ()

    def test_is_value(self):
        assert is_value(ValueArray(KIND_INT, [1]))
        assert not is_value(MutableArray(KIND_INT, [1]))

    def test_float_coercion(self):
        arr = ValueArray(KIND_FLOAT, [1, 2.5])
        assert arr[0] == 1.0 and isinstance(arr[0], float)

    def test_heterogeneous_rejected(self):
        with pytest.raises(ValueSemanticsError):
            ValueArray(KIND_INT, [1, "two"])
        with pytest.raises(ValueSemanticsError):
            ValueArray(KIND_INT, [1, True])

    def test_structural_equality_and_hash(self):
        a = ValueArray(KIND_INT, [1, 2])
        b = ValueArray(KIND_INT, [1, 2])
        c = ValueArray(KIND_INT, [2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_bit_array_repr_is_literal(self):
        arr = ValueArray(KIND_BIT, parse_bit_literal("100"))
        assert repr(arr) == "100b"

    def test_slice_returns_value_array(self):
        arr = ValueArray(KIND_INT, [1, 2, 3, 4])
        sub = arr[1:3]
        assert isinstance(sub, ValueArray)
        assert list(sub) == [2, 3]

    def test_map_paper_semantics(self):
        # mapFlip(100b) == 001b (Section 2.2).
        arr = ValueArray(KIND_BIT, parse_bit_literal("100"))
        flipped = arr.map(lambda b: ~b, KIND_BIT)
        assert repr(flipped) == "011b"
        # And the exact paper example: flipping every bit of 100b.
        assert flipped == ValueArray(KIND_BIT, parse_bit_literal("011"))

    def test_reduce(self):
        arr = ValueArray(KIND_INT, [1, 2, 3, 4])
        assert arr.reduce(lambda a, b: a + b) == 10

    def test_reduce_empty_rejected(self):
        with pytest.raises(ValueSemanticsError):
            ValueArray(KIND_INT, []).reduce(lambda a, b: a + b)

    def test_nested_value_arrays(self):
        inner_kind = KIND_INT
        outer = ValueArray(
            array_kind(inner_kind),
            [ValueArray(inner_kind, [1, 2]), ValueArray(inner_kind, [3])],
        )
        assert outer.length == 2
        assert outer[1][0] == 3

    def test_nested_mutable_frozen_on_insert(self):
        mutable = MutableArray(KIND_INT, [1, 2])
        outer = ValueArray(array_kind(KIND_INT), [mutable])
        mutable[0] = 99
        assert outer[0][0] == 1  # deep-frozen at construction

    def test_kind_of(self):
        assert kind_of(ValueArray(KIND_INT, [1])) == array_kind(KIND_INT)


class TestMutableArray:
    def test_allocate_defaults(self):
        arr = MutableArray.allocate(KIND_BIT, 4)
        assert arr.length == 4
        assert all(b is Bit.ZERO for b in arr)
        ints = MutableArray.allocate(KIND_INT, 2)
        assert list(ints) == [0, 0]

    def test_allocate_negative_rejected(self):
        with pytest.raises(ValueSemanticsError):
            MutableArray.allocate(KIND_INT, -1)

    def test_store_and_load(self):
        arr = MutableArray.allocate(KIND_INT, 3)
        arr[1] = 42
        assert arr[1] == 42

    def test_store_type_checked(self):
        arr = MutableArray.allocate(KIND_INT, 1)
        with pytest.raises(ValueSemanticsError):
            arr[0] = 1.5

    def test_freeze_is_deep_copy(self):
        arr = MutableArray(KIND_INT, [1, 2])
        frozen = arr.freeze()
        arr[0] = 99
        assert frozen[0] == 1

    def test_from_mutable_matches_figure1_line21(self):
        # new bit[[]](result) where result is a bit[].
        result = MutableArray(KIND_BIT, parse_bit_literal("011"))
        frozen = ValueArray.from_mutable(result)
        assert repr(frozen) == "011b"

    def test_thaw_roundtrip(self):
        original = ValueArray(KIND_INT, [5, 6])
        thawed = original.thaw()
        thawed[0] = 7
        assert original[0] == 5
        assert thawed.freeze() == ValueArray(KIND_INT, [7, 6])


class _Int(int):
    """An int subclass: accepted by int kinds, never canonical."""


_COLOR = enum_kind("color", 3)
# (kind, good elements — canonical and not — two elements it rejects)
COERCION_CASES = {
    "int": (KIND_INT, [1, _Int(-2), 2**31 - 1, -(2**31)], (True, 2.5)),
    "long": (KIND_LONG, [2**40, -1, 2**63 - 1], ("7", None)),
    "float": (KIND_FLOAT, [1.5, 2, -0.0], (True, "x")),
    "double": (KIND_DOUBLE, [float("nan"), -3], (None, False)),
    "boolean": (KIND_BOOLEAN, [True, False], (1, 0.0)),
    "bit": (KIND_BIT, [Bit(0), 1, 0], (2, 2.0)),
    "enum": (_COLOR, [EnumValue("color", 1, 3)], (1, EnumValue("hue", 0, 3))),
    "array": (
        array_kind(KIND_INT),
        [ValueArray(KIND_INT, [1]), MutableArray(KIND_INT, [2])],
        (ValueArray(KIND_FLOAT, [1.0]), [1]),
    ),
}


def _coerced_one_by_one(kind, items):
    """What both array types built before the bulk path: one
    ``_coerce_element`` per element, in order."""
    try:
        return tuple(_coerce_element(kind, x) for x in items)
    except ValueSemanticsError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(COERCION_CASES))
@pytest.mark.parametrize("at", [0, 1, -1])
@pytest.mark.parametrize("array_type", [ValueArray, MutableArray])
def test_bulk_coercion_accepts_and_rejects_as_one_by_one(case, at, array_type):
    kind, good, (bad, later) = COERCION_CASES[case]
    at = len(good) if at == -1 else at
    for items in (good, good[:at] + [bad] + good[at:] + [later]):
        want = _coerced_one_by_one(kind, items)
        try:
            got = array_type(kind, items)
        except ValueSemanticsError as exc:
            assert str(exc) == want
            assert str(exc) == f"expected {kind} element, got {bad!r}"
        else:
            assert tuple(got) == want
            assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("kind, bound", [(KIND_INT, 31), (KIND_LONG, 63)])
@pytest.mark.parametrize("array_type", [ValueArray, MutableArray])
@pytest.mark.parametrize("wrap", [int, _Int])
def test_an_integral_element_out_of_range_is_refused(kind, bound, array_type,
                                                     wrap):
    # The element classes pass the bulk path; its min/max refuses, and
    # the error names the first element out of range.
    low, high = -(2**bound), 2**bound - 1
    assert list(array_type(kind, [wrap(low), wrap(high)])) == [low, high]
    for items in ([1, high + 1, low - 1], [low - 1, 1, high + 1]):
        items = [wrap(x) for x in items]
        first = next(x for x in items if not low <= x <= high)
        want = f"{kind} element {first!r} out of range"
        assert _coerced_one_by_one(kind, items) == want
        with pytest.raises(ValueSemanticsError) as err:
            array_type(kind, items)
        assert str(err.value) == want
    array = MutableArray(kind, [0])
    with pytest.raises(ValueSemanticsError, match="out of range"):
        array[0] = high + 1
    assert list(array) == [0]


def test_an_enum_element_of_another_size_is_refused():
    with pytest.raises(ValueSemanticsError, match="^expected enum color "):
        ValueArray(_COLOR, [EnumValue("color", 0, 4)])


def test_bulk_coercion_keeps_canonical_elements_and_copies_mutables():
    items = [1.5, -0.0, 2.25]
    assert all(a is b for a, b in zip(ValueArray(KIND_FLOAT, items), items))
    source = [1, 2]
    mutable = MutableArray(KIND_INT, source)
    mutable[0] = 9
    assert source == [1, 2]


class TestSameValue:
    """``same_value``: the bit-exact "same value" of shadow probes, the
    CLI, the service driver and fault injection."""

    def test_nan_is_the_same_as_nan(self):
        nan = float("nan")
        assert same_value(nan, float("nan"))
        assert same_value([nan], [float("nan")])
        assert same_value(
            ValueArray(KIND_FLOAT, [nan]), ValueArray(KIND_FLOAT, [nan * 2])
        )

    def test_signed_zeros_differ(self):
        assert not same_value(0.0, -0.0)
        assert not same_value([0.0], [-0.0])
        assert not same_value(0, -0.0)
        assert same_value(-0.0, -0.0)

    def test_containers_compare_class_kind_and_elements(self):
        ints = ValueArray(KIND_INT, [1, 2])
        assert same_value(ints, ValueArray(KIND_INT, [1, 2]))
        assert not same_value(ints, ValueArray(KIND_LONG, [1, 2]))
        assert not same_value(ints, MutableArray(KIND_INT, [1, 2]))
        assert same_value(
            MutableArray(KIND_INT, [1, 2]), MutableArray(KIND_INT, [1, 2])
        )
        assert not same_value([1, 2], [1])
        assert not same_value([1.0], 1.0)

    def test_scalars(self):
        assert same_value(None, None)
        assert same_value(3, 3.0)
        assert same_value(Bit(1), Bit(1))
        assert not same_value(Bit(1), Bit(0))
        assert not same_value(1.5, "1.5")

    def test_corrupting_a_nan_is_a_short_read(self):
        from repro.runtime.faults import _corrupt_outputs

        nan = float("nan")
        # NaN + 1.0 is NaN: the same value, so the batch loses an item.
        assert len(_corrupt_outputs([nan, 1.0])) == 1
        assert _corrupt_outputs([0.0, 1.0]) == [1.0, 1.0]
