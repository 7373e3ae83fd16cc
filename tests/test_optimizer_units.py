"""Focused unit tests for the optimizer helpers and operator
semantics helpers shared between backends."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.ops import (
    apply_binary,
    apply_cast,
    apply_math,
    apply_unary,
    java_idiv,
    java_irem,
    to_float32,
    wrap_int,
    wrap_long,
)
from repro.compiler import CompileOptions, compile_program
from repro.errors import DeviceError, LiquidMetalError
from repro.ir.optimizations import fold_binary, fold_cast, fold_unary
from repro.lime import types as ty
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_INT, Bit, ValueArray


class TestWrapping:
    @given(st.integers(-(2**40), 2**40))
    def test_wrap_int_range(self, x):
        wrapped = wrap_int(x)
        assert -(2**31) <= wrapped < 2**31
        assert (wrapped - x) % (2**32) == 0

    @given(st.integers(-(2**70), 2**70))
    def test_wrap_long_range(self, x):
        wrapped = wrap_long(x)
        assert -(2**63) <= wrapped < 2**63
        assert (wrapped - x) % (2**64) == 0

    def test_identity_in_range(self):
        for x in (0, 1, -1, 2**31 - 1, -(2**31)):
            assert wrap_int(x) == x


class TestJavaDivision:
    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000).filter(lambda x: x != 0),
    )
    def test_idiv_truncates_toward_zero(self, a, b):
        assert java_idiv(a, b) == int(a / b)

    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000).filter(lambda x: x != 0),
    )
    def test_rem_sign_follows_dividend(self, a, b):
        r = java_irem(a, b)
        assert a == java_idiv(a, b) * b + r
        if r != 0:
            assert (r < 0) == (a < 0)


class TestFloat32:
    def test_roundtrip_exact_for_representable(self):
        for x in (0.0, 1.0, 0.5, -2.25, 1e10):
            assert to_float32(x) == x

    def test_truncates_precision(self):
        assert to_float32(0.1) != 0.1

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_idempotent(self, x):
        assert to_float32(to_float32(x)) == to_float32(x)


class TestApplyHelpers:
    def test_string_concat(self):
        assert apply_binary("+", "n=", 3, "String") == "n=3"
        assert apply_binary("+", 2.5, "!", "String") == "2.5!"
        assert apply_binary("+", True, "", "String") == "true"

    def test_shift_masks_amount(self):
        # Java masks shift amounts to 5 bits for int.
        assert apply_binary("<<", 1, 33, "int") == 2

    def test_unary_not(self):
        assert apply_unary("!", True, "boolean") is False

    def test_cast_double_to_int(self):
        assert apply_cast(-7.9, "int") == -7

    def test_math_abs_int_stays_int(self):
        assert apply_math("Math.abs", [-5], "int") == 5
        assert isinstance(apply_math("Math.abs", [-5], "int"), int)

    def test_math_pow(self):
        assert apply_math("Math.pow", [2.0, 10.0]) == 1024.0

    def test_math_floor_ceil(self):
        assert apply_math("Math.floor", [2.7]) == 2.0
        assert apply_math("Math.ceil", [2.1]) == 3.0


class TestFoldBinary:
    def test_folds_basic(self):
        ok, value = fold_binary("+", 2, 3, ty.INT)
        assert ok and value == 5

    def test_refuses_div_zero(self):
        ok, _ = fold_binary("/", 1, 0, ty.INT)
        assert not ok
        ok, _ = fold_binary("%", 1, 0, ty.INT)
        assert not ok

    def test_wraps_int(self):
        ok, value = fold_binary("*", 2**30, 4, ty.INT)
        assert ok and value == 0

    def test_comparison_results_boolean(self):
        ok, value = fold_binary("<=", 3, 3, ty.BOOLEAN)
        assert ok and value is True

    @given(
        st.sampled_from(["+", "-", "*", "&", "|", "^"]),
        st.integers(-10000, 10000),
        st.integers(-10000, 10000),
    )
    def test_fold_matches_runtime_semantics(self, op, a, b):
        ok, folded = fold_binary(op, a, b, ty.INT)
        assert ok
        assert folded == apply_binary(op, a, b, "int")

    @given(
        st.integers(-10000, 10000),
        st.integers(-10000, 10000).filter(lambda x: x != 0),
    )
    def test_fold_division_matches_runtime(self, a, b):
        ok, folded = fold_binary("/", a, b, ty.INT)
        assert ok
        assert folded == apply_binary("/", a, b, "int")


# --- the folder against the whole semantics table --------------------------

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1
INTS = (0, 1, -1, 31, 32, 33, 63, 64, INT_MIN, INT_MAX, LONG_MIN, LONG_MAX)
FLOATS = (0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf,
          16777216.0, 1e308, 5e-324)
BOOLS = (False, True)
OPERANDS = INTS + FLOATS + BOOLS
TYPES = (ty.INT, ty.LONG, ty.FLOAT, ty.DOUBLE, ty.BOOLEAN)
BINARY_OPS = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
              "==", "!=", "<", ">", "<=", ">=", "&&", "||")


def _oracle(apply, *args):
    """What the table says: ``("value", v)``, ``("raises",)`` for the
    DeviceError the run time raises, or None for operands Python cannot
    combine (``1.5 & 2``), which the type checker never lets through."""
    try:
        return ("value", apply(*args))
    except DeviceError:
        return ("raises",)
    except TypeError:
        return None


def _assert_fold_matches(folded, want, case):
    ok, value = folded
    if want == ("raises",):
        assert not ok, case
        return
    # repr tells -0.0 from 0.0, matches NaN with NaN and True from 1.
    assert ok and type(value) is type(want[1]), (case, value, want)
    assert repr(value) == repr(want[1]), (case, value, want)


class TestFolderIsTheTable:
    """``fold_* == apply_*`` over every operator, result type and edge
    operand: same value, same Python class, same sign of zero, NaN for
    NaN, and declined exactly where the run time raises."""

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_binary(self, op):
        checked = 0
        for type_ in TYPES:
            for left in OPERANDS:
                for right in OPERANDS:
                    want = _oracle(apply_binary, op, left, right, type_.name)
                    if want is None:
                        continue
                    _assert_fold_matches(
                        fold_binary(op, left, right, type_),
                        want,
                        (op, type_, left, right),
                    )
                    checked += 1
        assert checked >= len(TYPES) * len(INTS) ** 2

    @pytest.mark.parametrize("op", ["-", "~", "!"])
    def test_unary(self, op):
        for type_ in TYPES:
            for operand in OPERANDS:
                if (
                    (op, type_) == ("-", ty.FLOAT)
                    and type(operand) is float
                    and to_float32(operand) != operand
                ):
                    continue  # the literal rule, pinned below
                want = _oracle(apply_unary, op, operand, type_.name)
                if want is not None:
                    _assert_fold_matches(
                        fold_unary(op, operand, type_),
                        want,
                        (op, type_, operand),
                    )

    @pytest.mark.parametrize(
        "type_", [ty.INT, ty.LONG, ty.FLOAT, ty.DOUBLE], ids=str
    )
    def test_cast(self, type_):
        for operand in OPERANDS:
            _assert_fold_matches(
                fold_cast(operand, type_),
                ("value", apply_cast(operand, type_.name)),
                (type_, operand),
            )

    def test_declines_what_the_table_does_not_cover(self):
        assert fold_binary("&", Bit(1), Bit(1), ty.BIT) == (False, None)
        assert fold_binary("+", "a", "b", ty.STRING) == (False, None)
        assert fold_binary("+", 1, 2, ty.STRING) == (False, None)


# --- whole programs: optimized == unoptimized ------------------------------

_CPU = RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False))

#: name -> (method of class C, arguments). Each one diverged between
#: default options and ``run_optimizations=False`` when the folder had
#: its own copy of the arithmetic.
PROGRAMS = {
    "long shift amount is masked with 63": (
        "static long f() { return 1L << 40; }", []),
    "float addition rounds through binary32": (
        "static float f() { return 16777216.0f + 1.0f; }", []),
    "cast to float rounds through binary32": (
        "static float f() { return (float) 0.1; }", []),
    "x * 0.0 is NaN at infinity": (
        "static double f(double x) { return x * 0.0; }", [math.inf]),
    "x + 0.0 is +0.0 at -0.0": (
        "static double f(double x) { return 1.0 / (x + 0.0); }", [-0.0]),
    "0.0 * x is -0.0 for negative x": (
        "static double f(double x) { return 1.0 / (0.0 * x); }", [-1.0]),
    "infinity % 1.0 is NaN, not a ValueError": (
        "static double f() { return (1.0e308 * 10.0) % 1.0; }", []),
    "x - -0.0 is +0.0 at -0.0": (
        "static double f(double x) { return 1.0 / (x - (-0.0)); }", [-0.0]),
    "long += 0.0 rounds through double": (
        "static long f(long x) { x += 0.0; return x; }", [2**53 + 1]),
}


def _result(method: str, args: list, optimized: bool) -> str:
    """repr of the result; a typed refusal to compile is a result too,
    anything else escaping ``compile_program`` fails the test."""
    try:
        compiled = compile_program(
            "class C { %s }" % method,
            options=CompileOptions(run_optimizations=optimized),
        )
    except LiquidMetalError as error:
        return repr(error)
    return repr(Runtime(compiled, _CPU).run("C.f", list(args)).value)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimized_program_matches_unoptimized(name):
    method, args = PROGRAMS[name]
    assert _result(method, args, True) == _result(method, args, False)


@pytest.mark.xfail(
    strict=True,
    reason="float literals are carried at double precision (ROADMAP, "
    "'float literals'): -0.356563782f is -0.356563782 folded and "
    "-0.3565637767314911 unfolded. When this passes, delete the "
    "float-negation rule in repro.ir.optimizations.fold_unary.",
)
def test_negated_float_literal_matches_unoptimized():
    method = "static float f() { return -0.356563782f; }"
    assert _result(method, [], True) == _result(method, [], False)


SHIFT_FILTERS = """
class S {
    local static int left(int x) { return 1 << x; }
    local static int right(int x) { return -16 >> x; }
    static int[[]] lefts(int[[]] xs) {
        int[] out = new int[xs.length];
        var t = xs.source(1) => ([ task left ]) => out.<int>sink();
        t.finish();
        return new int[[]](out);
    }
    static int[[]] rights(int[[]] xs) {
        int[] out = new int[xs.length];
        var t = xs.source(1) => ([ task right ]) => out.<int>sink();
        t.finish();
        return new int[[]](out);
    }
}
"""


@pytest.mark.parametrize("entry", ["S.lefts", "S.rights"])
def test_shift_by_a_streamed_amount_agrees_on_every_device(entry):
    compiled = compile_program(SHIFT_FILTERS)
    amounts = ValueArray(KIND_INT, [1, 31, 32, 33, 40, 63, 64, 65])
    outputs = {}
    for label, policy in {
        "fpga": SubstitutionPolicy(device_order=("fpga", "gpu")),
        "gpu": SubstitutionPolicy(device_order=("gpu", "fpga")),
        "cpu": SubstitutionPolicy(use_accelerators=False),
    }.items():
        outcome = Runtime(compiled, RuntimeConfig(policy=policy)).run(
            entry, [amounts]
        )
        devices = {record.device for record in outcome.ledger.offloads}
        assert devices == (set() if label == "cpu" else {label}), label
        outputs[label] = list(outcome.value)
    assert outputs["fpga"] == outputs["gpu"] == outputs["cpu"]
    assert outputs["cpu"][:4] == (
        [2, INT_MIN, 1, 2] if entry == "S.lefts" else [-8, -1, -16, -8]
    )
