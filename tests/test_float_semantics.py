"""Java/IEEE-754 results where Python would raise.

Operator semantics live in one table (``repro.ir.ops``);
these cases used to leak ``OverflowError``/``ValueError`` out of it or
return the wrong value. Each case runs as a ``@`` map of 64 work-items
on the bytecode path and on the GPU-simulator path, which must agree
bit for bit.
"""

import math

import pytest

from repro.ir.ops import apply_binary, apply_cast, apply_math
from repro.compiler import CompileOptions, CompilerSession
from repro.errors import DeviceError
from repro.ir import optimizations
from repro.lime import types as ty
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_FLOAT, ValueArray

SOURCE = """
class F {
    local static float square(float x) { return x * x; }
    local static float rem(float x, float y) { return x % y; }
    local static float div(float x, float y) { return x / y; }
    local static float root(float x) { return (float) Math.sqrt(x); }
    local static float logarithm(float x) { return (float) Math.log(x); }
    local static float exponent(float x) { return (float) Math.exp(x); }
    local static int toInt(float x) { return (int) x; }
    local static long toLong(float x) { return (long) x; }
    static float[[]] squares(float[[]] xs) { return F @ square(xs); }
    static float[[]] rems(float[[]] xs, float[[]] ys) { return F @ rem(xs, ys); }
    static float[[]] divs(float[[]] xs, float[[]] ys) { return F @ div(xs, ys); }
    static float[[]] roots(float[[]] xs) { return F @ root(xs); }
    static float[[]] logs(float[[]] xs) { return F @ logarithm(xs); }
    static float[[]] exps(float[[]] xs) { return F @ exponent(xs); }
    static int[[]] ints(float[[]] xs) { return F @ toInt(xs); }
    static long[[]] longs(float[[]] xs) { return F @ toLong(xs); }
    static int foldedInt() { return (int) 1e20; }
    static long foldedLong() { return (long) -1e30; }
}
"""

INF, NAN = math.inf, math.nan
INT_MAX, INT_MIN = 2**31 - 1, -(2**31)
LONG_MAX, LONG_MIN = 2**63 - 1, -(2**63)

PATHS = {
    "bytecode": RuntimeConfig(
        policy=SubstitutionPolicy(use_accelerators=False)
    ),
    "gpu": RuntimeConfig(),
}


@pytest.fixture(scope="module")
def compiled():
    return CompilerSession(CompileOptions()).compile(
        SOURCE, filename="<float_semantics.lime>"
    )


def _floats(*values):
    return ValueArray(KIND_FLOAT, list(values) * 16)  # 64 work-items


def _same(left, right) -> bool:
    return left == right or (left != left and right != right)


CASES = {
    "float_overflow_rounds_to_infinity": (
        "F.squares", [(1e30, -1e30, 2.0, -3e38)], (INF, INF, 4.0, INF)),
    "remainder_by_zero_is_nan": (
        "F.rems", [(5.0, -5.0, INF, 5.5), (0.0, -0.0, 2.0, 2.0)],
        (NAN, NAN, NAN, 1.5)),
    "division_honours_the_sign_of_zero": (
        "F.divs", [(1.0, -1.0, 0.0, 1.0), (-0.0, -0.0, 0.0, 0.0)],
        (-INF, INF, NAN, INF)),
    "sqrt_of_negative_is_nan": (
        "F.roots", [(-1.0, 4.0, -0.0, INF)], (NAN, 2.0, -0.0, INF)),
    "log_of_zero_is_negative_infinity": (
        "F.logs", [(0.0, -1.0, 1.0, INF)], (-INF, NAN, 0.0, INF)),
    "exp_overflow_is_infinity": (
        "F.exps", [(1000.0, -1000.0, 0.0, NAN)], (INF, 0.0, 1.0, NAN)),
    "int_cast_saturates_and_maps_nan_to_zero": (
        "F.ints", [(1e20, -1e20, NAN, -7.9)], (INT_MAX, INT_MIN, 0, -7)),
    "long_cast_saturates_and_maps_nan_to_zero": (
        "F.longs", [(1e20, -INF, NAN, -7.9)], (LONG_MAX, LONG_MIN, 0, -7)),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_total_semantics(compiled, case, path):
    entry, columns, expected = CASES[case]
    runtime = Runtime(compiled, PATHS[path])
    outcome = runtime.run(entry, [_floats(*column) for column in columns])
    assert len(runtime.gpu.kernel_log) == (1 if path == "gpu" else 0)
    got = list(outcome.value)
    assert len(got) == 64
    for value, want in zip(got, expected * 16):
        assert _same(value, want), (case, path, got[:4])
        assert math.copysign(1.0, value) == math.copysign(1.0, want) or (
            value != value
        )


def test_constant_folded_casts_match_the_runtime_cast(compiled):
    runtime = Runtime(compiled, PATHS["bytecode"])
    assert runtime.run("F.foldedInt", []).value == INT_MAX
    assert runtime.run("F.foldedLong", []).value == LONG_MIN
    for value in (1e20, -1e20, NAN, INF, -INF, -7.9, 7.9, 2.0**31, 3):
        for type_, name in ((ty.INT, "int"), (ty.LONG, "long")):
            assert optimizations.fold_cast(value, type_) == (
                True, apply_cast(value, name)
            ), (value, name)
    assert apply_cast(2**31 + 5, "int") == INT_MIN + 5  # ints still wrap


def test_table_level_results():
    assert apply_binary("*", 3e38, 10.0, "float") == INF
    assert apply_binary("-", -3e38, 3e38, "float") == -INF
    assert math.isnan(apply_binary("%", 1.5, 0.0, "double"))
    assert apply_binary("/", 1.0, -0.0, "double") == -INF
    assert apply_binary("/", -1, 0, "float") == -INF
    assert math.isnan(apply_binary("/", 0.0, 0.0, "float"))
    # A narrowing compound assignment (x += 2.5 on an int x) is a cast.
    assert apply_binary("+", 1, 2.5, "int") == 3
    assert apply_binary("*", 2, 1e300, "int") == INT_MAX
    assert math.isnan(apply_math("Math.sqrt", [-4.0]))
    assert apply_math("Math.log", [0]) == -INF
    assert apply_math("Math.exp", [1e6]) == INF
    assert apply_math("Math.pow", [10.0, 400.0]) == INF
    assert apply_math("Math.pow", [-10.0, 401.0]) == -INF
    assert apply_math("Math.pow", [0.0, -1.0]) == INF
    assert math.isnan(apply_math("Math.pow", [-8.0, 1.0 / 3.0]))
    assert math.isnan(apply_math("Math.sin", [INF]))
    assert apply_math("Math.floor", [-INF]) == -INF
    assert math.isnan(apply_math("Math.ceil", [NAN]))


def test_integer_division_by_zero_still_raises_typed():
    with pytest.raises(DeviceError, match="integer division by zero"):
        apply_binary("/", 1, 0, "int")
    with pytest.raises(DeviceError, match="integer remainder by zero"):
        apply_binary("%", 1, 0, "long")
