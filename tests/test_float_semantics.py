"""Java/IEEE-754 results where Python would raise.

Operator semantics live in one table (``repro.ir.ops``);
these cases used to leak ``OverflowError``/``ValueError`` out of it or
return the wrong value. Each case runs as a ``@`` map of 64 work-items
on the bytecode path and on the GPU-simulator path, which must agree
bit for bit.
"""

import itertools
import math
import struct

import pytest

from repro.ir.ops import apply_binary, apply_cast, apply_math
from repro.backends.bytecode import isa
from repro.backends.bytecode.compiler import compile_module
from repro.backends.bytecode.interpreter import Interpreter
from repro.compiler import CompileOptions, CompilerSession
from repro.errors import DeviceError
from repro.ir import optimizations
from repro.ir.builder import build_ir
from repro.lime.typecheck import analyze
from repro.lime import types as ty
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_FLOAT, ValueArray
from tests.oracle_interpreter import OracleInterpreter

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
    local static float lo(float x, float y) { return Math.min(x, y); }
    local static float hi(float x, float y) { return Math.max(x, y); }
    static float[[]] squares(float[[]] xs) { return F @ square(xs); }
    static float[[]] rems(float[[]] xs, float[[]] ys) { return F @ rem(xs, ys); }
    static float[[]] divs(float[[]] xs, float[[]] ys) { return F @ div(xs, ys); }
    static float[[]] roots(float[[]] xs) { return F @ root(xs); }
    static float[[]] logs(float[[]] xs) { return F @ logarithm(xs); }
    static float[[]] exps(float[[]] xs) { return F @ exponent(xs); }
    static int[[]] ints(float[[]] xs) { return F @ toInt(xs); }
    static long[[]] longs(float[[]] xs) { return F @ toLong(xs); }
    static float[[]] mins(float[[]] xs, float[[]] ys) { return F @ lo(xs, ys); }
    static float[[]] maxs(float[[]] xs, float[[]] ys) { return F @ hi(xs, ys); }
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
    "min_is_nan_with_a_nan_and_orders_signed_zeros": (
        "F.mins", [(1.0, NAN, 0.0, -0.0), (NAN, 1.0, -0.0, 0.0)],
        (NAN, NAN, -0.0, -0.0)),
    "max_is_nan_with_a_nan_and_orders_signed_zeros": (
        "F.maxs", [(1.0, NAN, -0.0, 0.0), (NAN, 1.0, 0.0, -0.0)],
        (NAN, NAN, 0.0, 0.0)),
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


@pytest.mark.parametrize("entry", ["F.squares", "F.roots", "F.ints"])
def test_an_element_past_binary32_runs_on_the_gpu_as_on_bytecode(
    compiled, entry
):
    # A float array keeps what it was built with, and 1e39 has no
    # binary32. A crossing counts its frame instead of writing it, so
    # the GPU path runs the map and computes what bytecode computes.
    xs = _floats(1e39, -1e39, 2.0, 1e-50)
    got = {}
    for path in sorted(PATHS):
        runtime = Runtime(compiled, PATHS[path])
        got[path] = [
            struct.pack("<d", v) if isinstance(v, float) else v
            for v in runtime.run(entry, [xs]).value
        ]
        assert len(runtime.gpu.kernel_log) == (1 if path == "gpu" else 0)
    assert got["gpu"] == got["bytecode"]


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
    # A narrowing compound assignment (x += 2.5 on an int x) is the
    # double operation, then a cast.
    assert apply_cast(apply_binary("+", 1, 2.5, "double"), "int") == 3
    assert apply_cast(apply_binary("*", 2, 1e300, "double"), "int") == INT_MAX
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


# Well-typed operands per result type of Math.abs/min/max: the edges of
# each range, signed zeros, NaN and the infinities.
MATH_OPERANDS = {
    "int": [0, 1, -7, INT_MAX, INT_MIN],
    "long": [0, -7, 2**40, -(2**40), INT_MIN, LONG_MAX, LONG_MIN],
    "float": [0.0, -0.0, 1.5, -2.5, 3.4028234663852886e38, INF, -INF, NAN],
    "double": [0.0, -0.0, 1.5, -2.5, 1e300, INF, -INF, NAN],
}


def _java_math(name, args, typename):
    """Java's Math.abs/min/max written out, independently of the table."""
    if typename in ("int", "long"):
        value = {"Math.abs": abs, "Math.min": min, "Math.max": max}[name](
            *args
        )
        bits = 32 if typename == "int" else 64
        value &= (1 << bits) - 1
        return value - (1 << bits) if value >> (bits - 1) else value
    if name == "Math.abs":
        return math.fabs(args[0])
    a, b = args
    if a != a or b != b:
        return NAN
    if a == b == 0:
        negative = (math.copysign(1, a) < 0) + (math.copysign(1, b) < 0)
        wanted = negative == 2 if name == "Math.max" else negative >= 1
        return -0.0 if wanted else 0.0
    return min(a, b) if name == "Math.min" else max(a, b)


@pytest.mark.parametrize("name", ["Math.abs", "Math.min", "Math.max"])
def test_staged_math_returns_the_table_values(name):
    """The staged intrinsic, the table (apply_math) and Java agree, at
    every result type the INTRINSIC operand can carry."""
    arity = 1 if name == "Math.abs" else 2
    for typename, operands in MATH_OPERANDS.items():
        code = [(isa.LOAD, i) for i in range(arity)] + [
            (isa.INTRINSIC, (name, arity, typename)), (isa.RETV, None),
        ]
        program = isa.BytecodeProgram(
            functions={"M.f": isa.CompiledFunction(
                "M.f", code, (typename,) * (arity + 1), arity
            )},
            classes={},
        )
        staged = Interpreter(program)
        for args in itertools.product(operands, repeat=arity):
            want = _java_math(name, args, typename)
            for got in (
                apply_math(name, args, typename),
                staged.call("M.f", list(args)),
            ):
                assert type(got) is type(want), (name, typename, args)
                assert repr(got) == repr(want), (name, typename, args)


def test_math_min_max_are_javas():
    assert math.isnan(apply_math("Math.min", [1.0, NAN]))
    assert math.isnan(apply_math("Math.max", [NAN, 1.0]))
    assert repr(apply_math("Math.min", [0.0, -0.0])) == "-0.0"
    assert repr(apply_math("Math.max", [-0.0, 0.0])) == "0.0"
    assert repr(apply_math("Math.min", [0, -0.0])) == "-0.0"
    assert apply_math("Math.min", [3, 9], "int") == 3
    assert apply_math("Math.max", [2**31, 0], "int") == -(2**31)


def test_integer_division_by_zero_still_raises_typed():
    with pytest.raises(DeviceError, match="integer division by zero"):
        apply_binary("/", 1, 0, "int")
    with pytest.raises(DeviceError, match="integer remainder by zero"):
        apply_binary("%", 1, 0, "long")


# Math.floor/Math.ceil give a zero the sign of their argument, as Java
# does: floor(-0.0), ceil(-0.0), ceil(-0.5) and ceil(-2.5e-300) are -0.0.
ROUNDING = """
class R {
    static double fl(double x) { return Math.floor(x); }
    static double ce(double x) { return Math.ceil(x); }
    static double flNegZero() { return Math.floor(-0.0); }
    static double ceNegZero() { return Math.ceil(-0.0); }
    static double ceNegHalf() { return Math.ceil(-0.5); }
    static double ceNegTiny() { return Math.ceil(-2.5e-300); }
    static double flNegHalf() { return Math.floor(-0.5); }
    static double flHalf() { return Math.floor(0.5); }
}
"""

JAVA_ROUNDING = [
    ("Math.floor", -0.0, -0.0),
    ("Math.ceil", -0.0, -0.0),
    ("Math.ceil", -0.5, -0.0),
    ("Math.ceil", -2.5e-300, -0.0),
    ("Math.floor", -0.5, -1.0),
    ("Math.floor", 0.5, 0.0),
    ("Math.ceil", 0.5, 1.0),
    ("Math.floor", 0.0, 0.0),
    ("Math.ceil", -7.25, -7.0),
    ("Math.floor", -INF, -INF),
]
FOLDED = {
    "R.flNegZero": -0.0, "R.ceNegZero": -0.0, "R.ceNegHalf": -0.0,
    "R.ceNegTiny": -0.0, "R.flNegHalf": -1.0, "R.flHalf": 0.0,
}


def _bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_floor_and_ceil_keep_the_sign_of_zero(optimize):
    program = compile_module(
        build_ir(analyze(ROUNDING), run_optimizations=optimize)
    )
    for name, x, want in JAVA_ROUNDING:
        # The table: what the folder and the oracle evaluate through.
        assert _bits(apply_math(name, [x])) == _bits(want), (name, x)
        entry = "R.fl" if name == "Math.floor" else "R.ce"
        for cls in (Interpreter, OracleInterpreter):
            got = cls(program).call(entry, [x])
            assert _bits(got) == _bits(want), (cls.__name__, name, x)
    for entry, want in FOLDED.items():
        for cls in (Interpreter, OracleInterpreter):
            got = cls(program).call(entry, [])
            assert _bits(got) == _bits(want), (cls.__name__, entry)
