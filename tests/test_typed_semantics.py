"""The type checker decides every operation's type, and the JVM agrees.

``x op= v`` computes in the promoted type of ``x`` and ``v`` and casts
back (JLS §15.26.2), ``Math.abs/min/max`` compute in their result
type, ``long`` included, a ``for`` loop counts in its variable's
type, and a ``long`` cast to ``float`` rounds once. ``CASES`` holds the JVM's answer for each case:
``tests/java/CompoundAndMath.java`` holds the same method bodies as Java
and printed these values (OpenJDK 17). The Lime cases run through
``Runtime.run`` with the optimizer on and off; the Java class is
compiled and run again when a JDK is on PATH.
"""

import os
import shutil
import subprocess

import pytest

from repro.apps import SUITE, compile_app
from repro.compiler import CompileOptions, compile_program
from repro.runtime import Runtime

JAVA_SOURCE = os.path.join(
    os.path.dirname(__file__), "java", "CompoundAndMath.java"
)

INT_MAX, INT_MIN = 2**31 - 1, -(2**31)
LONG_MAX, LONG_MIN = 2**63 - 1, -(2**63)

#: (method, result type, body, what the JVM returns).
CASES = [
    ("divIntByTenth", "int", "int x = 1; x /= 0.1; return x;", 10),
    ("divIntByZero", "int", "int x = 5; x /= 0.0; return x;", INT_MAX),
    ("divNegIntByZero", "int", "int x = -5; x /= 0.0; return x;", INT_MIN),
    ("divZeroIntByZero", "int", "int x = 0; x /= 0.0; return x;", 0),
    ("divLongByTenth", "long", "long x = 1L; x /= 0.1; return x;", 10),
    ("divLongByZero", "long", "long x = 5L; x /= 0.0; return x;", LONG_MAX),
    ("absLong", "long", "return Math.abs(-(1L << 40));", 1 << 40),
    ("maxLong", "long", "return Math.max(1L << 40, 3L);", 1 << 40),
    ("maxIntLong", "long", "return Math.max(3, 1L << 40);", 1 << 40),
    (
        "maxLongMax", "long",
        "return Math.max(9223372036854775807L, 3L);", LONG_MAX,
    ),
    (
        "minLongMin", "long",
        "return Math.min(-9223372036854775807L - 1L, 3L);", LONG_MIN,
    ),
    (
        "absLongMin", "long",
        "return Math.abs(-9223372036854775807L - 1L);", LONG_MIN,
    ),
    # These three were right before the checker's types reached the
    # bytecode, and must stay so.
    ("addLongToInt", "int", "int x = 1; x += (1L << 32) + 5; return x;", 6),
    ("mulIntByDouble", "int", "int x = 3; x *= 1e10; return x;", INT_MAX),
    ("absIntMin", "int", "return Math.abs(-2147483647 - 1);", INT_MIN),
    # A `for` over a `long` variable or with a `long` step counts in
    # `long`: only an all-`int` loop takes the canonical `int` form.
    (
        "countLongLoop", "int",
        "int n = 0; for (long i = 2147483646L; i < 2147483650L; i++) "
        "{ n += 1; if (n > 10) { return -n; } } return n;", 4,
    ),
    (
        "countLongStep", "int",
        "int n = 0; for (long i = 0L; i < 5000000000L; i += 1000000000L) "
        "{ n += 1; if (n > 10) { return -n; } } return n;", 5,
    ),
    # 2**60 + 2**36 + 1 lies just above a binary32 tie: one rounding goes
    # up, to 2**60 + 2**37; rounding to a double first lands on the tie
    # and then, to even, on 2**60.
    (
        "castLongToFloat", "long",
        "long v = 1152921573326323713L; return (long) (float) v;",
        2**60 + 2**37,
    ),
]

LIME_SOURCE = "class CompoundAndMath {\n%s\n}\n" % "\n".join(
    f"    static {type_} {name}() {{ {body} }}"
    for name, type_, body, _ in CASES
)


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_runtime_returns_the_jvm_values(optimize):
    compiled = compile_program(
        LIME_SOURCE, options=CompileOptions(run_optimizations=optimize)
    )
    runtime = Runtime(compiled)
    for name, _, _, want in CASES:
        got = runtime.run(f"CompoundAndMath.{name}").value
        assert type(got) is int and got == want, (name, got)


def test_the_java_class_holds_the_same_bodies():
    with open(JAVA_SOURCE) as f:
        java = f.read()
    for name, type_, body, _ in CASES:
        assert f"static {type_} {name}() {{ {body} }}" in java, name


@pytest.mark.skipif(
    shutil.which("javac") is None or shutil.which("java") is None,
    reason="no JDK on PATH",
)
def test_the_jvm_prints_the_table(tmp_path):
    subprocess.run(
        ["javac", "-d", str(tmp_path), JAVA_SOURCE],
        check=True, capture_output=True, timeout=120,
    )
    printed = subprocess.run(
        ["java", "-cp", str(tmp_path), "CompoundAndMath"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    assert printed.splitlines() == [
        f"{name} {want}" for name, _, _, want in CASES
    ]


LONG_TO_FLOAT = """
class C {
    static float cast(long v) { return (float) v; }
    static float folded() { return (float) 1152921573326323713L; }
}
"""


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_a_long_cast_to_float_rounds_once(optimize):
    # Staged code, the oracle loop (apply_cast) and the constant folder
    # (optimizer on) all round 2**60 + 2**36 + 1 once, as Java does.
    from tests.oracle_interpreter import OracleInterpreter

    from repro.backends.bytecode.interpreter import Interpreter
    from repro.ir import ops

    want = float(2**60 + 2**37)
    for v, expected in [
        (2**60 + 2**36 + 1, want), (-(2**60 + 2**36 + 1), -want),
        (2**60 + 2**36, float(2**60)),          # the tie itself: to even
        (2**63 - 1, float(2**63)), (-(2**63), -float(2**63)),
        (2**53 + 1, float(2**53)), (16777217, 16777216.0), (0, 0.0),
    ]:
        assert ops.apply_cast(v, "float") == expected, v
        compiled = compile_program(
            LONG_TO_FLOAT, options=CompileOptions(run_optimizations=optimize)
        )
        program = compiled.bytecode_program
        for interp in (Interpreter(program), OracleInterpreter(program)):
            assert interp.call("C.cast", [v]) == expected, (v, interp)
        assert Runtime(compiled).run("C.cast", [v]).value == expected
    runtime = Runtime(compile_program(
        LONG_TO_FLOAT, options=CompileOptions(run_optimizations=optimize)
    ))
    assert runtime.run("C.folded").value == want


def test_staged_integer_code_tests_no_class():
    """Integer results are wrapped by range alone: the verifier keeps
    floats out of int/long operations, so no staged text of the suite
    asks a value for its class."""
    for name in sorted(SUITE):
        program = compile_app(name).bytecode_program
        for function in program.functions.values():
            assert "__class__" not in function.staged_source(), (
                function.qualified_name
            )
