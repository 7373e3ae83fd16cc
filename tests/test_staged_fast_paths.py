"""Staged code does only the program's arithmetic, and computes what the
per-operator templates compute.

The stager splices :mod:`repro.ir.ops`' fast paths in place of the
per-operator templates the constant folder and the oracle evaluate:
one wrap per ``int``/``long`` ring tree, inline divisor and domain
tests with the helper on the edge arm only, exact casts without a
rounding, one charge per straight run and counting loops without the
checks their guard proves. Each is held here against the helper it
replaces (an edge grid, bit for bit) or against the instruction-at-a-
time loop of ``tests/oracle_interpreter.py``, which keeps the per-
operator wrap and the helpers.
"""

import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.bytecode.compiler import compile_module
from repro.backends.bytecode.interpreter import Interpreter
from repro.apps import SUITE, compile_app
from repro.backends.bytecode.staging import (
    _MAX_NESTING,
    Translation,
    _charge,
    _is_quiet,
    launch_source,
)
from repro.errors import DeviceError
from repro.ir import ops
from repro.ir.builder import build_ir
from repro.lime.typecheck import analyze
from repro.values import KIND_INT, ValueArray
from tests.oracle_interpreter import OracleInterpreter

INT_MAX, INT_MIN = 2**31 - 1, -(2**31)
LONG_MAX, LONG_MIN = 2**63 - 1, -(2**63)


def _compile(source, optimized=True):
    return compile_module(build_ir(analyze(source), run_optimizations=optimized))


def _state(interp):
    return interp.cycles, interp.method_stats, interp.output, interp.statics


def _outcome(interp, entry, args):
    try:
        result = interp.call(entry, args)
    except DeviceError as exc:
        result = (type(exc), str(exc))
    return result, _state(interp), interp._depth


def _launched(interp, entry, items):
    per_item = []
    try:
        result = interp.launch("map", [entry], items, per_item)
    except DeviceError as exc:
        result = (type(exc), str(exc))
    return result, per_item, _state(interp), interp._depth


def _agree(program, entry, argsets):
    """Staged calls and one launch over ``argsets`` leave what the
    oracle leaves; the calls' results."""
    results = []
    for args in argsets:
        staged = _outcome(Interpreter(program), entry, list(args))
        assert staged == _outcome(OracleInterpreter(program), entry, list(args))
        results.append(staged[0])
    items = [tuple(args) for args in argsets]
    assert _launched(Interpreter(program), entry, items) == _launched(
        OracleInterpreter(program), entry, items
    )
    return results


def _bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


# ---------------------------------------------------------------------------
# (a) One wrap per integer expression
# ---------------------------------------------------------------------------

EDGES = {
    "int": [0, 1, -1, 2, INT_MAX, INT_MIN, INT_MAX - 1, INT_MIN + 1, 46341,
            65536, -65536, 0x55555555],
    "long": [0, 1, -1, LONG_MAX, LONG_MIN, 2**32, -(2**32), 3037000500,
             2**62, 0x5555555555555555],
}


def _ring_trees(typename):
    suffix = "L" if typename == "long" else ""
    leaves = st.sampled_from(["a", "b", "c", f"3{suffix}", f"1{suffix}",
                              f"7{suffix}"])

    def extend(inner):
        # A shift amount is an int: a literal, however wide the tree.
        return st.one_of(
            st.tuples(inner, st.sampled_from(sorted(ops.RING - {"<<"})),
                      inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from([0, 1, 5, 31, 32, 33, 63, 64])
                      ).map(lambda t: f"({t[0]} << {t[1]})"),
            st.tuples(st.sampled_from(["-", "~"]), inner).map(
                lambda t: f"({t[0]}{t[1]})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=24)


def _ring_program(typename, expr):
    return (
        f"class P {{ local static {typename} f({typename} a, {typename} b,"
        f" {typename} c) {{ return {expr}; }} }}"
    )


@pytest.mark.parametrize("typename", ["int", "long"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_ring_tree_wrapped_once_computes_the_per_operator_wraps(
    typename, data
):
    expr = data.draw(_ring_trees(typename))
    optimized = data.draw(st.booleans())
    edges = st.sampled_from(EDGES[typename])
    argsets = data.draw(st.lists(st.tuples(edges, edges, edges),
                                 min_size=1, max_size=4))
    program = _compile(_ring_program(typename, expr), optimized)
    _agree(program, "P.f", argsets)


@pytest.mark.parametrize("typename", ["int", "long"])
def test_a_ring_tree_nested_past_the_limit_is_named_and_still_exact(typename):
    # A chain deeper than _MAX_NESTING: the stager names it part way,
    # wrapped, and the rest wraps once more at the root.
    expr = "a"
    for i in range(3 * _MAX_NESTING):
        expr = f"({expr} {'*+-^'[i % 4]} {'bc'[i % 2]})"
    program = _compile(_ring_program(typename, expr), optimized=False)
    text = program.functions["P.f"].staged_source()
    assert re.search(r"\bt\d+ = \(_t if", text)
    wrap = "wrap_int" if typename == "int" else "wrap_long"
    assert 1 < text.count(wrap) <= 3 * _MAX_NESTING // _MAX_NESTING + 2
    edges = EDGES[typename]
    _agree(program, "P.f", [(x, y, z) for x in edges[:6] for y in edges[3:6]
                            for z in edges[-3:]])


def test_a_ring_tree_has_one_range_test():
    program = _compile(_ring_program("int", "((a * b) + (c - a)) << (b ^ 3)"))
    (line,) = [
        line for line in program.functions["P.f"].staged_source().splitlines()
        if "return" in line
    ]
    assert line.count("0x7FFFFFFF") == 1, line


def test_the_magnitude_of_an_unwrapped_tree_stays_bounded():
    # Products of products: the tree is wrapped before its bound passes
    # 256 bits, so no intermediate grows without limit.
    expr = "a"
    for _ in range(6):
        expr = f"({expr} * {expr})"
    program = _compile(_ring_program("long", expr), optimized=False)
    assert program.functions["P.f"].staged_source().count("wrap_long") > 1
    _agree(program, "P.f", [(LONG_MAX, 0, 0), (LONG_MIN, 0, 0),
                            (3037000500, 0, 0)])


# ---------------------------------------------------------------------------
# (b) Edge grid: each fast path against the helper it replaces, on raw bits
# ---------------------------------------------------------------------------

FLT_TINY = 2.0**-149
FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0, 0.5,
    -2.5, 3.0, 1e-300, 5e-324, -5e-324, FLT_TINY, -FLT_TINY, 3.4e38,
    -3.4e38, 1e308, 0.1, 2.0**-1022, 709.0, 709.5, 709.782712893384,
    math.nextafter(709.782712893384, math.inf), 710.0, -745.2, -1000.0,
    math.pi / 2, 1e22,
]


def _eval(text, **names):
    return eval(text, dict(ops.NAMESPACE), names)


@pytest.mark.parametrize("b", FLOATS, ids=repr)
def test_float_division_tests_its_divisor_inline(b):
    text = ops.float_division_parts("a", "b")
    for a in FLOATS:
        assert _bits(_eval(text, a=a, b=b)) == _bits(ops.java_fdiv(a, b))
    if b and math.isfinite(b):           # a nonzero literal divisor
        assert ops.float_division_parts("a", "b", b) == "(a / b)"
        for a in FLOATS:
            assert _bits(_eval("(a / b)", a=a, b=b)) == _bits(
                ops.java_fdiv(a, b)
            )


CHAIN = """
class D {
    static double chain(double x, double y) {
        return x / y / y / y / y / y / y / y / y / y / y;
    }
}
"""


@pytest.mark.parametrize("optimized", [True, False], ids=["opt", "noopt"])
def test_a_division_chain_names_each_dividend_once(optimized):
    # The inline divisor test reads the dividend on both arms: a deferred
    # dividend is named first, so the text grows with the chain, not as
    # two to its length.
    program = _compile(CHAIN, optimized)
    text = _function_text(program, "D.chain")
    assert text.count("java_fdiv(") == 10, text
    assert _agree(program, "D.chain", [(1.0, 2.0), (1.0, 0.0), (-0.0, -0.0)])


INTEGERS = sorted(set(EDGES["int"] + EDGES["long"] + [7, -7, 3, -3, 2, -2]))


@pytest.mark.parametrize("typename", ["int", "long"])
@pytest.mark.parametrize("op", ["/", "%"])
def test_integer_division_is_a_zero_test_and_a_truncating_expression(
    op, typename
):
    low, high = (INT_MIN, INT_MAX) if typename == "int" else (
        LONG_MIN, LONG_MAX
    )
    values = [v for v in INTEGERS if low <= v <= high]
    helper = ops.java_idiv if op == "/" else ops.java_irem
    check = ops.division_check(op, "a", "b")
    assert check == f"if not b: {helper.__name__}(a, b)"
    raw, widens = ops.division_parts(op, "a", "b")
    text = ops.wrap(raw, typename) if widens else raw
    for a in values:
        for b in values:
            if b == 0:
                with pytest.raises(DeviceError) as raised:
                    exec(check, dict(ops.NAMESPACE), {"a": a, "b": b})
                with pytest.raises(DeviceError) as expected:
                    ops.apply_binary(op, a, b, typename)
                assert str(raised.value) == str(expected.value)
                continue
            exec(check, dict(ops.NAMESPACE), {"a": a, "b": b})
            assert _eval(text, a=a, b=b) == ops.apply_binary(
                op, a, b, typename
            ), (a, b)


@pytest.mark.parametrize("name", ["Math.sqrt", "Math.exp", "Math.log",
                                  "Math.sin", "Math.cos", "Math.tan"])
def test_math_calls_the_c_function_under_a_domain_test(name):
    text = ops.domain_parts(name, "x")
    helper = ops.NAMESPACE[name.replace(".", "_")]
    assert text.endswith(f" else {name.replace('.', '_')}(x))")
    for x in FLOATS + [-1.0, -0.5, -1e-300, 4, 0, -4]:
        assert _bits(_eval(text, x=x)) == _bits(helper(x)), x


def _binary32(values):
    return sorted({ops.to_float32(v) for v in values if v == v},
                  key=repr) + [ops.to_float32(math.nan)]


@pytest.mark.parametrize("x", _binary32(FLOATS), ids=repr)
def test_negation_and_abs_of_a_binary32_value_need_no_rounding(x):
    assert ops.keeps_binary32("-") and ops.keeps_binary32("Math.abs")
    assert _bits(-x) == _bits(ops.apply_unary("-", x, "float"))
    assert _bits(abs(x)) == _bits(ops.apply_math("Math.abs", [x], "float"))


@pytest.mark.parametrize("typename", ["float", "double", "int", "long"])
def test_a_cast_of_a_known_class_is_the_cast(typename):
    cell = ops.float32_cell()
    sources = {
        "float": _binary32(FLOATS),
        "double": FLOATS,
        "int": [v for v in INTEGERS if INT_MIN <= v <= INT_MAX],
    }
    for source, values in sources.items():
        text, rounds = ops.staged_cast_parts(typename, "a", source)
        for a in values:
            value = _eval(text, a=a)
            if rounds:
                cell[0] = value
                value = cell[0]
            assert _bits(value) == _bits(ops.apply_cast(a, typename)), (
                source, a
            )


def test_the_integral_math_functions_follow_their_templates():
    for name in ("Math.abs", "Math.min", "Math.max"):
        for typename in ("int", "long"):
            raw, widens = ops.integral_parts(name, ["a", "b"])
            text = ops.wrap(raw, typename) if widens else raw
            for a in INTEGERS[:12]:
                for b in INTEGERS[:12]:
                    if typename == "int" and not (
                        INT_MIN <= a <= INT_MAX and INT_MIN <= b <= INT_MAX
                    ):
                        continue
                    args = [a, b] if name != "Math.abs" else [a]
                    assert _eval(text, a=a, b=b) == ops.apply_math(
                        name, args, typename
                    )


# ---------------------------------------------------------------------------
# (c) One charge per straight run
# ---------------------------------------------------------------------------

STRAIGHT = """
class S {
    local static float axpy(float a, float x, float y) { return a * x + y; }
    local static float add(float a, float b) { return a + b; }
    local static int pick(int i, int[[]] xs) { return xs[i] + 1; }
}
"""


def test_a_straight_line_work_item_pays_one_charge():
    program = _compile(STRAIGHT)
    text = program.staged_launch_source("map", ["S.axpy"])
    loop = text[text.index("for "):text.index("finally:")]
    assert "for m0_l0, m0_l1, m0_l2, in items:" in loop
    assert loop.count("cy +=") == 1 and "cy += 20" in loop
    assert re.search(r"append\(m0_t\d+\)", loop) and "v = " not in loop
    fold = program.staged_launch_source("reduce", ["S.add"])
    assert fold[fold.index("for "):].count("cy +=") == 1
    # A check that can raise keeps the frame ahead of it.
    text = program.staged_launch_source("map", ["S.pick"])
    loop = text[text.index("for "):text.index("finally:")]
    assert loop.index("cy += 12") < loop.index("_out_of_bounds")
    xs = ValueArray(KIND_INT, [4, 5, 6])
    for items in ([(0, xs), (2, xs)], [(1, xs), (3, xs), (0, xs)]):
        for entry in ("S.pick",):
            assert _launched(Interpreter(program), entry, items) == _launched(
                OracleInterpreter(program), entry, items
            )
    for entry, items in (("S.axpy", [(2.0, 0.1, 3e38), (-1.5, 2.5, 0.5)]),):
        assert _launched(Interpreter(program), entry, items) == _launched(
            OracleInterpreter(program), entry, items
        )


# ---------------------------------------------------------------------------
# (d) Counting loops
# ---------------------------------------------------------------------------

COUNTING = """
class K {
    static int sum(int[[]] xs) {
        int s = 0;
        for (int i = 0; i < xs.length; i += 1) { s += xs[i]; }
        return s;
    }
    static int dot(int[[]] xs, int[[]] ys) {
        int s = 0;
        for (int i = 0; i < xs.length; i += 1) { s += xs[i] * ys[i]; }
        return s;
    }
    static int first(int[[]] xs) {
        int s = 0;
        for (int i = 0; i < 3; i += 1) { s += xs[i]; }
        return s;
    }
    static int twice(int[[]] xs) {
        int s = 0;
        for (int i = 0; i < xs.length; i += 1) {
            s += xs[i];
            if (xs[i] == 7) { i = -3; }
        }
        return s;
    }
    static int arms(int[[]] xs) {
        int s = 0;
        int i = 0;
        while (i < xs.length) {
            if (xs[i] > 0) { i = i + 1; } else { i = -2; s += xs[i]; }
        }
        return s;
    }
    static int after(int[[]] xs) {
        int s = 0;
        int i = 0;
        while (i < xs.length) { i = i + 1; s += xs[i]; }
        return s;
    }
    static int upTo(int[[]] xs, int n) {
        int s = 0;
        for (int i = 0; i < n; i += 1) { s += xs[i]; }
        return s;
    }
    static int fromBelow(int[[]] xs) {
        int s = 0;
        for (int i = -1; i < xs.length; i += 1) { s += xs[i]; }
        return s;
    }
    static int down(int[[]] xs) {
        int s = 0;
        int i = xs.length - 1;
        while (i > -2) { s += xs[i]; i = i - 1; }
        return s;
    }
    static int pickedStart(int[[]] xs, boolean c) {
        int s = 0;
        int i = c ? -1 : 0;
        while (i < xs.length) { s += xs[i]; i = i + 1; }
        return s;
    }
    static int pickedFor(int[[]] xs, boolean c) {
        int s = 0;
        for (int i = c ? -1 : 0; i < xs.length; i += 1) { s += xs[i]; }
        return s;
    }
    static int pickedStep(int[[]] xs, boolean c) {
        int s = 0;
        int i = 0;
        while (i < xs.length) { s += xs[i]; i = c ? -5 : i + 1; }
        return s;
    }
    static int inner(int[[]] xs) {
        int s = 0;
        int i = 0;
        while (i < xs.length) {
            s += xs[i];
            int k = 0;
            while (k < 2) { i = i + 1; k = k + 1; }
        }
        return s;
    }
}
"""


def _ints(*values):
    return ValueArray(KIND_INT, values)


def _function_text(program, name):
    return program.functions[name].staged_source()


@pytest.mark.parametrize("optimized", [True, False], ids=["opt", "noopt"])
def test_a_counting_loop_drops_what_its_guard_proves(optimized):
    program = _compile(COUNTING, optimized)
    sums = _function_text(program, "K.sum")
    assert "_out_of_bounds" not in sums and "wrap_int" not in sums.split(
        "while True:"
    )[1].split("# pc")[-1]
    dot = _function_text(program, "K.dot")
    assert dot.count("_out_of_bounds") == 1
    assert re.search(r"if not l\d+ < n1:", dot)       # only the upper half
    first = _function_text(program, "K.first")
    assert re.search(r"if not l\d+ < n0:", first)
    assert not re.search(r"if not 0 <= ", first)
    xs, ys = _ints(1, 2, 3), _ints(4, 5, 6)
    assert _agree(program, "K.sum", [(xs,), (_ints(),), (_ints(9),)]) == [
        6, 0, 9
    ]
    assert _agree(program, "K.dot", [(xs, ys), (xs, _ints(1, 2))])[0] == 32
    assert _agree(program, "K.first", [(xs,), (_ints(1, 2),)])[1] == (
        DeviceError, "array index 2 out of bounds (length 2)"
    )


@pytest.mark.parametrize("optimized", [True, False], ids=["opt", "noopt"])
@pytest.mark.parametrize(
    "entry, args, message",
    [
        # The counter stored twice: back to -2 after the 7.
        ("K.twice", (_ints(1, 7, 3),), "array index -2 out of bounds"),
        # ... and on an arm the increment does not reach.
        ("K.arms", (_ints(1, 0, 3),), "array index -2 out of bounds"),
        # a[i] read after i++: one past the end.
        ("K.after", (_ints(1, 2, 3),), "array index 3 out of bounds"),
        # Bound by a parameter, which nothing range-checks.
        ("K.upTo", (_ints(1, 2, 3), 5), "array index 3 out of bounds"),
        # A start below zero.
        ("K.fromBelow", (_ints(1, 2, 3),), "array index -1 out of bounds"),
        # Counting down.
        ("K.down", (_ints(1, 2, 3),), "array index -1 out of bounds"),
        # A start the ternary picks: the STORE after CONST 0 is also
        # where the -1 arm jumps to.
        ("K.pickedStart", (_ints(1, 2, 3), True),
         "array index -1 out of bounds"),
        ("K.pickedFor", (_ints(1, 2, 3), True),
         "array index -1 out of bounds"),
        # A step the ternary picks: the STORE after i + 1 may store -5.
        ("K.pickedStep", (_ints(1, 2, 3), True),
         "array index -5 out of bounds"),
    ],
)
def test_a_loop_that_is_no_counting_loop_keeps_its_checks(
    entry, args, message, optimized
):
    program = _compile(COUNTING, optimized)
    text = _function_text(program, entry)
    assert re.search(r"if not 0 <= l\d+ < n0:", text), text
    (result,) = _agree(program, entry, [args])
    assert result[0] is DeviceError and result[1].startswith(message)


@pytest.mark.parametrize("optimized", [True, False], ids=["opt", "noopt"])
def test_an_increment_in_an_inner_loop_keeps_its_wrap_and_the_checks(
    optimized
):
    # Unguarded by the outer test, the increment could wrap the counter
    # below zero: the outer loop is no counting loop. The inner one is.
    program = _compile(COUNTING, optimized)
    text = _function_text(program, "K.inner")
    assert re.search(r"if not 0 <= l\d+ < n0:", text), text
    assert re.search(r"l(\d+) = \(_t if .*\(l\1 \+ 1\)", text), text
    assert _agree(program, "K.inner", [(_ints(1, 2, 3),), (_ints(),),
                                       (_ints(4, 5),)]) == [4, 0, 4]


# ---------------------------------------------------------------------------
# (c) One charge per straight run
# ---------------------------------------------------------------------------


def _apart(shape):
    """Pairs of constant charges to ``c`` at one indentation with only
    quiet lines and comments between them (they could be one)."""
    pairs, held = [], None
    for i, (indent, item) in enumerate(shape):
        if _charge(item) is not None:
            if held is not None and shape[held][0] == indent:
                pairs.append((shape[held][1], item))
            held = i
        elif held is not None and not (
            indent == shape[held][0] and _is_quiet(item)
        ):
            held = None
    return pairs


#: Two constant charges to one count, one line after the other.
_ADJACENT = re.compile(r"^( *)(\w*c|cy) \+= \d+\n\1\2 \+= \d+$", re.M)


def _program(name):
    if name.startswith("COUNTING"):
        return _compile(COUNTING, optimized=name == "COUNTING")
    return compile_app(name).bytecode_program


@pytest.mark.parametrize("name", ["COUNTING", "COUNTING-noopt", *sorted(SUITE)])
def test_no_two_charges_are_apart_only_by_quiet_lines(name):
    program = _program(name)
    for qualified, function in sorted(program.functions.items()):
        try:
            translation = Translation(function)
        except DeviceError:
            continue            # refused at staging: nothing runs
        for inline in (False, True):
            assert _apart(translation.shape(inline)) == [], (qualified, inline)
        assert not _ADJACENT.search(function.staged_source()), qualified
        text = launch_source("map", [function], program)
        assert not _ADJACENT.search(text), qualified


def test_merged_charges_keep_the_oracle_cycles():
    program = _compile(COUNTING)
    # Once apart: ``c += 4`` then ``c += 1`` leaving K.inner's inner
    # loop, ``c += 15``, a wrapped ``s0 = ...``, ``c += 3`` in
    # K.pickedStep's else arm.
    assert re.search(r"c \+= 5\n +break", _function_text(program, "K.inner"))
    assert re.search(r"s0 = .*\n +c \+= 18\n",
                     _function_text(program, "K.pickedStep"))
    for entry in ("K.inner", "K.pickedStep", "K.pickedStart", "K.arms"):
        arity = program.functions[entry].num_params
        _agree(program, entry, [
            (_ints(1, 2, 3), False)[:arity],
            (_ints(), True)[:arity],
            (_ints(4, -5), False)[:arity],
        ])
