"""The staged interpreter held against the instruction-at-a-time loop.

``Interpreter.call`` runs each ``CompiledFunction`` as a Python function
generated once by ``repro.backends.bytecode.staging``; the loop it
replaced lives on in ``tests/oracle_interpreter.py``. Everything the
rest of the system reads off the interpreter must be *equal*, not close:
values, stdout, ``cycles``, ``method_stats``, the GPU simulator's
per-work-item cycle lists (the warp-divergence model's input) and hence
every simulated second — and, when an operation raises, the exception
type, its message and the cycles already flushed.
"""

import linecache
import math
import pickle
import traceback
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.devices.gpu.simulator as gpu_simulator
import repro.runtime.engine as engine
from repro.apps import SUITE, compile_app
from repro.backends.artifacts import ArtifactCache, CacheOptions, cache_key
from repro.backends.bytecode import Interpreter, compile_module, isa
from repro.backends.bytecode.staging import staged_functions
from repro.compiler import CompileOptions, CompilerSession
from repro.devices.fpga import FPGASimulator
from repro.errors import DeviceError
from repro.ir import build_ir
from repro.lime import analyze
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_INT, ValueArray
from repro.values.structs import StructValue
from tests.oracle_interpreter import OracleInterpreter
from tests.test_properties import _program_for, int_exprs
from tests.test_suite_equivalence import SMALL_ARGS

CPU_ONLY = RuntimeConfig(
    policy=SubstitutionPolicy(use_accelerators=False), scheduler="sequential"
)
ACCELERATED = RuntimeConfig(scheduler="sequential")


@contextmanager
def oracle_everywhere():
    """Host interpreter and GPU simulator both on the oracle loop."""
    saved = engine.Interpreter, gpu_simulator.Interpreter
    engine.Interpreter = gpu_simulator.Interpreter = OracleInterpreter
    try:
        yield
    finally:
        engine.Interpreter, gpu_simulator.Interpreter = saved


@contextmanager
def recorded_work_items():
    """Every per-work-item cycle list the GPU simulator produces."""
    lists = []
    original = gpu_simulator.GPUSimulator._execute_items

    def recording(self, methods, item_args):
        per_item, outputs = original(self, methods, item_args)
        lists.append(list(per_item))
        return per_item, outputs

    gpu_simulator.GPUSimulator._execute_items = recording
    try:
        yield lists
    finally:
        gpu_simulator.GPUSimulator._execute_items = original


def _observe(compiled, entry, args, config, engine_class=Interpreter):
    with recorded_work_items() as per_item_cycles:
        runtime = Runtime(compiled, config)
        assert type(runtime.interp) is engine_class
        assert type(runtime.gpu._interp) is engine_class
        outcome = runtime.run(entry, args)
    return {
        "value": outcome.value,
        "output": outcome.output,
        "seconds": outcome.seconds,
        "host_cycles": runtime.interp.cycles,
        "host_method_stats": runtime.interp.method_stats,
        "gpu_cycles": runtime.gpu._interp.cycles,
        "gpu_method_stats": runtime.gpu._interp.method_stats,
        "per_item_cycles": per_item_cycles,
        "kernel_log": [repr(t) for t in runtime.gpu.kernel_log],
    }


@pytest.mark.parametrize("config", [CPU_ONLY, ACCELERATED],
                         ids=["cpu_only", "accelerated"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_app_matches_oracle(name, config):
    entry, args = SMALL_ARGS[name]()
    compiled = compile_app(name)
    staged = _observe(compiled, entry, args, config)
    with oracle_everywhere():
        oracle = _observe(compiled, entry, args, config, OracleInterpreter)
    assert staged == oracle
    assert staged["host_cycles"] > 0


def test_accelerated_suite_exercises_the_gpu_path():
    entry, args = SMALL_ARGS["mandelbrot"]()
    seen = _observe(compile_app("mandelbrot"), entry, args, ACCELERATED)
    assert seen["per_item_cycles"] and len(set(seen["per_item_cycles"][0])) > 1


# ---------------------------------------------------------------------------
# Seeded random programs (the generator of tests/test_properties.py)
# ---------------------------------------------------------------------------


def _both(program):
    return Interpreter(program), OracleInterpreter(program)


def _state(interp):
    return interp.cycles, interp.method_stats, interp.output, interp.statics


def _compile(source, optimized=True):
    return compile_module(build_ir(analyze(source), run_optimizations=optimized))


@settings(max_examples=120, deadline=None)
@given(
    int_exprs(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
)
def test_random_program_matches_oracle(expr, optimized, a, b, c):
    program = _compile(_program_for(expr), optimized)
    staged, oracle = _both(program)
    assert staged.call("P.f", [a, b, c]) == oracle.call("P.f", [a, b, c])
    assert _state(staged) == _state(oracle)


# ---------------------------------------------------------------------------
# Exceptions: type, message and the cycles flushed before the raise
# ---------------------------------------------------------------------------

RAISING = """
class R {
    static int pick(int[[]] xs, int i) { return xs[i]; }
    static int outOfBounds(int[[]] xs, int i) {
        int warm = R.pick(xs, 0);
        return warm + R.pick(xs, i);
    }
    static int divide(int a, int b) {
        int warm = R.add(a, 2);
        return (a + warm) / b;
    }
    static int remainder(int a, int b) { return (a * 3) % b; }
    local static int add(int x, int y) { return x + y; }
    static int[[]] unequal(int[[]] xs, int[[]] ys) {
        int warm = xs.length + ys.length;
        return R @ add(xs, ys);
    }
    static int down(int n) { return n == 0 ? 0 : 1 + R.down(n - 1); }
    static int[] store(int n, int i) {
        int[] out = new int[n];
        out[i] = 7;
        return out;
    }
}
"""


def _ints(*values):
    return ValueArray(KIND_INT, values)


@pytest.mark.parametrize(
    "entry, args, depth, message",
    [
        ("R.outOfBounds", [_ints(1, 2, 3), 3], 400, "array index 3 out of bounds (length 3)"),
        ("R.outOfBounds", [_ints(1, 2, 3), -1], 400, "array index -1 out of bounds (length 3)"),
        ("R.store", [4, 4], 400, "array index 4 out of bounds (length 4)"),
        ("R.divide", [5, 0], 400, "integer division by zero"),
        ("R.remainder", [5, 0], 400, "integer remainder by zero"),
        ("R.unequal", [_ints(1, 2, 3), _ints(1, 2)], 400, "mapped arguments must have equal lengths, got 3, 2"),
        ("R.down", [50], 20, "stack overflow (recursion too deep)"),
        ("R.nothing", [], 400, "no such function 'R.nothing'"),
        ("R.add", [1], 400, "R.add expects 2 arguments, got 1"),
    ],
)
def test_raise_matches_oracle(entry, args, depth, message):
    program = _compile(RAISING)
    outcomes = []
    for cls in (Interpreter, OracleInterpreter):
        interp = cls(program, max_call_depth=depth)
        with pytest.raises(DeviceError) as raised:
            interp.call(entry, args)
        outcomes.append((str(raised.value), _state(interp), interp._depth))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == message
    assert outcomes[0][2] == 0


def test_raise_loses_only_the_unflushed_cycles():
    # R.outOfBounds flushed at both CALLs and R.pick(xs, 0) returned;
    # what the failing ALOAD's block had accumulated is gone.
    program = _compile(RAISING)
    interp = Interpreter(program)
    with pytest.raises(DeviceError):
        interp.call("R.outOfBounds", [_ints(1, 2, 3), 9])
    calls, cycles = interp.method_stats["R.pick"]
    assert calls == 2 and cycles > 0
    assert interp.cycles > cycles


def test_interpreter_is_usable_after_a_raise():
    program = _compile(RAISING)
    staged, oracle = _both(program)
    for interp in (staged, oracle):
        with pytest.raises(DeviceError):
            interp.call("R.divide", [1, 0])
        assert interp.call("R.divide", [8, 2]) == 9
    assert _state(staged) == _state(oracle)


# ---------------------------------------------------------------------------
# Stager unit tests
# ---------------------------------------------------------------------------

BLOCKS = """
class B {
    static int andOr(int a, int b, int c) {
        boolean both = a > 0 && b > 0;
        boolean either = a > 5 || c > 5;
        int mixed = (a > b && b > c || c > a) ? a * 2 : b - c;
        return (both ? 1 : 0) + (either ? 10 : 0) + mixed;
    }
    static int nested(int a, int b) {
        return 100 * (a > 0 ? (b > 0 ? 1 : 2) : (b > 0 ? 3 : 4)) + (a < b ? a : b);
    }
    static int loops(int n) {
        int total = 0;
        for (int i = 0; i < n; i += 1) {
            if (i % 3 == 0) { continue; }
            if (i > 40) { break; }
            int j = i;
            while (j > 0 && j % 2 == 0) { j = j / 2; total += 1; }
            total += j;
        }
        return total;
    }
    static void quiet(int n) { if (n > 0) { return; } }
    static String describe(int n, float x) {
        println("n=" + n);
        print(x > 1.0f);
        return "x=" + x + (n > 0 ? "+" : "-");
    }
}
"""


@pytest.mark.parametrize(
    "entry, argsets",
    [
        ("B.andOr", [[a, b, c] for a in (-1, 3, 9) for b in (-2, 1, 7) for c in (0, 6)]),
        ("B.nested", [[a, b] for a in (-1, 0, 5) for b in (-3, 0, 8)]),
        ("B.loops", [[0], [1], [7], [64]]),
        ("B.quiet", [[0], [1]]),
        ("B.describe", [[1, 0.5], [-1, 2.5]]),
    ],
)
def test_values_live_across_blocks(entry, argsets):
    program = _compile(BLOCKS, optimized=False)
    staged, oracle = _both(program)
    for args in argsets:
        assert staged.call(entry, args) == oracle.call(entry, args)
        assert _state(staged) == _state(oracle)


def _function(code, params, locals_=None, returns=True):
    return isa.BytecodeProgram(
        functions={
            "H.f": isa.CompiledFunction(
                "H.f", code, params, locals_ or params, returns
            )
        },
        classes={},
    )


def _agree(program, args):
    staged, oracle = _both(program)
    left, right = staged.call("H.f", args), oracle.call("H.f", args)
    assert _state(staged) == _state(oracle)
    return left, right


def test_store_to_a_local_still_on_the_operand_stack():
    # push l0; l0 = 5; push l0; add  ==  old l0 + 5
    program = _function(
        [
            (isa.LOAD, 0), (isa.CONST, 5), (isa.STORE, 0), (isa.LOAD, 0),
            (isa.BINOP, ("+", "int")), (isa.RETV, None),
        ],
        params=1,
    )
    assert _agree(program, [37]) == (42, 42)


def test_store_under_a_deferred_expression():
    # push (l0 * 2); l0 = 1; push l0; sub  ==  old l0 * 2 - 1
    program = _function(
        [
            (isa.LOAD, 0), (isa.CONST, 2), (isa.BINOP, ("*", "int")),
            (isa.CONST, 1), (isa.STORE, 0), (isa.LOAD, 0),
            (isa.BINOP, ("-", "int")), (isa.RETV, None),
        ],
        params=1,
    )
    assert _agree(program, [10]) == (19, 19)


def test_deferred_expression_does_not_cross_a_side_effect():
    # push (l0 == l1) over two equal mutable structs; l0.x = 5; return
    # the comparison: it was made before the store.
    program = _function(
        [
            (isa.LOAD, 0), (isa.LOAD, 1), (isa.BINOP, ("==", "boolean")),
            (isa.LOAD, 0), (isa.CONST, 5), (isa.PUTFIELD, "x"),
            (isa.RETV, None),
        ],
        params=2,
    )

    def structs():
        pair = [StructValue("S", ["x"], False), StructValue("S", ["x"], False)]
        for struct in pair:
            struct.set("x", 1)
        return pair

    staged, oracle = _both(program)
    assert staged.call("H.f", structs()) is True
    assert oracle.call("H.f", structs()) is True
    assert _state(staged) == _state(oracle)


def test_dup_evaluates_once():
    # t = l0 / l1 (raising op: exactly one evaluation); return t * t
    program = _function(
        [
            (isa.LOAD, 0), (isa.LOAD, 1), (isa.BINOP, ("/", "int")),
            (isa.DUP, None), (isa.BINOP, ("*", "int")), (isa.RETV, None),
        ],
        params=2,
    )
    assert _agree(program, [9, 2]) == (16, 16)
    # DUP of a deferred expression, one copy crossing a block boundary.
    program = _function(
        [
            (isa.LOAD, 0), (isa.CONST, 1), (isa.BINOP, ("+", "int")),
            (isa.DUP, None), (isa.JZ, 6), (isa.RETV, None),
            (isa.POP, None), (isa.CONST, -1), (isa.RETV, None),
        ],
        params=1,
    )
    assert _agree(program, [4]) == (5, 5)
    assert _agree(program, [-1]) == (-1, -1)


def test_non_finite_constants():
    for constant in (math.nan, math.inf, -math.inf, -0.0):
        program = _function(
            [
                (isa.CONST, constant), (isa.LOAD, 0),
                (isa.BINOP, ("+", "double")), (isa.RETV, None),
            ],
            params=1,
        )
        staged, oracle = _agree(program, [0.0])
        assert repr(staged) == repr(oracle)
        assert repr(staged) == repr(constant + 0.0)


def test_falling_off_the_end_and_jump_past_the_end():
    program = _function(
        [(isa.LOAD, 0), (isa.JZ, 4), (isa.CONST, 1), (isa.POP, None)],
        params=1, returns=False,
    )
    assert _agree(program, [0]) == (None, None)
    assert _agree(program, [1]) == (None, None)


def test_loop_back_to_pc_zero():
    # do { l0 = l0 - 1 } while (l0): the only block is its own target.
    program = _function(
        [
            (isa.LOAD, 0), (isa.CONST, 1), (isa.BINOP, ("-", "int")),
            (isa.DUP, None), (isa.STORE, 0), (isa.JNZ, 0),
            (isa.LOAD, 0), (isa.RETV, None),
        ],
        params=1,
    )
    assert _agree(program, [5]) == (0, 0)


def test_unknown_opcode_is_a_device_error():
    program = _function([("FROB", None), (isa.RET, None)], params=0)
    with pytest.raises(DeviceError, match="unknown opcode 'FROB'"):
        Interpreter(program).call("H.f", [])


def test_args_sequence_is_not_mutated():
    program = _function(
        [(isa.CONST, 9), (isa.STORE, 0), (isa.LOAD, 0), (isa.RETV, None)],
        params=1,
    )
    args = [1]
    assert Interpreter(program).call("H.f", args) == 9
    assert args == [1]
    assert Interpreter(program).call("H.f", (1,)) == 9


# ---------------------------------------------------------------------------
# The memo stays beside the program
# ---------------------------------------------------------------------------


def test_staging_is_lazy_and_shared_per_program_object():
    program = _compile(BLOCKS)
    assert staged_functions(program) == {}
    first = Interpreter(program)
    first.call("B.nested", [1, 2])
    assert set(staged_functions(program)) == {"B.nested"}
    staged = staged_functions(program)["B.nested"]
    second = Interpreter(program)
    second.call("B.nested", [1, 2])
    assert staged_functions(program)["B.nested"] is staged


def test_memo_does_not_travel_with_a_pickled_program():
    program = _compile(BLOCKS)
    fresh = pickle.dumps(program, protocol=4)
    Interpreter(program).call("B.loops", [9])
    assert pickle.dumps(program, protocol=4) == fresh
    assert "_staged" not in vars(program)
    clone = pickle.loads(fresh)
    assert staged_functions(clone) == {}
    assert Interpreter(clone).call("B.loops", [9]) == (
        Interpreter(program).call("B.loops", [9])
    )


def test_program_stored_in_the_artifact_cache_after_it_ran(tmp_path):
    compiled = compile_app("saxpy")
    entry, args = SMALL_ARGS["saxpy"]()
    key = cache_key(compiled.module, "bytecode", CompileOptions())
    cache = ArtifactCache(
        CacheOptions(cache_dir=str(tmp_path), mode="readwrite")
    )
    before = cache.store(
        "bytecode", key, [compiled.bytecode_artifact], []
    ).payload_bytes
    Runtime(compiled, CPU_ONLY).run(entry, args)
    assert staged_functions(compiled.bytecode_program)
    assert cache_key(compiled.module, "bytecode", CompileOptions()) == key
    after = cache.store("bytecode", key, [compiled.bytecode_artifact], [])
    assert after.payload_bytes == before
    loaded = cache.load("bytecode", key).artifacts[0].payload
    assert staged_functions(loaded) == {}
    assert loaded == compiled.bytecode_program


# ---------------------------------------------------------------------------
# Debuggability
# ---------------------------------------------------------------------------


def test_traceback_through_staged_code_shows_the_generated_line():
    program = _compile(RAISING)
    with pytest.raises(DeviceError) as raised:
        Interpreter(program).call("R.divide", [1, 0])
    frames = traceback.extract_tb(raised.value.__traceback__)
    staged = [f for f in frames if f.filename == "<staged R.divide>"]
    assert staged and "java_idiv" in staged[0].line
    assert linecache.getline("<staged R.divide>", staged[0].lineno).strip() == (
        staged[0].line
    )


def test_staged_source_sits_next_to_disassemble():
    function = _compile(RAISING).functions["R.down"]
    text = function.staged_source()
    assert text.startswith("def _staged(interp, args")
    assert "call('R.down'" in text
    assert "interp.cycles += c" in text
    compile(text, "<check>", "exec")
    assert function.disassemble().startswith(".method R.down")


def test_compiled_datapath_does_not_travel_with_a_pickled_bundle(tmp_path):
    # payload_bytes feeds modeled_load_s: one pickled attribute more on
    # an FPGA bundle moves modeled_s on every warm compile.
    compiled = CompilerSession().compile(SUITE["crc8"].source)
    (artifact,) = compiled.store.for_device("fpga")
    bundle = artifact.payload
    fresh = pickle.dumps(bundle, protocol=4)
    words = [bundle.encode(x) for x in (0x55, 0xAA, 7)]
    cold = FPGASimulator().run_stream(bundle.elaborate(), words)
    assert pickle.dumps(bundle, protocol=4) == fresh
    # Compiled once per bundle, not once per elaborate().
    datapath = bundle.compiled_datapath()
    bundle.elaborate()
    assert bundle.compiled_datapath() is datapath
    key = cache_key(compiled.module, "verilog", CompileOptions())
    cache = ArtifactCache(
        CacheOptions(cache_dir=str(tmp_path), mode="readwrite")
    )
    stored = cache.store("verilog", key, [artifact], [])
    assert stored.payload_bytes == len(fresh) + len(
        artifact.text.encode("utf-8")
    )
    loaded = cache.load("verilog", key).artifacts[0].payload
    assert loaded == bundle
    warm = FPGASimulator().run_stream(loaded.elaborate(), words)
    assert (warm.outputs, warm.cycles, warm.details) == (
        cold.outputs, cold.cycles, cold.details
    )
