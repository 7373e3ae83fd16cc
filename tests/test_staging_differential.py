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
import struct
import sys
import threading
import traceback
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.devices.gpu.simulator as gpu_simulator
import repro.runtime.engine as engine
from repro.apps import SUITE, compile_app
from repro.backends.artifacts import ArtifactCache, CacheOptions, cache_key
from repro.backends.bytecode import isa
from repro.backends.bytecode.compiler import compile_module
from repro.backends.bytecode.interpreter import Interpreter, Services
from repro.backends.bytecode.staging import staged_functions, staged_launches
from repro.compiler import CompileOptions, CompilerSession
from repro.devices.fpga import FPGASimulator
from repro.errors import DeviceError
from repro.ir import ops
from repro.ir.builder import build_ir
from repro.lime.typecheck import analyze
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_INT, MutableArray, ValueArray
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
    simulator = gpu_simulator.GPUSimulator
    originals = {name: getattr(simulator, name)
                 for name in ("run_map", "run_filter")}

    def recording(original):
        def run(self, kernel, operands):
            execution = original(self, kernel, operands)
            lists.append(list(execution.per_item_cycles))
            return execution
        return run

    for name, original in originals.items():
        setattr(simulator, name, recording(original))
    try:
        yield lists
    finally:
        for name, original in originals.items():
            setattr(simulator, name, original)


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
# Launch granularity: every GPU artifact, both schedulers, batch sizes
# ---------------------------------------------------------------------------

# Every map and reduce offloads (map_offload_min_items=1), so the small
# inputs reach the GPU too; filter batches of 1, 7 and 64 items. The
# b7 runs prefer the smallest spans (unfused), so the single-stage
# artifacts of a fusable chain run as well as the fused one.
LAUNCH_CONFIGS = {
    f"{scheduler}-b{batch}": RuntimeConfig(
        scheduler=scheduler,
        batch_size=batch,
        map_offload_min_items=1,
        policy=SubstitutionPolicy(prefer_larger=batch != 7),
    )
    for scheduler in ("sequential", "threaded")
    for batch in (1, 7, 64)
}
LAUNCH_CONFIGS["cpu_only-threaded"] = RuntimeConfig(
    policy=SubstitutionPolicy(use_accelerators=False), scheduler="threaded"
)


def _entries(name):
    """The app's small run, plus any entry that launches a GPU
    artifact that run does not (bitflip's map twin of its filter)."""
    entry, args = SMALL_ARGS[name]()
    runs = [(entry, args)]
    if name == "bitflip":
        runs.append(("Bitflip.mapFlip", args))
    return runs


def _launch_order_free(seen):
    """Concurrent device stages (threaded, unfused) launch in thread
    order: their launches compare as a multiset."""
    return {
        **seen,
        "per_item_cycles": sorted(seen["per_item_cycles"]),
        "kernel_log": sorted(seen["kernel_log"]),
    }


@pytest.mark.parametrize("config", sorted(LAUNCH_CONFIGS))
@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_launches_match_oracle(name, config):
    compiled = compile_app(name)
    for entry, args in _entries(name):
        staged = _observe(compiled, entry, args, LAUNCH_CONFIGS[config])
        with oracle_everywhere():
            oracle = _observe(
                compiled, entry, args, LAUNCH_CONFIGS[config],
                OracleInterpreter,
            )
        if config.startswith("threaded"):
            staged, oracle = map(_launch_order_free, (staged, oracle))
        assert staged == oracle, (name, entry)


def test_launch_configs_run_every_gpu_artifact():
    missing = {}
    for name in sorted(SUITE):
        compiled = compile_app(name)
        kernels = {a.payload.name for a in compiled.store.for_device("gpu")}
        for config in ("sequential-b7", "sequential-b64"):
            for entry, args in _entries(name):
                runtime = Runtime(compiled, LAUNCH_CONFIGS[config])
                runtime.run(entry, args)
                kernels -= {t.kernel_name for t in runtime.gpu.kernel_log}
        if kernels:
            missing[name] = sorted(kernels)
    assert not missing


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
# Launches: what N calls leave, raises mid-launch included
# ---------------------------------------------------------------------------

LAUNCHING = """
class L {
    local static int pick(int i, int[[]] xs) { return xs[i]; }
    local static int inv(int x) { return 100 / x; }
    local static int halfInv(int x) { return 100 / L.half(x); }
    local static int add(int a, int b) { return a + 100 / b; }
    local static int twice(int x) { return L.half(x) * 4; }
    local static int half(int x) { return x / 2; }
    local static int at(int i) {
        int[] t = new int[8];
        return t[i];
    }
    local static int pair(int x, int y) { return x + y; }
    local static int deep(int n) { return n == 0 ? 0 : 1 + L.deep(n - 1); }
    static int[[]] deepMap(int[[]] ns) { return L @ deep(ns); }
    static int deepSum(int[[]] ns) { return L ! pair(ns); }
}
"""

XS = _ints(7, 8, 9)


def _launched(cls, kind, methods, items, depth=400):
    """(result or (exception type, message), per_item, cycles,
    method_stats, _depth) of one launch on a fresh interpreter."""
    interp = cls(_compile(LAUNCHING), max_call_depth=depth)
    per_item = []
    try:
        result = interp.launch(kind, methods, items, per_item)
    except DeviceError as exc:
        result = (type(exc), str(exc))
    return result, per_item, interp.cycles, interp.method_stats, interp._depth


@pytest.mark.parametrize(
    "kind, methods, items, depth, message",
    [
        ("map", ["L.pick"], [(i, XS) for i in range(3)], 400, None),
        ("map", ["L.pick"], [(i, XS) for i in (0, 1, 3, 2)], 400,
         "array index 3 out of bounds (length 3)"),
        ("map", ["L.pick"], [(-1, XS), (0, XS)], 400,
         "array index -1 out of bounds (length 3)"),
        ("map", ["L.inv"], [(5,), (3,), (0,), (2,)], 400,
         "integer division by zero"),
        ("map", ["L.inv"], [], 400, None),
        ("reduce", ["L.add"], [1, 2, 4, 5], 400, None),
        ("reduce", ["L.add"], [9], 400, None),
        ("reduce", ["L.add"], [1, 2, 4, 0, 5], 400,
         "integer division by zero"),
        ("reduce", ["L.add"], [1, 0, 2], 400, "integer division by zero"),
        ("reduce", ["L.add"], [], 400, "reduce of empty array"),
        ("filter", ["L.twice", "L.at"], [0, 1, 3, 2], 400, None),
        ("filter", ["L.twice", "L.at"], [0, 1, 4, 2], 400,
         "array index 8 out of bounds (length 8)"),
        ("filter", ["L.inv", "L.twice", "L.at"], [50, 100, 0, 25], 400,
         "integer division by zero"),
        ("filter", ["L.twice", "L.inv", "L.half"], [9, 5, 1, 3], 400,
         "integer division by zero"),
        ("filter", ["L.halfInv", "L.twice"], [50, 8, 1, 4], 400,
         "integer division by zero"),
        ("filter", ["L.twice", "L.pair"], [1, 2], 400,
         "L.pair expects 2 arguments, got 1"),
        ("filter", ["L.twice", "L.nothing"], [1, 2], 400,
         "no such function 'L.nothing'"),
        ("map", ["L.deep"], [(3,), (5,), (40,), (1,)], 20,
         "stack overflow (recursion too deep)"),
        ("map", ["L.deep"], [(3,), (5,)], 0,
         "stack overflow (recursion too deep)"),
    ],
)
def test_launch_matches_oracle(kind, methods, items, depth, message):
    staged = _launched(Interpreter, kind, methods, items, depth)
    oracle = _launched(OracleInterpreter, kind, methods, items, depth)
    assert staged == oracle
    result = staged[0]
    raised = isinstance(result, tuple) and result[0] is DeviceError
    assert (result[1] if raised else None) == message
    assert staged[4] == 0


@pytest.mark.parametrize(
    "entry, ns, depth, message",
    [
        ("L.deepMap", (3, 5, 9, 1), 20, None),
        ("L.deepMap", (3, 5, 40, 1), 20, "stack overflow (recursion too deep)"),
        ("L.deepMap", (3, 5), 1, "stack overflow (recursion too deep)"),
        ("L.deepSum", (3, 5, 9), 1, "stack overflow (recursion too deep)"),
        ("L.deepSum", (3, 5, 9), 2, None),
    ],
)
def test_host_launch_inside_a_call_matches_oracle(entry, ns, depth, message):
    # The default services run map/reduce as launches one call deep.
    outcomes = []
    for cls in (Interpreter, OracleInterpreter):
        interp = cls(_compile(LAUNCHING), max_call_depth=depth)
        try:
            result = interp.call(entry, [_ints(*ns)])
        except DeviceError as exc:
            result = str(exc)
        outcomes.append((result, _state(interp), interp._depth))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0] == message) == (message is not None)


@settings(max_examples=60, deadline=None)
@given(
    int_exprs(),
    st.lists(
        st.tuples(*[st.integers(-50, 50)] * 3), min_size=1, max_size=12
    ),
)
def test_random_map_launch_matches_oracle(expr, items):
    # Random kernels divide by zero at whatever work-item they do.
    program = _compile(_program_for(expr))
    outcomes = []
    for interp in _both(program):
        per_item = []
        try:
            result = interp.launch("map", ["P.f"], items, per_item)
        except DeviceError as exc:
            result = str(exc)
        outcomes.append((result, per_item, _state(interp), interp._depth))
    assert outcomes[0] == outcomes[1]


def test_gpu_launch_raise_matches_oracle():
    # A raise inside GPUSimulator.run_map leaves the simulator's private
    # interpreter exactly as the per-item loop did.
    compiled = compile_app("matmul")
    (artifact,) = compiled.store.for_device("gpu")
    kernel = artifact.payload
    matrix = ValueArray(kernel.param_kinds[1].element, [1.0] * 9)
    indices = _ints(0, 4, 8, 30, 2)
    outcomes = []
    for cls in (Interpreter, OracleInterpreter):
        gpu = gpu_simulator.GPUSimulator(compiled.bytecode_program)
        gpu._interp = cls(compiled.bytecode_program)
        with pytest.raises(DeviceError) as raised:
            gpu.run_map(kernel, [indices, matrix, matrix, 3])
        interp = gpu._interp
        outcomes.append((str(raised.value), _state(interp), interp._depth))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].startswith("array index")


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


def test_aload_reads_array_storage_and_anything_else_as_before():
    program = _function(
        [(isa.LOAD, 0), (isa.LOAD, 1), (isa.ALOAD, None), (isa.RETV, None)],
        params=2,
    )
    mutable = MutableArray(KIND_INT, [4, 5, 6])
    cases = [
        (_ints(4, 5, 6), 2), (mutable, 1), (mutable, 3), (_ints(4), -1),
        ((4, 5), 1), ("ab", 1), (None, 0), (7, 0),
    ]
    for array, index in cases:
        outcomes = []
        for interp in _both(program):
            try:
                result = interp.call("H.f", [array, index])
            except Exception as exc:
                result = (type(exc), str(exc))
            outcomes.append((result, _state(interp)))
        assert outcomes[0] == outcomes[1], (array, index)


# ---------------------------------------------------------------------------
# The binary32 cell: staged code rounds a float result by a store
# ---------------------------------------------------------------------------

FLT_MAX = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]
TINY = 2.0**-149                   # the smallest binary32 subnormal
HALFWAY = FLT_MAX + 2.0**103       # half a binary32 ulp above FLT_MAX


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


_MAGNITUDES = [
    *_around(FLT_MAX), *_around(HALFWAY), *_around(TINY), *_around(TINY / 2),
    1 + 2.0**-24,                  # a tie, to even: 1.0
    1 + 3 * 2.0**-24,              # a tie, to even: 1 + 2**-22
    0.1, 0.0, math.inf,
]
EDGES = _MAGNITUDES + [-x for x in _MAGNITUDES] + [math.nan]


def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("x", EDGES, ids=repr)
def test_binary32_cell_rounds_like_to_float32(x):
    cell = ops.float32_cell()
    cell[0] = x
    assert _bits(cell[0]) == _bits(ops.to_float32(x))


@pytest.mark.parametrize(
    "code",
    [
        [(isa.CAST, "float")],
        [(isa.CONST, 1.0), (isa.BINOP, ("*", "float"))],
        [(isa.CONST, 1.0), (isa.BINOP, ("/", "float"))],
        [(isa.UNOP, ("-", "float")), (isa.UNOP, ("-", "float"))],
    ],
    ids=["cast", "multiply", "divide", "negate"],
)
def test_staged_float_results_round_through_the_cell(code):
    program = _function([(isa.LOAD, 0), *code, (isa.RETV, None)], params=1)
    source = program.functions["H.f"].staged_source()
    assert "    _f = float32_cell()\n" in source   # one cell per call
    assert "_f[0] = " in source and "to_float32" not in source
    staged, oracle = _both(program)
    for x in EDGES:
        got = staged.call("H.f", [x])
        assert _bits(got) == _bits(oracle.call("H.f", [x]))
        assert _bits(got) == _bits(ops.to_float32(x)), x
    assert _state(staged) == _state(oracle)


def test_float_kernels_on_two_threads_are_bit_identical():
    # Two threads, one program object, a 1 us switch interval: each
    # thread's host map (its own interpreter) and GPU map (one shared
    # simulator) give the bits and cycles a lone run gives. Without the
    # simulator's one-launch-at-a-time lock this fails: per-item cycles
    # absorb the other thread's. A shared binary32 cell would not fail
    # it on CPython 3.11, where no thread switch falls between a
    # rounding's store and its read; the per-call cell is pinned by
    # test_staged_float_results_round_through_the_cell.
    compiled = compile_app("black_scholes")
    program = compiled.bytecode_program
    (artifact,) = compiled.store.for_device("gpu")
    kernel = artifact.payload
    broadcast = kernel.properties["broadcast"]
    _, forward = SMALL_ARGS["black_scholes"]()
    backward = [
        ValueArray(a.element_kind, reversed(a)) if isinstance(a, ValueArray)
        else a
        for a in forward
    ]

    def one_round(gpu, args):
        interp = Interpreter(program)
        host = Services().execute_map(kernel.methods[0], args, broadcast, interp)
        device = gpu.run_map(kernel, args)
        return (_bits(*host), interp.cycles, interp.method_stats,
                _bits(*device.outputs), device.per_item_cycles)

    inputs = (forward, backward)
    expected = [
        one_round(gpu_simulator.GPUSimulator(program), args) for args in inputs
    ]
    shared = gpu_simulator.GPUSimulator(program)
    results = [[], []]

    def worker(slot):
        for _ in range(8):
            results[slot].append(one_round(shared, inputs[slot]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for slot in (0, 1):
        assert len(results[slot]) == 8
        assert all(got == expected[slot] for got in results[slot])


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


def test_launches_are_staged_on_first_run_and_shared_per_program_object():
    compiled = CompilerSession().compile(SUITE["saxpy"].source)
    program = compiled.bytecode_program
    assert staged_launches(program) == {}       # nothing at compile time
    fresh = pickle.dumps(program, protocol=4)
    entry, args = SMALL_ARGS["saxpy"]()
    Runtime(compiled, CPU_ONLY).run(entry, args)
    (key,) = staged_launches(program)
    assert key == ("map", ("Saxpy.axpy",))
    launch = staged_launches(program)[key]
    Runtime(compiled, CPU_ONLY).run(entry, args)
    assert staged_launches(program)[key] is launch
    assert pickle.dumps(program, protocol=4) == fresh
    assert staged_launches(pickle.loads(fresh)) == {}


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


def test_traceback_through_a_launch_shows_the_generated_line():
    # Work-item 0 runs through call(); item 2 raises inside the loop.
    program = _compile(LAUNCHING)
    with pytest.raises(DeviceError) as raised:
        Interpreter(program).launch("filter", ["L.twice", "L.inv"], [9, 5, 1])
    frames = traceback.extract_tb(raised.value.__traceback__)
    name = "<staged launch L.twice|L.inv>"
    launch = [f for f in frames if f.filename == name]
    assert [f.line for f in launch] == ["v = f1(interp, (v,))"]
    assert linecache.getline(name, launch[0].lineno).strip() == launch[0].line
    names = [f.filename for f in frames]
    assert names.index("<staged L.inv>") > names.index(name)


def test_staged_launch_source_sits_next_to_staged_source():
    program = _compile(LAUNCHING)
    for kind, methods, head in [
        ("map", ["L.pick"], "def _launch(interp, items, out, record, f0="),
        ("filter", ["L.twice", "L.inv"], "def _launch(interp, items, out"),
        ("reduce", ["L.add"], "def _launch(interp, acc, items, f0="),
    ]:
        text = program.staged_launch_source(kind, methods)
        assert text.startswith(head)
        assert all(f"stats[{m!r}]" in text for m in methods)
        compile(text, "<check>", "exec")


def test_compiled_datapath_does_not_travel_with_a_pickled_bundle(tmp_path):
    # payload_bytes feeds modeled_load_s: one pickled attribute more on
    # an FPGA bundle moves modeled_s on every warm compile.
    compiled = CompilerSession().compile(SUITE["crc8"].source)
    (artifact,) = compiled.store.for_device("fpga")
    bundle = artifact.payload
    fresh = pickle.dumps(bundle, protocol=4)
    encode, _ = bundle.converters()
    words = [encode(x) for x in (0x55, 0xAA, 7)]
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
