"""Entry arguments are checked once, against the checker's signature.

``Runtime.run`` and ``CoExecutionService.submit`` refuse an argument
its parameter's type does not admit with ``ArgumentTypeError``, which
names the parameter and is no ``DeviceError``: no retry, breaker or
demotion sees it, the interpreter never starts, and the service
journals nothing. An integer for a ``float`` or ``double`` parameter is
converted at the entry, as Java's widening conversion does, and that
value is what runs and what the service journals. Every suite and
benchmark input is accepted as is.
"""

import importlib.util
import os
import sys

import pytest

from repro.apps import SUITE, compile_app, workloads
from repro.compiler import compile_program
from repro.errors import ArgumentTypeError, DeviceError, ValueSemanticsError
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.engine import check_entry_args
from repro.service import CoExecutionService, ServiceConfig, load_journal
from repro.values import KIND_FLOAT, KIND_INT, MutableArray, ValueArray

XS = ValueArray(KIND_FLOAT, [1.0, 2.0, 3.0])
YS = ValueArray(KIND_FLOAT, [0.5, 0.5, 0.5])

SMALL = """
class P {
    static int inc(int x) { return x + 1; }
    static int ab(int x) { return Math.abs(x); }
    static void fill(int[] out, int[[]] xs) { out[0] = xs[0]; }
    static double half(double d) { return d / 2; }
    static float f(float x) { return x; }
    static double id(double d) { return d; }
    static long wide(long v) { return v; }
}
"""

SAXPY = SUITE["saxpy"].source

#: (source, entry, args, the parameter refused).
ILL_TYPED = {
    "saxpy-float-for-ys": (SAXPY, "Saxpy.run", [2.5, XS, 1.5], "ys"),
    "saxpy-array-for-a": (SAXPY, "Saxpy.run", [XS, XS, YS], "a"),
    "saxpy-str-for-ys": (SAXPY, "Saxpy.run", [2.5, XS, "ys"], "ys"),
    "inc-double": (SMALL, "P.inc", [2.5], "x"),
    "ab-double": (SMALL, "P.ab", [-2.7], "x"),
    "bool-for-int": (SMALL, "P.inc", [True], "x"),
    # An int or long holds only its range: no entry may pass 2**40 for
    # an int (it would run as a value no int holds).
    "int-above-range": (SMALL, "P.inc", [2**31], "x"),
    "int-below-range": (SMALL, "P.inc", [-(2**31) - 1], "x"),
    "int-far-above-range": (SMALL, "P.inc", [2**40], "x"),
    "long-above-range": (SMALL, "P.wide", [2**63], "v"),
    "long-below-range": (SMALL, "P.wide", [-(2**63) - 1], "v"),
    "value-array-for-mutable": (SMALL, "P.fill", [XS, XS], "out"),
    "wrong-element-kind": (
        SMALL, "P.fill",
        [MutableArray(KIND_INT, [0]), ValueArray(KIND_FLOAT, [1.0])], "xs",
    ),
}


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_runtime_refuses_an_ill_typed_argument(case, scheduler):
    source, entry, args, parameter = ILL_TYPED[case]
    runtime = Runtime(
        compile_program(source), RuntimeConfig(scheduler=scheduler)
    )
    with pytest.raises(ArgumentTypeError) as err:
        runtime.run(entry, args)
    assert not isinstance(err.value, DeviceError)
    assert err.value.parameter == parameter
    assert f"parameter {parameter!r}" in str(err.value)
    # Refused before the interpreter started.
    assert runtime.interp.cycles == 0
    assert runtime.substitution_log == []


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_submit_refuses_an_ill_typed_job_and_journals_nothing(
    case, scheduler, tmp_path
):
    source, entry, args, parameter = ILL_TYPED[case]
    journal = tmp_path / "journal"
    service = CoExecutionService(ServiceConfig(
        runtime=RuntimeConfig(scheduler=scheduler),
        journal_dir=str(journal),
    ))
    with pytest.raises(ArgumentTypeError) as err:
        service.submit(source, entry, args, tenant="t")
    assert err.value.parameter == parameter
    service.drain()
    assert service.to_report()["jobs"] == []
    snapshot = load_journal(str(journal))
    assert snapshot.jobs == {} and snapshot.records == 0


def test_a_program_that_does_not_compile_keeps_its_path():
    service = CoExecutionService(ServiceConfig(
        runtime=RuntimeConfig(scheduler="sequential")
    ))
    job_id = service.submit("class {", "P.f", [2.5], tenant="t")
    service.drain()
    assert service.status(job_id)["state"] == "failed"


def test_well_typed_scalars_pass_as_the_wire_admits_them():
    runtime = Runtime(compile_program(SMALL))
    assert runtime.run("P.inc", [41]).value == 42
    assert runtime.run("P.half", [3]).value == 1.5  # an int for a double


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
def test_the_edges_of_the_integral_ranges_are_accepted(scheduler):
    runtime = Runtime(
        compile_program(SMALL), RuntimeConfig(scheduler=scheduler)
    )
    assert runtime.run("P.inc", [2**31 - 1]).value == -(2**31)   # wraps
    assert runtime.run("P.inc", [-(2**31)]).value == -(2**31) + 1
    assert runtime.run("P.wide", [2**63 - 1]).value == 2**63 - 1
    assert runtime.run("P.wide", [-(2**63)]).value == -(2**63)
    assert runtime.run("P.wide", [2**40]).value == 2**40
    assert runtime.run("P.id", [float("nan")]).value != 0.0     # NaN runs


def _out_of_range_fill():
    return [MutableArray(KIND_INT, [0]), ValueArray(KIND_INT, [2**40])]


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
def test_an_int_array_element_out_of_range_is_refused(scheduler, tmp_path):
    # An int array holds only ints: the array refuses 2**40 when it is
    # built, so no entry, run or job ever sees it, and fits_type may
    # take an array's elements as checked.
    runtime = Runtime(
        compile_program(SMALL), RuntimeConfig(scheduler=scheduler)
    )
    with pytest.raises(ValueSemanticsError, match="^int element 1099511627776"):
        runtime.run("P.fill", _out_of_range_fill())
    assert runtime.interp.cycles == 0
    journal = tmp_path / "journal"
    service = CoExecutionService(ServiceConfig(
        runtime=RuntimeConfig(scheduler=scheduler),
        journal_dir=str(journal),
    ))
    with pytest.raises(ValueSemanticsError, match="out of range"):
        service.submit(SMALL, "P.fill", _out_of_range_fill(), tenant="t")
    service.drain()
    assert service.to_report()["jobs"] == []
    snapshot = load_journal(str(journal))
    assert snapshot.jobs == {} and snapshot.records == 0


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
def test_an_int_for_a_floating_parameter_is_widened_at_the_entry(scheduler):
    runtime = Runtime(
        compile_program(SMALL), RuntimeConfig(scheduler=scheduler)
    )
    # 2**24 + 1 has no binary32: it rounds once, to even.
    value = runtime.run("P.f", [16777217]).value
    assert type(value) is float and value == 16777216.0
    value = runtime.run("P.id", [3]).value
    assert type(value) is float and value == 3.0
    # Above 2**53 the one rounding is to binary32, not via a double:
    # 2**60 + 2**36 + 1 is just above a binary32 tie, so it rounds up.
    value = runtime.run("P.f", [2**60 + 2**36 + 1]).value
    assert value == float(2**60 + 2**37)
    assert runtime.run("P.f", [-16777217]).value == -16777216.0


def test_a_service_job_runs_and_journals_the_widened_argument(tmp_path):
    journal = tmp_path / "journal"
    service = CoExecutionService(ServiceConfig(
        runtime=RuntimeConfig(scheduler="sequential"),
        journal_dir=str(journal),
    ))
    job_id = service.submit(SMALL, "P.f", [16777217], tenant="t")
    service.drain()
    value = service.result(job_id).value
    assert type(value) is float and value == 16777216.0
    args = load_journal(str(journal)).jobs[job_id].args
    assert args == [16777216.0] and type(args[0]) is float


def _perf_workloads():
    perf = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perf")
    sys.path.insert(0, perf)  # perf/workloads.py imports its sibling refs
    try:
        spec = importlib.util.spec_from_file_location(
            "perf_workloads", os.path.join(perf, "workloads.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perf)
    return module


def test_every_suite_and_benchmark_input_is_accepted():
    perf = _perf_workloads()
    inputs = [(name, *workloads.small_args(name)) for name in SUITE]
    inputs += [(name, *SUITE[name].default_args()) for name in SUITE]
    inputs += [(name, e, a) for name, (e, a) in perf.map_inputs(1).items()]
    for sizes in (perf.FPGA_SIZES, perf.SERVICE_SIZES):
        inputs += [
            (name, e, a)
            for name, (e, a) in perf.stream_inputs(1, sizes).items()
        ]
    for name, entry, args in inputs:
        ran = check_entry_args(compile_app(name), entry, list(args))
        # Already of their parameters' classes: nothing is converted.
        assert [type(a) for a in ran] == [type(a) for a in args], name
        assert ran == list(args), name
