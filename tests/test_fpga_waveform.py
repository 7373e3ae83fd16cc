"""The FPGA simulator records a waveform only when someone reads it.

An offload reads a run's outputs and cycles and drops the result, so
``FPGASimulator.run_stream`` records nothing; ``FPGARunResult.vcd``
replays the run with a ``VCDWriter`` attached on first read. The bytes
of that replay are pinned by ``tests/golden/fpga_waveforms.json``
(``test_golden_artifacts.py``); this module pins that the offload path
never records, that the replay is memoised and private to the result,
that a negative word renders as its two's complement bits,
and that the value converters of a bundle equal the per-item type
ladder they replaced.
"""

import re

import pytest

from repro.apps import SUITE, compile_app
from repro.devices.fpga import FPGASimulator, VCDWriter
from repro.errors import SimulationError
from repro.ir import ops
from repro.lime import types as ty
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.substitution import SubstitutionPolicy
from repro.values.bits import Bit
from repro.values.enums import EnumValue

FPGA_FIRST = SubstitutionPolicy(device_order=("fpga", "gpu"))
STREAM_APPS = ("bitflip", "gray_pipeline", "parity", "crc8")


def _run(app, scheduler):
    entry, args = SUITE[app].default_args()
    outcome = Runtime(
        compile_app(app),
        RuntimeConfig(policy=FPGA_FIRST, scheduler=scheduler),
    ).run(entry, args)
    ledger = outcome.ledger
    return {
        "value": repr(outcome.value),
        "args": repr(args),
        "summary": ledger.summary(),
        "offloads": sorted(
            (r.device, r.target, r.items, r.kernel_s)
            for r in ledger.offloads
        ),
        "stages": sorted(
            (stage.task_id, stage.device, stage.items, stage.busy_s)
            for run in ledger.graph_runs
            for stage in run.stages.values()
        ),
    }


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("app", STREAM_APPS)
def test_offload_records_no_waveform(app, scheduler, monkeypatch):
    plain = _run(app, scheduler)
    assert any(device == "fpga" for device, *_ in plain["offloads"])

    def record(self, time, name, value):
        raise AssertionError("an offload recorded a waveform")

    monkeypatch.setattr(VCDWriter, "record", record)
    assert _run(app, scheduler) == plain


def _crc8_run(items, **kwargs):
    (artifact,) = compile_app("crc8").store.for_device("fpga")
    return FPGASimulator().run_stream(
        artifact.payload.elaborate(), items, **kwargs
    )


def test_vcd_is_recorded_once_per_result():
    result = _crc8_run([1, 2, 3])
    assert result.vcd is result.vcd
    assert result.vcd.rising_edges("outReady")


def test_replay_does_not_see_the_callers_list():
    words = [0x55, 0xAA, 7]
    untouched = _crc8_run(list(words)).vcd.render()
    items = list(words)
    result = _crc8_run(items)
    items[:] = [0, 0, 0, 0]
    assert result.vcd.render() == untouched


def test_overrun_raises_from_run_stream():
    with pytest.raises(SimulationError, match="did not finish"):
        _crc8_run([1], expected_outputs=5, max_cycles=50)


def test_negative_words_render_as_their_bits():
    # A multi-bit change is a VCD binary vector: a negative word is
    # printed as its two's complement at the signal's width.
    text = _crc8_run([-1, 5]).vcd.render()
    ids = {
        parts[4]: parts[3]
        for parts in (line.split() for line in text.splitlines())
        if parts[0] == "$var"
    }
    vectors = [line for line in text.splitlines() if line.startswith("b")]
    assert vectors
    for line in vectors:
        assert re.fullmatch(r"b[01]+ \S+", line), line
    assert f"b{'1' * 32} {ids['inWord']}" in vectors


# ---------------------------------------------------------------------------
# One value converter per bundle
# ---------------------------------------------------------------------------


def ladder_encode(value):
    """``FPGAModuleBundle.encode`` as it walked every item."""
    if isinstance(value, Bit):
        return int(value)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, EnumValue):
        return value.ordinal
    return int(value)


def ladder_decode(out, raw):
    """``FPGAModuleBundle.decode`` as it walked every item."""
    if out == ty.BIT:
        return Bit(raw & 1)
    if out == ty.BOOLEAN:
        return bool(raw & 1)
    if isinstance(out, ty.ClassType) and out.is_enum:
        return EnumValue(out.name, raw, out.enum_size)
    return ops.apply_cast(raw, out.name)


#: Values of each input type the suite's FPGA artifacts take, and raw
#: output words of each width (unsigned register words, as the
#: simulator reads them off ``outData``).
VALUES = {
    "bit": [Bit(0), Bit(1), 0, 1, True, False],
    "int": [0, 1, -1, 42, 2**31 - 1, -(2**31), True],
}
WORDS = {1: [0, 1, 2, 3], 32: [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]}


def _suite_bundles():
    return [
        artifact.payload
        for app in sorted(SUITE)
        for artifact in compile_app(app).store.for_device("fpga")
    ]


def test_converters_equal_the_ladder():
    bundles = _suite_bundles()
    assert {b.in_type.name for b in bundles} == set(VALUES)
    for bundle in bundles:
        encode, decode = bundle.converters()
        for value in VALUES[bundle.in_type.name]:
            old = ladder_encode(value)
            assert (encode(value), type(encode(value))) == (old, type(old))
        for raw in WORDS[bundle.out_width]:
            old = ladder_decode(bundle.out_type, raw)
            new = decode(raw)
            assert (new, type(new)) == (old, type(old))


def test_converters_are_resolved_once_per_bundle():
    bundle = _suite_bundles()[0]
    assert bundle.converters() is bundle.converters()
