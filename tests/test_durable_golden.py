"""Characterisation golden for the service's durable files.

One client drives a journaled :class:`CoExecutionService` through the
eight kinds of perf's ``service_jobs`` workload, one job at a time.
A second incarnation over the same directory, with
``checkpoint_interval=1``, then runs a stream job (which writes a
checkpoint frame) and a job whose second map returns a value the wire
format refuses (an enum whose name is longer than 255 bytes): its
first frame is written, and no frame that holds or follows the
unpackable output is.

The golden pins two things. ``files``: the sha256 and size of every
file the runs leave in the journal directory -- only ``journal.rj``.
``streams``: the ordered sha256 of every frame payload, split by
schema and, for checkpoint frames, by ``job_id``. The streams were
recorded when checkpoint frames still lived in one file per job, so
they pin the record and frame bytes across that change of layout. How and when the service
writes them (one handle or one open per record, arguments encoded
once or twice, checkpoint entries packed at capture or at persist)
may change and the bytes may not. Regenerate only for an intended
change of the durable formats::

    REPRO_REGEN_DURABLE_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest tests/test_durable_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.apps import SUITE, workloads
from repro.obs import Tracer
from repro.runtime import RuntimeConfig
from repro.service import CoExecutionService, ServiceConfig
from repro.service.journal import JOURNAL_MAGIC
from repro.values import KIND_INT, ValueArray, unframe_records

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "durable_files.json"
)
REGEN = os.environ.get("REPRO_REGEN_DURABLE_GOLDEN") == "1"

#: The op kinds of perf's ``service_jobs`` workload.
SERVICE_KINDS = (
    "bitflip", "gray_pipeline", "parity", "crc8",
    "running_sum", "saxpy", "vector_sum", "photo_pipeline",
)

_LONG = "c" + "x" * 260   # an enum name the wire format cannot carry

#: Three top-level maps: packable, unpackable, packable.
UNPACKABLE = f"""
public value enum {_LONG} {{
    lo, hi;
}}
public class Unpackable {{
    local static int twice(int x) {{ return x + x; }}
    local static {_LONG} pick(int x) {{ return x > 2 ? {_LONG}.hi : {_LONG}.lo; }}
    static int go(int[[]] xs) {{
        var ys = Unpackable @ twice(xs);
        var zs = Unpackable @ pick(ys);
        var ws = Unpackable @ twice(ys);
        return zs.length + ws.length;
    }}
}}
"""


def _submit(service, app, source, entry, args):
    job_id = service.submit(source, entry, args, tenant="golden", app=app)
    return service.result(job_id, timeout_s=60.0)


def _record(directory: str) -> dict:
    first = CoExecutionService(ServiceConfig(journal_dir=directory))
    for app in SERVICE_KINDS:
        entry, args = workloads.small_args(app)
        _submit(first, app, SUITE[app].source, entry, args)
    first.drain()

    tracer = Tracer()
    second = CoExecutionService(ServiceConfig(
        journal_dir=directory,
        checkpoint_interval=1,
        runtime=RuntimeConfig(tracer=tracer),
    ))
    entry, args = workloads.small_args("gray_pipeline")
    _submit(second, "gray_pipeline", SUITE["gray_pipeline"].source,
            entry, args)
    outcome = _submit(second, "unpackable", UNPACKABLE, "Unpackable.go",
                      [ValueArray(KIND_INT, [1, 2, 3, 4])])
    assert outcome.value == 8
    assert tracer.counters.get("checkpoint.disabled") == 1
    second.drain()

    files = {}
    streams: dict = {}
    for root, _dirs, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                data = handle.read()
            files[os.path.relpath(path, directory)] = {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            payloads, torn = unframe_records(data[len(JOURNAL_MAGIC):])
            assert torn == 0, path
            for payload in payloads:
                streams.setdefault(_stream(payload), []).append(
                    hashlib.sha256(payload).hexdigest()
                )
    return {"files": dict(sorted(files.items())),
            "streams": dict(sorted(streams.items()))}


def _stream(payload: bytes) -> str:
    """Lifecycle records form one stream; checkpoint frames one per
    job."""
    record = json.loads(payload.decode("utf-8"))
    if record["schema"] == "repro.checkpoint/1":
        return f"{record['schema']} {record['job_id']}"
    return record["schema"]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    durable = _record(str(tmp_path_factory.mktemp("durable")))
    if REGEN:
        with open(GOLDEN, "w") as handle:
            json.dump(durable, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"regenerated {GOLDEN}")
    return durable


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_durable_files_locked(recorded):
    assert recorded["files"] == _golden()["files"], (
        "the service's durable files drifted; regenerate with "
        "REPRO_REGEN_DURABLE_GOLDEN=1 only for an intended format change"
    )


def test_frame_streams_locked(recorded):
    """Every lifecycle record and every checkpoint frame, in order per
    stream, byte for byte."""
    assert recorded["streams"] == _golden()["streams"], (
        "a journal record or checkpoint frame changed bytes or order"
    )


def test_golden_covers_every_writer():
    """Anchors, so a regenerated file cannot pin a run that never wrote
    what it is named for."""
    golden = _golden()
    assert list(golden["files"]) == ["journal.rj"]
    # The stream job and the first frame of the unpackable job.
    assert list(golden["streams"]) == [
        "repro.checkpoint/1 job-0009",
        "repro.checkpoint/1 job-0010",
        "repro.journal/1",
    ]
    assert len(golden["streams"]["repro.checkpoint/1 job-0010"]) == 1
