"""Characterisation golden for the service's durable files.

One client drives a journaled :class:`CoExecutionService` through the
eight kinds of perf's ``service_jobs`` workload, one job at a time.
A second incarnation over the same directory, with
``checkpoint_interval=1``, then runs a stream job (which writes a
checkpoint file) and a job whose second map returns a value the wire
format refuses (an enum whose name is longer than 255 bytes): its
first frame is written, and no frame that holds or follows the
unpackable output is.

The golden pins the sha256 and size of ``journal.rj`` and of every
``.ckpt`` file, so how and when the service writes them (one handle or
one open per record, arguments encoded once or twice, checkpoint
entries packed at capture or at persist) may change and the bytes may
not. Regenerate only for an intended change of the durable formats::

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
from repro.values import KIND_INT, ValueArray

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
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                data = handle.read()
            files[os.path.relpath(path, directory)] = {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
    return dict(sorted(files.items()))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    files = _record(str(tmp_path_factory.mktemp("durable")))
    if REGEN:
        with open(GOLDEN, "w") as handle:
            json.dump(files, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"regenerated {GOLDEN}")
    return files


def test_durable_files_locked(recorded):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert recorded == golden, (
        "the service's durable files drifted; regenerate with "
        "REPRO_REGEN_DURABLE_GOLDEN=1 only for an intended format change"
    )


def test_golden_covers_every_writer():
    """Anchors, so a regenerated file cannot pin a run that never wrote
    what it is named for."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    checkpoints = sorted(name for name in golden if name.endswith(".ckpt"))
    # The stream job and the first frame of the unpackable job.
    assert checkpoints == [
        os.path.join("checkpoints", "job-0009.ckpt"),
        os.path.join("checkpoints", "job-0010.ckpt"),
    ]
    assert set(golden) == set(checkpoints) | {"journal.rj"}
