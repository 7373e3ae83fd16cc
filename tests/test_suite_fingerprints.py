"""Characterisation golden: what the compiler produces for the suite.

For each of the 17 ``repro.apps.SUITE`` apps under default
``CompileOptions`` this pins ``ir_fingerprint(module)`` and, per
artifact id, ``sha256(text)`` and ``payload_bytes`` counted the way
``ArtifactCache.store`` counts them (pickled payload, protocol 4, plus
the UTF-8 text). Those are exactly the inputs of ``cache_key``,
``modeled_compile_s`` (per generated character) and ``modeled_load_s``
(per payload byte): if one moves, ``modeled_s`` moves on the
``compile_cold``/``compile_warm`` workloads of ``perf/`` and
``perf/compare.py`` calls that ``worse`` at bound 0. This test says so
in a couple of seconds.

The file was recorded on the commit *before* the constant folder and
the FPGA datapath were moved onto ``repro.ir.ops`` (DESIGN.md §3a); a
diff means a change to operator folding, IR lowering, codegen text or a
pickled payload attribute reached the suite. Regenerate only for an
intended change of that kind::

    REPRO_REGEN_SUITE_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest tests/test_suite_fingerprints.py
"""

import hashlib
import json
import os
import pickle

import pytest

from repro.apps import SUITE
from repro.compiler import compile_program
from repro.ir.fingerprint import ir_fingerprint

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "suite_fingerprints.json"
)
REGEN = os.environ.get("REPRO_REGEN_SUITE_GOLDEN") == "1"


def fingerprint(name: str) -> dict:
    # A fresh compile, not ``compile_app``: its cached results have
    # been run by other tests.
    result = compile_program(SUITE[name].source, filename=f"<{name}.lime>")
    artifacts = {}
    for artifact in result.store.all():
        text = (artifact.text or "").encode("utf-8")
        artifacts[artifact.artifact_id] = {
            "text_sha256": hashlib.sha256(text).hexdigest(),
            "payload_bytes": len(
                pickle.dumps(artifact.payload, protocol=4)
            ) + len(text),
        }
    return {"ir": ir_fingerprint(result.module), "artifacts": artifacts}


def _load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_the_suite():
    if REGEN:
        recorded = {name: fingerprint(name) for name in sorted(SUITE)}
        with open(GOLDEN, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    assert sorted(_load_golden()) == sorted(SUITE)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_fingerprint(name):
    assert fingerprint(name) == _load_golden()[name]
