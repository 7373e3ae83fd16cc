"""Golden-file regression tests for the fusion pass (docs/FUSION.md).

These freeze the canonical fused-IR printer output and the
``repro.fusion/1`` plan JSON for two suite apps: the IR map chain
(photo_pipeline) and a stream pipeline with no map chain, whose plan
is empty (gray_pipeline).
A diff here means the fusion planner, the composite-kernel
synthesizer, or the plan schema changed; if the change is intentional,
regenerate with::

    REPRO_REGEN_FUSION_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest tests/test_fusion_golden.py

(mirrors ``tests/golden/wire/``; see ``tests/golden/fusion/README``).
"""

import os

import pytest

from repro import schema
from repro.apps import compile_app
from repro.compiler import CompileOptions
from repro.ir.fusion import FUSION_PLAN_SPEC, FusionOptions, render_fused_ir

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "fusion")
REGEN = os.environ.get("REPRO_REGEN_FUSION_GOLDEN") == "1"
AUTO = CompileOptions(fusion=FusionOptions(mode="auto"))

CASES = ["gray_pipeline", "photo_pipeline"]


def _current(name):
    compiled = compile_app(name, AUTO)
    return (
        render_fused_ir(compiled.module, compiled.fusion_plan),
        compiled.fusion_plan.dumps(),
    )


def _golden_path(name, suffix):
    return os.path.join(GOLDEN_DIR, f"{name}.{suffix}")


def _check(path, current):
    if REGEN:
        with open(path, "w") as fh:
            fh.write(current)
        pytest.skip(f"regenerated {path}")
    with open(path) as fh:
        assert current == fh.read(), (
            f"fusion output drifted from {path}; regenerate with "
            "REPRO_REGEN_FUSION_GOLDEN=1 if the change is intentional"
        )


@pytest.mark.parametrize("name", CASES)
def test_fused_ir_locked(name):
    ir_text, _ = _current(name)
    _check(_golden_path(name, "fused-ir.txt"), ir_text)


@pytest.mark.parametrize("name", CASES)
def test_plan_locked(name):
    _, plan_json = _current(name)
    _check(_golden_path(name, "plan.json"), plan_json)


class TestGoldenContent:
    """Sanity anchors inside the golden text itself (so a regenerated
    golden cannot silently encode a broken pass)."""

    def test_map_chain_anchors(self):
        with open(_golden_path("photo_pipeline", "fused-ir.txt")) as fh:
            text = fh.read()
        assert text.startswith("fused-ir repro.fusion/1")
        assert "map-chain" in text
        assert "Photo.fused_Photo_brighten__Photo_clamp8" in text

    def test_graph_span_anchors(self):
        """A task-graph span is the runtime's substitution decision,
        never a plan group: the stream pipeline's golden is empty."""
        with open(_golden_path("gray_pipeline", "fused-ir.txt")) as fh:
            assert fh.read() == "fused-ir repro.fusion/1\n"

    @pytest.mark.parametrize("name", CASES)
    def test_plan_files_validate(self, name):
        import json

        with open(_golden_path(name, "plan.json")) as fh:
            data = json.load(fh)
        assert schema.problems(data, FUSION_PLAN_SPEC) == []
        assert data["schema"] == "repro.fusion/1"
        assert bool(data["groups"]) == (name == "photo_pipeline"), name
