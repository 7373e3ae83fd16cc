"""Tests for the on-disk artifact repository (Section 1's repository
form of artifact distribution).

``repro build FILE -o DIR`` compiles into a readwrite artifact cache at
DIR (docs/CACHING.md). Compiling the file again with DIR as a read-mode
cache loads every backend's artifacts, exclusions and texts from the
verified entries instead of running the backends.
"""

import os

from tests.lime_sources import FIGURE1
from repro.backends.artifacts import CacheOptions
from repro.cli import main
from repro.compiler import CompileOptions, CompilerSession, compile_program
from repro.runtime import Runtime
from repro.values import KIND_BIT, ValueArray, parse_bit_literal

LOCAL_FLOAT = """
class T {
    local static float f(float x) { return x + 1.0f; }
    static void m(float[[]] xs, float[] out) {
        var t = xs.source(1) => ([ task f ]) => out.sink();
        t.finish();
    }
}
"""


def _build(tmp_path, source=FIGURE1) -> str:
    path = tmp_path / "prog.lime"
    path.write_text(source)
    out = str(tmp_path / "built")
    assert main(["build", str(path), "-o", out]) == 0
    return out


def _reload(directory, source=FIGURE1, filename=None):
    options = CompileOptions(
        cache=CacheOptions(cache_dir=str(directory), mode="read")
    )
    return CompilerSession(options).compile(source, filename=filename)


class TestRoundTrip:
    def test_save_creates_index_and_files(self, tmp_path):
        out = _build(tmp_path)
        assert len(os.listdir(os.path.join(out, "programs"))) == 1
        names = [
            name
            for _, _, files in os.walk(os.path.join(out, "objects"))
            for name in files
        ]
        assert any(n.endswith(".cl") for n in names)
        assert any(n.endswith(".v") for n in names)
        assert any(n.endswith(".pkl") for n in names)

    def test_reload_preserves_manifests(self, tmp_path):
        compiled = compile_program(FIGURE1)
        reloaded = _reload(_build(tmp_path))
        assert reloaded.warm
        assert len(reloaded.store) == len(compiled.store)
        original_ids = {a.artifact_id for a in compiled.store.all()}
        assert {a.artifact_id for a in reloaded.store.all()} == original_ids

    def test_reload_preserves_exclusions(self, tmp_path):
        compiled = compile_program(LOCAL_FLOAT)
        reloaded = _reload(_build(tmp_path, LOCAL_FLOAT), LOCAL_FLOAT)
        assert reloaded.warm
        assert len(reloaded.store.exclusions) == len(
            compiled.store.exclusions
        )
        assert reloaded.store.exclusions[0].reason

    def test_reloaded_store_executes(self, tmp_path):
        reloaded = _reload(_build(tmp_path))
        runtime = Runtime(reloaded)
        stream = ValueArray(KIND_BIT, parse_bit_literal("110010111"))
        result = runtime.call("Bitflip.taskFlip", [stream])
        assert repr(result) == "001101000b"
        _, decisions = runtime.substitution_log[0]
        assert decisions  # substitution worked from reloaded artifacts
        for decision in decisions:
            assert reloaded.store.lookup(decision.artifact_id) is not None

    def test_text_files_match(self, tmp_path):
        compiled = compile_program(FIGURE1)
        reloaded = _reload(_build(tmp_path))
        assert reloaded.warm
        for artifact in compiled.store.all():
            if artifact.text:
                again = reloaded.store.lookup(artifact.artifact_id)
                assert again.text == artifact.text

    def test_load_missing_directory(self, tmp_path):
        # A missing repository is an empty read-only cache: the compile
        # is cold, and reading creates no directory.
        missing = tmp_path / "nothing"
        reloaded = _reload(missing)
        assert not reloaded.warm
        assert len(reloaded.store) == len(compile_program(FIGURE1).store)
        assert not missing.exists()
