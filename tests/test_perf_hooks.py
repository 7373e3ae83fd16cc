"""Every hook point of the wall-clock benchmark's tracer still exists.

``perf/tracing.py`` wraps the program at the attributes its ``WRAPS``
table names (``repro.lime.parser.lex``, ``repro.compiler.build_ir``,
...). A row that no longer resolves is only a warning there and its
layer metric reads ``null``, so a rename would silently blind the
benchmark. This test fails instead: every row resolves, ``install``
puts a wrapper at each one, a compile records spans for the four
frontend layers, and ``uninstall`` puts the originals back.
"""

import importlib.util
import os

import pytest

from repro.apps import SUITE
from repro.compiler import CompileOptions, CompilerSession

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "perf", "tracing.py"
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perf_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wraps_row_resolves(tracing, capsys):
    recorder = tracing.Recorder()
    assert recorder.missing == []
    assert "cannot trace" not in capsys.readouterr().err
    assert len(recorder._targets) == len(tracing.WRAPS)


def test_install_wraps_and_uninstall_restores(tracing):
    recorder = tracing.Recorder()
    originals = [
        (owner, attribute, original)
        for owner, attribute, original, _ in recorder._targets
    ]
    recorder.install()
    try:
        for owner, attribute, _, wrapper in recorder._targets:
            assert getattr(owner, attribute) is wrapper
        CompilerSession(CompileOptions()).compile(SUITE["saxpy"].source)
    finally:
        recorder.uninstall()
    for owner, attribute, original in originals:
        assert getattr(owner, attribute) is original
    layers = recorder.layers()
    for name in ("lime.lex", "lime.parse", "lime.check", "ir.build"):
        assert name in layers, name
