"""The runtime and the devices load without the compiler.

The compiler emits artifacts and the runtime substitutes from them
(DESIGN.md §3, "Layers"). So importing the runtime, a device simulator
or a module the interpreter reads must not load the frontend, the IR
lowering or fusion, any backend compiler, the profiler or exporters,
or the application suite. Each case imports its modules in a fresh
interpreter and reports what ``sys.modules`` then holds.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules at or above the compiler that nothing below it may load.
ABOVE_THE_RUNTIME = (
    "repro.compiler",
    "repro.lime.lexer",
    "repro.lime.parser",
    "repro.lime.typecheck",
    "repro.lime.printer",
    "repro.lime.symbols",
    "repro.lime.ast_nodes",
    "repro.ir.builder",
    "repro.ir.fusion",
    "repro.ir.optimizations",
    "repro.ir.shape",
    "repro.ir.verifier",
    "repro.backends.bytecode.compiler",
    "repro.backends.opencl.compiler",
    "repro.backends.opencl.codegen",
    "repro.backends.verilog.compiler",
    "repro.obs.profile",
    "repro.obs.export",
    "repro.apps",
)


def _loaded_after(*modules) -> set:
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro'))))\n"
    )
    path = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(done.stdout))


@pytest.mark.parametrize(
    "modules",
    [
        ("repro.runtime", "repro.devices.gpu", "repro.devices.fpga"),
        ("repro.ir.ops", "repro.lime.types", "repro.obs"),
        ("repro.backends.bytecode.interpreter",),
    ],
    ids=["runtime+devices", "leaves", "interpreter"],
)
def test_import_closure_holds_no_compiler(modules):
    loaded = _loaded_after(*modules)
    assert set(modules) <= loaded
    assert sorted(loaded.intersection(ABOVE_THE_RUNTIME)) == []
