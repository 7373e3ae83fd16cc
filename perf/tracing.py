"""Layer tracing from outside the program.

Every wrapper comes from the one table ``WRAPS``: span name ->
(module, attribute[, counts]). ``install`` replaces the attribute *where
the program looks it up* (``repro.compiler.build_ir``, not
``repro.ir.build_ir``: the driver imported the name), ``uninstall``
puts the originals back; both are a handful of ``setattr`` calls, so the
traced pass can alternate traced and untraced rounds. A row whose module
or attribute is gone is skipped with a warning and its layer's metrics
read ``null`` -- a refactor of the program must not be able to crash the
benchmark it is judged by.

A span is (id, name, start, end, parent id, op id, thread, counts);
spans stay in memory until ``Recorder.write``. A layer's self time is
its span minus the child spans on the same thread.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

# Wrapper flags. OPAQUE: nothing below this span is recorded (the GPU
# simulator runs every work-item through its private interpreter; those
# calls are the simulator's own cost). OUTERMOST: recorded only when no
# span of the same name is open on the thread (Interpreter.call
# recurses for every Lime call).
OPAQUE = "opaque"
OUTERMOST = "outermost"


def _compile_counts(kind_key):
    def counts(args, backend):
        artifacts = backend.artifacts
        return {
            kind_key: len(artifacts),
            "source_bytes": sum(len(a.text or "") for a in artifacts),
        }

    return counts


def _marshal_counts(args, result):
    return {"crossings": 1, "bytes": result[1].num_bytes}


def _gpu_counts(items_of):
    def counts(args, execution):
        return {
            "launches": 1,
            "items": items_of(args, execution),
            "modeled_kernel_s": execution.timing.kernel_s,
        }

    return counts


#: span name -> (module, dotted attribute, counts(args, result) | None,
#: flag | None). Several rows may share a span name by suffixing '#n'.
WRAPS = {
    "lime.lex": (
        "repro.lime.parser", "lex",
        lambda args, tokens: {"tokens": len(tokens)}, None,
    ),
    "lime.parse": ("repro.lime.typecheck", "parse", None, None),
    "lime.check": ("repro.lime.typecheck", "check", None, None),
    "ir.build": (
        "repro.compiler", "build_ir",
        lambda args, module: {
            "functions": len(module.functions),
            "task_graphs": len(module.task_graphs),
        },
        None,
    ),
    "bytecode.compile": (
        "repro.compiler", "make_cpu_artifact",
        lambda args, artifact: {
            "instructions": sum(
                len(f.code) for f in artifact.payload.functions.values()
            )
        },
        None,
    ),
    "opencl.compile": (
        "repro.compiler", "compile_gpu", _compile_counts("kernels"), None,
    ),
    "verilog.compile": (
        "repro.compiler", "compile_fpga", _compile_counts("modules"), None,
    ),
    "artifacts.key": ("repro.compiler", "cache_key", None, None),
    "artifacts.load": (
        "repro.backends.artifacts", "ArtifactCache.load",
        lambda args, entry: (
            {"misses": 1} if entry is None
            else {"hits": 1, "bytes_loaded": entry.payload_bytes}
        ),
        None,
    ),
    "artifacts.store": (
        "repro.backends.artifacts", "ArtifactCache.store", None, None,
    ),
    "interp": (
        "repro.backends.bytecode.interpreter", "Interpreter.call",
        None, OUTERMOST,
    ),
    "gpu.run#map": (
        "repro.devices.gpu.simulator", "GPUSimulator.run_map",
        _gpu_counts(lambda args, ex: len(ex.outputs)), OPAQUE,
    ),
    "gpu.run#reduce": (
        "repro.devices.gpu.simulator", "GPUSimulator.run_reduce",
        _gpu_counts(lambda args, ex: len(args[2])), OPAQUE,
    ),
    "gpu.run#filter": (
        "repro.devices.gpu.simulator", "GPUSimulator.run_filter",
        _gpu_counts(lambda args, ex: len(ex.outputs)), OPAQUE,
    ),
    "fpga.run": (
        "repro.devices.fpga.simulator", "FPGASimulator.run_stream",
        lambda args, result: {
            "cycles": result.cycles, "items": result.input_count,
        },
        None,
    ),
    "fpga.elaborate": (
        "repro.backends.verilog.codegen", "FPGAModuleBundle.elaborate",
        None, None,
    ),
    "marshal#to": (
        "repro.runtime.marshaling", "MarshalingBoundary.to_device",
        _marshal_counts, None,
    ),
    "marshal#from": (
        "repro.runtime.marshaling", "MarshalingBoundary.from_device",
        _marshal_counts, None,
    ),
    "marshal#to_batch": (
        "repro.runtime.marshaling", "MarshalingBoundary.to_device_batch",
        _marshal_counts, None,
    ),
    "marshal#from_batch": (
        "repro.runtime.marshaling", "MarshalingBoundary.from_device_batch",
        _marshal_counts, None,
    ),
    "runtime.init": ("repro.runtime.engine", "Runtime.__init__", None, None),
    "runtime.run": (
        "repro.runtime.engine", "Runtime.run",
        lambda args, outcome: {"offloads": len(outcome.ledger.offloads)},
        None,
    ),
    "runtime.graph": (
        "repro.runtime.engine", "Runtime.graph_start",
        lambda args, result: {"graphs": 1}, None,
    ),
    "service.submit": (
        "repro.service.service", "CoExecutionService.submit", None, None,
    ),
    "service.result": (
        "repro.service.service", "CoExecutionService.result", None, None,
    ),
    "journal.append": (
        "repro.service.journal", "JobJournal.append", None, None,
    ),
}


def span_name(row_name: str) -> str:
    return row_name.split("#", 1)[0]


class _ThreadState(threading.local):
    """What a wrapper needs to know about the thread it runs on."""

    def __init__(self):
        self.stack = []      # ids of the open spans, innermost last
        self.opaque = 0      # > 0 inside an OPAQUE span
        self.interp = 0      # > 0 inside an OUTERMOST span
        self.op = None       # op id set by the thread, if any
        self.name = threading.current_thread().name


class Recorder:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []       # rows that could not be wrapped
        self.count_errors: set = set()  # span names whose counts failed
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        #: op id for spans on threads that set none of their own (the
        #: five serial workloads run one op at a time).
        self.current_op = None
        self._targets: list = []   # (owner, attribute, original, wrapper)
        self._resolve()

    def set_thread_op(self, op) -> None:
        """Op id for spans recorded on the calling thread."""
        self._local.op = op

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, original, counts, flag):
        clock = time.perf_counter
        ids = self._ids
        local = self._local
        recorder = self
        outermost = flag == OUTERMOST
        opaque = flag == OPAQUE

        def wrapper(*args, **kwargs):
            if local.opaque or (outermost and local.interp):
                return original(*args, **kwargs)
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            if opaque:
                local.opaque += 1
            found = None
            if outermost:
                local.interp += 1
                cycles_before = args[0].cycles
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                found = {"raised:" + type(exc).__name__: 1}
                raise
            else:
                end = clock()
                try:
                    if outermost:
                        found = {
                            "calls": 1,
                            "cycles": args[0].cycles - cycles_before,
                        }
                    elif counts is not None:
                        found = counts(args, result)
                except Exception as exc:  # a renamed field, not a crash
                    if name not in recorder.count_errors:
                        recorder.count_errors.add(name)
                        print(
                            f"perf: warning: cannot count {name}: {exc!r}",
                            file=sys.stderr,
                        )
                return result
            finally:
                if opaque:
                    local.opaque -= 1
                if outermost:
                    local.interp -= 1
                stack.pop()
                op = local.op
                recorder.spans.append((
                    span_id, name, start, end, parent,
                    recorder.current_op if op is None else op,
                    local.name, found,
                ))

        wrapper.__wrapped__ = original
        return wrapper

    def _resolve(self) -> None:
        """Find every row's attribute once; rows that are gone are
        remembered in ``missing`` and warned about."""
        for row, (module_name, dotted, counts, flag) in WRAPS.items():
            try:
                owner = importlib.import_module(module_name)
                *path, attribute = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError) as exc:
                self.missing.append(row)
                print(
                    f"perf: warning: cannot trace {row}: {exc}",
                    file=sys.stderr,
                )
                continue
            self._targets.append((
                owner, attribute, original,
                self._wrap(span_name(row), original, counts, flag),
            ))

    def install(self) -> None:
        for owner, attribute, _, wrapper in self._targets:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._targets:
            setattr(owner, attribute, original)

    # -- aggregation -----------------------------------------------------

    def layers(self) -> dict:
        """Per span name: total self seconds, total seconds, span count
        and summed counts, over every recorded span."""
        child_s: dict = {}
        for span_id, name, start, end, parent, op, thread, found in self.spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out: dict = {}
        for span_id, name, start, end, parent, op, thread, found in self.spans:
            layer = out.get(name)
            if layer is None:
                layer = out[name] = {
                    "self_s": 0.0, "total_s": 0.0, "spans": 0,
                    "root_s": 0.0, "counts": {},
                }
            duration = end - start
            layer["self_s"] += duration - child_s.get(span_id, 0.0)
            layer["total_s"] += duration
            layer["spans"] += 1
            if parent is None:
                layer["root_s"] += duration
            if found:
                counts = layer["counts"]
                for key, value in found.items():
                    counts[key] = counts.get(key, 0) + value
        return out

    def write(self, path: str, header: dict) -> None:
        """The trace file: a header plus one row per span."""
        keys = ("id", "name", "start", "end", "parent", "op", "thread",
                "counts")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "span_keys": keys,
                    "spans": self.spans,
                },
                handle,
            )
            handle.write("\n")
