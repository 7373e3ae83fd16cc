"""The six workloads: what each builds in set-up, what one op is, and
how each op's output is checked.

A workload drives the program only through public callables
(``CompilerSession.compile``, ``Runtime.run``,
``CoExecutionService.submit``/``result``) and sees the program's
outputs; the program sees only the inputs generated here from
``--seed``. Input *sizes* are fixed (so host cost barely depends on the
seed); input *values* and index permutations come from the seed here,
the order of kinds within a round from the seed in the harness.

Harness contract, per workload:

* ``setup()``      -- everything the timed ops reuse (compiles, cache
  and journal priming); the harness follows it with one untimed round;
* ``kinds``        -- the op kinds; a round runs each once;
* ``execute(kind)`` -- the timed part of one op, returns the raw result;
* ``check(kind, raw)`` -- untimed: returns (modeled seconds, error text
  or None) for that op;
* ``verify()``     -- after the timed loop: reference checks that need
  extra runs; returns a list of problems;
* ``close()``      -- stop threads, remove temp dirs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import struct
import tempfile
import time

from repro.apps import SUITE
from repro.apps import workloads as gen
from repro.backends.artifacts import CacheOptions
from repro.compiler import CompileOptions, CompilerSession
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.service import CoExecutionService, ServiceConfig, load_journal
from repro.values import KIND_FLOAT, KIND_INT, ValueArray

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_DIR = os.path.join(HERE, "expected")


def _subseed(seed: int, k: int) -> int:
    return (seed * 7919 + k * 104729 + 12345) & 0x7FFFFFFF


def _shuffled(values: list, seed: int, k: int) -> list:
    values = list(values)
    random.Random(_subseed(seed, k)).shuffle(values)
    return values


def _floats(n, lo, hi, seed, k) -> ValueArray:
    """Seeded floats, rounded to binary32: Lime's ``float`` is 32-bit on
    the wire, so only such inputs are the same program input on every
    path (the journaled service round-trips arguments at submit)."""
    doubles = gen.float_array(n, lo, hi, _subseed(seed, k))
    return ValueArray(
        KIND_FLOAT, struct.unpack(f"<{n}f", struct.pack(f"<{n}f", *doubles))
    )


def _ints(n, lo, hi, seed, k):
    return gen.int_array(n, lo, hi, _subseed(seed, k))


def _index(values) -> ValueArray:
    return ValueArray(KIND_INT, values)


def map_inputs(seed: int) -> dict:
    """(entry, args) for the nine map/reduce apps, sized so each costs
    8-20 ms of host time on the bytecode interpreter and has >= 64
    work-items (the runtime's GPU offload threshold). Where cost depends
    on the data (mandelbrot's escape loop) the seed permutes a fixed
    multiset, so every seed does the same amount of work."""
    s = seed
    return {
        "saxpy": ("Saxpy.run", [
            2.5,
            _floats(3072, -1.0, 1.0, s, 1),
            _floats(3072, -1.0, 1.0, s, 2),
        ]),
        "vector_sum": ("VectorOps.sum", [_floats(6144, 0.0, 1.0, s, 3)]),
        "black_scholes": ("BlackScholes.price", [
            _floats(160, 10.0, 100.0, s, 4),
            _floats(160, 10.0, 100.0, s, 5),
            _floats(160, 0.2, 2.0, s, 6),
            0.02,
            0.30,
        ]),
        "mandelbrot": ("Mandelbrot.render", [
            _index(_shuffled(range(16 * 10), s, 7)), 16, 10, 16,
        ]),
        # 64 work-items over 16 bodies: the inner loop is O(bodies).
        "nbody": ("NBody.potentials", [
            _index(_shuffled([i % 16 for i in range(64)], s, 8)),
            _floats(16, -1.0, 1.0, s, 9),
            _floats(16, -1.0, 1.0, s, 10),
            _floats(16, -1.0, 1.0, s, 11),
            _floats(16, 0.5, 2.0, s, 12),
        ]),
        "matmul": ("MatMul.multiply", [
            _index(_shuffled(range(12 * 12), s, 13)),
            _floats(144, -1.0, 1.0, s, 14),
            _floats(144, -1.0, 1.0, s, 15),
            12,
        ]),
        "convolution": ("Convolution.fir", [
            _index(_shuffled(range(128), s, 16)),
            _floats(128, -1.0, 1.0, s, 17),
            _floats(9, -0.5, 0.5, s, 18),
        ]),
        "kmeans": ("KMeans.assign", [
            _index(_shuffled(range(288), s, 19)),
            _floats(288, 0.0, 10.0, s, 20),
            _floats(288, 0.0, 10.0, s, 21),
            _floats(4, 0.0, 10.0, s, 22),
            _floats(4, 0.0, 10.0, s, 23),
        ]),
        "sobel": ("Sobel.edges", [
            _index(_shuffled(range(24 * 14), s, 24)),
            _ints(24 * 14, 0, 256, s, 25),
            24,
            14,
        ]),
    }


def stream_inputs(seed: int, sizes: dict) -> dict:
    """(entry, args) for integer stream/map apps at the given sizes."""
    s = seed
    builders = {
        "bitflip": lambda n: ("Bitflip.taskFlip", [
            gen.bit_stream(n, seed=_subseed(s, 31)),
        ]),
        "gray_pipeline": lambda n: ("GrayCoder.pipeline", [
            _ints(n, 0, 1 << 16, s, 32),
        ]),
        "parity": lambda n: ("Parity.compute", [_ints(n, 0, 1 << 30, s, 33)]),
        "crc8": lambda n: ("Crc8.checksums", [_ints(n, 0, 256, s, 34)]),
        "running_sum": lambda n: ("RunningSum.compute", [
            _ints(n, -50, 50, s, 35),
        ]),
        "photo_pipeline": lambda n: ("Photo.develop", [
            _ints(n, 0, 200, s, 36),
        ]),
        "saxpy": lambda n: ("Saxpy.run", [
            2.5, _floats(n, -1.0, 1.0, s, 37), _floats(n, -1.0, 1.0, s, 38),
        ]),
        "vector_sum": lambda n: ("VectorOps.sum", [
            _floats(n, 0.0, 1.0, s, 39),
        ]),
    }
    return {name: builders[name](n) for name, n in sizes.items()}


FPGA_SIZES = {"bitflip": 512, "gray_pipeline": 384, "parity": 96, "crc8": 8}
SERVICE_SIZES = {
    "bitflip": 32, "gray_pipeline": 16, "parity": 8, "crc8": 8,
    "running_sum": 32, "saxpy": 32, "vector_sum": 32, "photo_pipeline": 32,
}

CPU_ONLY = SubstitutionPolicy(use_accelerators=False)
FPGA_FIRST = SubstitutionPolicy(device_order=("fpga", "gpu"))


def load_expected(filename: str) -> dict:
    """One file of committed digests; empty when there is none (a seed
    other than 1 or 2)."""
    try:
        with open(os.path.join(EXPECTED_DIR, filename), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def compile_suite_app(name: str, options=None):
    return CompilerSession(options or CompileOptions()).compile(
        SUITE[name].source, filename=f"<{name}.lime>"
    )


def _temp_dir(prefix: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


class Workload:
    name = ""
    clients = 1            # client threads issuing ops
    #: Ops between two calibration ticks: one where an op is >= 10 ms,
    #: more where ops are short, so ticks stay a few percent of the run.
    ops_per_tick = 1
    #: Where the expected outputs come from: 'plain' (every kind has a
    #: plain-Python reference), 'committed' (digests under expected/),
    #: or 'cross-path' (no digests for this seed: bytecode-vs-device
    #: agreement instead).
    reference = "plain"

    def __init__(self, seed: int):
        self.seed = seed
        self.kinds: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, kind: str):
        raise NotImplementedError

    def check(self, kind: str, raw) -> tuple:
        raise NotImplementedError

    def verify(self) -> list:
        return []

    def before_loop(self) -> dict:
        """Layer facts only the harness can measure (per op)."""
        return {"journal_bytes": 0.0, "journal_load_s": 0.0,
                "journal_load_records": 0.0}

    def after_loop(self, facts: dict, ops: int) -> dict:
        return facts

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# compile_cold / compile_warm
# ---------------------------------------------------------------------------


class CompileWorkload(Workload):
    """op = compile one of the 17 suite sources through a fresh
    ``CompilerSession``; a round compiles the whole suite in a
    seed-shuffled order."""

    ops_per_tick = 17      # one round: the suite, 55-75 ms
    reference = "committed"
    warm = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self.kinds = sorted(SUITE)
        self.options = CompileOptions()
        self.last: dict = {}
        self.cache_dir = None

    def setup(self) -> None:
        if self.warm:
            self.cache_dir = _temp_dir("cache-")
            self.options = CompileOptions(cache=CacheOptions(
                cache_dir=self.cache_dir, mode="readwrite",
            ))
            for name in self.kinds:   # prime: every later compile hits
                compile_suite_app(name, self.options)

    def execute(self, kind):
        return compile_suite_app(kind, self.options)

    def check(self, kind, result):
        self.last[kind] = result
        error = None
        if result.warm != self.warm:
            error = f"{kind}: not a {'warm' if self.warm else 'cold'} compile"
        return result.modeled_compile_s, error

    def verify(self) -> list:
        """Post-compile behaviour: each app's last CompileResult runs
        its small suite input on the default runtime and must produce
        the committed digest (these inputs do not depend on --seed)."""
        got = {}
        try:
            for name, result in self.last.items():
                outcome = Runtime(result).run(*gen.small_args(name))
                got[name] = refs.digest(outcome.value, outcome.output)
        except Exception as exc:
            return [f"{name}: the compiled program raised {exc!r}"]
        expected = load_expected("behaviour.json")
        return [
            f"{name}: compiled program's output digest {got[name][:12]} "
            f"!= committed {str(expected.get(name))[:12]}"
            for name in self.kinds if got[name] != expected.get(name)
        ]

    def close(self) -> None:
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class CompileCold(CompileWorkload):
    name = "compile_cold"


class CompileWarm(CompileWorkload):
    name = "compile_warm"
    warm = True


# ---------------------------------------------------------------------------
# workloads whose op returns a RunOutcome
# ---------------------------------------------------------------------------


class OutcomeWorkload(Workload):
    """Shared output checking for ops that end in a ``RunOutcome``:
    integer apps against the plain-Python references on every op, the
    rest by digest (every op must repeat the kind's first digest, and
    ``verify`` holds that digest against the reference)."""

    group = ""             # key of this workload's digests in expected/

    def prepare(self, cases: dict) -> None:
        self.cases = cases
        self.kinds = list(cases)
        self.seen: dict = {}      # kind -> digest of its first output
        self.plain = {
            name: refs.INTEGER_REFERENCES[name](refs.flatten(args[-1]))
            for name, (_, args) in cases.items()
            if name in refs.INTEGER_REFERENCES
        }
        self.committed = load_expected(f"seed{self.seed}.json").get(
            self.group
        )
        if len(self.plain) == len(self.kinds):
            self.reference = "plain"
        else:
            self.reference = "committed" if self.committed else "cross-path"

    def output_error(self, kind, outcome) -> "str | None":
        if kind in self.plain:
            if refs.flatten(outcome.value) != self.plain[kind]:
                return f"{kind}: output differs from the plain reference"
            return None
        got = refs.digest(outcome.value, outcome.output)
        if got != self.seen.setdefault(kind, got):
            return f"{kind}: output changed between ops"
        return None

    def alternate(self, kind):
        """The same inputs through another path (sequential bytecode,
        or the device path when the workload *is* bytecode)."""
        raise NotImplementedError

    def verify(self) -> list:
        problems = []
        for kind, got in self.seen.items():
            if self.committed is not None:
                want, how = self.committed.get(kind), "the committed digest"
            else:
                other = self.alternate(kind)
                want = refs.digest(other.value, other.output)
                how = "the alternate path"
            if got != want:
                problems.append(
                    f"{kind}: digest {got[:12]} != {how} {str(want)[:12]}"
                )
        return problems


BYTECODE = RuntimeConfig(policy=CPU_ONLY, scheduler="sequential")


class RuntimeWorkload(OutcomeWorkload):
    """op = one ``Runtime.run`` of one app on a runtime built in set-up."""

    placed_on = None       # device every op must offload to (None: none)
    config = None          # RuntimeConfig of the timed runtimes
    other_config = BYTECODE

    def inputs(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.prepare(self.inputs())
        self.compiled = {name: compile_suite_app(name) for name in self.kinds}
        self.runtimes = {
            name: Runtime(self.compiled[name], self.config)
            for name in self.kinds
        }

    def execute(self, kind):
        entry, args = self.cases[kind]
        return self.runtimes[kind].run(entry, args)

    def check(self, kind, outcome):
        # Placement guard: the workload must keep exercising its layer.
        devices = [record.device for record in outcome.ledger.offloads]
        if self.placed_on is None and devices:
            error = f"{kind}: offloaded to {devices}, want no offload"
        elif self.placed_on is not None and self.placed_on not in devices:
            error = f"{kind}: no offload on {self.placed_on} (got {devices})"
        else:
            error = self.output_error(kind, outcome)
        return outcome.seconds, error

    def alternate(self, kind):
        entry, args = self.cases[kind]
        return Runtime(self.compiled[kind], self.other_config).run(entry, args)


class CpuMap(RuntimeWorkload):
    name = "cpu_map"
    group = "map"
    config = RuntimeConfig(policy=CPU_ONLY)
    other_config = RuntimeConfig()

    def inputs(self):
        return map_inputs(self.seed)


class GpuMap(RuntimeWorkload):
    name = "gpu_map"
    group = "map"
    placed_on = "gpu"
    config = RuntimeConfig()

    def inputs(self):
        return map_inputs(self.seed)


class FpgaStream(RuntimeWorkload):
    name = "fpga_stream"
    placed_on = "fpga"
    config = RuntimeConfig(policy=FPGA_FIRST)

    def inputs(self):
        return stream_inputs(self.seed, FPGA_SIZES)


# ---------------------------------------------------------------------------
# service_jobs
# ---------------------------------------------------------------------------


class ServiceJobs(OutcomeWorkload):
    """Closed loop: each of two client threads submits a job, waits for
    its result, and only then submits the next. A refused submission
    (``AdmissionRejected``) raises out of ``execute`` and is counted as
    a failed op like any other exception."""

    name = "service_jobs"
    group = "service"
    clients = 2
    ops_per_tick = 32         # 2 clients x 2 rounds x 8 kinds, ~60 ms

    def setup(self) -> None:
        self.prepare(stream_inputs(self.seed, SERVICE_SIZES))
        self.journal_dir = _temp_dir("journal-")
        self.service = CoExecutionService(
            ServiceConfig(max_running=2, journal_dir=self.journal_dir)
        )

    def execute(self, kind):
        entry, args = self.cases[kind]
        service = self.service
        job_id = service.submit(
            SUITE[kind].source, entry, args, tenant="perf", app=kind,
        )
        return service.result(job_id, timeout_s=60.0)

    def check(self, kind, outcome):
        return outcome.seconds, self.output_error(kind, outcome)

    def alternate(self, kind):
        entry, args = self.cases[kind]
        return Runtime(compile_suite_app(kind), BYTECODE).run(entry, args)

    def _journal_size(self) -> int:
        return os.path.getsize(self.service.journal.path)

    def before_loop(self) -> dict:
        return {"journal_bytes": float(self._journal_size())}

    def after_loop(self, facts: dict, ops: int) -> dict:
        """Journal bytes per op, and one timed ``load_journal`` of the
        finished journal: the read side of the layer the loop wrote."""
        written = self._journal_size() - facts["journal_bytes"]
        start = time.perf_counter()
        snapshot = load_journal(self.journal_dir)
        return {
            "journal_bytes": written / max(ops, 1),
            "journal_load_s": time.perf_counter() - start,
            "journal_load_records": float(snapshot.records),
        }

    def close(self) -> None:
        try:
            self.service.drain(timeout_s=30.0)
        finally:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (CompileCold, CompileWarm, CpuMap, GpuMap, FpgaStream,
                ServiceJobs)
}


# ---------------------------------------------------------------------------
# --regen-expected
# ---------------------------------------------------------------------------

EXPECTED_SEEDS = (1, 2)


def _agreed_digest(label: str, compiled, entry: str, args: list) -> str:
    """The output digest, provided the sequential bytecode, GPU-first
    and FPGA-first paths all produce it."""
    digests = {}
    for path, config in (("bytecode", BYTECODE), ("gpu", RuntimeConfig()),
                         ("fpga", RuntimeConfig(policy=FPGA_FIRST))):
        outcome = Runtime(compiled, config).run(entry, args)
        digests[path] = refs.digest(outcome.value, outcome.output)
    if len(set(digests.values())) != 1:
        raise SystemExit(
            f"refusing to write expected digests: paths disagree on "
            f"{label}: {digests}"
        )
    return digests["bytecode"]


def regenerate_expected() -> list:
    """Rewrite ``perf/expected/``; returns the paths written."""
    compiled = {name: compile_suite_app(name) for name in sorted(SUITE)}
    files = {
        "behaviour.json": {
            name: _agreed_digest(name, compiled[name], *gen.small_args(name))
            for name in compiled
        }
    }
    for seed in EXPECTED_SEEDS:
        groups = {"map": map_inputs(seed),
                  "service": stream_inputs(seed, SERVICE_SIZES)}
        files[f"seed{seed}.json"] = {
            group: {
                kind: _agreed_digest(
                    f"{group}/{kind} at seed {seed}", compiled[kind], *case
                )
                for kind, case in cases.items()
                if kind not in refs.INTEGER_REFERENCES
            }
            for group, cases in groups.items()
        }
    written = []
    for filename, payload in files.items():
        path = os.path.join(EXPECTED_DIR, filename)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written
