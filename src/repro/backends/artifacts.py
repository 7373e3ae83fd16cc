"""Content-addressed, persistent artifact cache.

Section 1 describes artifacts "managed in a repository and identified
via a unique identifier" — this module is the repository form taken to
its logical end: a *content-addressed* store in which every backend
compilation (bytecode assembly, OpenCL codegen, Verilog elaboration +
synthesis estimation) is keyed by a deterministic digest of

* the task IR in canonical form
  (:func:`repro.ir.fingerprint.ir_fingerprint`),
* the backend identifier,
* the backend-relevant :class:`~repro.compiler.CompileOptions`
  fingerprint (:func:`options_fingerprint`), and
* the device-family parameter of :class:`CacheOptions`.

A warm compile (`docs/CACHING.md`) loads the cached artifacts without
invoking backend codegen at all — the shape metalfpga's
``.mtl4archive`` pipeline harvesting proved out (seconds of reload vs
minutes of recompile). Integrity is enforced on load: every payload and
source text carries a SHA-256 recorded at store time, and any mismatch,
truncation, or unreadable manifest demotes the entry to a *miss* (never
a wrong-artifact hit) while a ``cache.corrupt`` counter fires and, in
``readwrite`` mode, the entry is dropped. Capacity is bounded by
LRU-by-bytes eviction with explicit pinning; recency is the mtime of
each entry's manifest.

In front of the entries sits a *program index* (``programs/``): one
small file per (source text, options, toolchain) digest
(:func:`program_digest`) naming the entry key of every backend, so a
warm compile of an unchanged program is answered without running the
frontend at all.

Time in this reproduction is modeled, and the cache participates in the
model: each entry records the modeled cost of the backend compilation
it replaces (:func:`modeled_compile_s`) and loads are charged a modeled
deserialization cost (:func:`modeled_load_s`), so
``benchmarks/test_bench_artifact_cache.py`` can state the warm-vs-cold
compile-path speedup on the same simulated clock the runtime uses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import shutil
import threading
import time

from repro.backends.common import Artifact, Exclusion, Manifest
from repro.errors import ConfigurationError
from repro.ir.fingerprint import ir_fingerprint
from repro.obs.tracer import NULL_TRACER

#: Manifest schema tag; bump when the on-disk layout changes, a pickled
#: payload's format included (it is part of every cache key, so an entry
#: another format wrote is never looked up). Entries with any other tag
#: are treated as misses (forward/backward safe). /2: a bytecode
#: ``CompiledFunction`` carries a ``signature`` and each ``INTRINSIC``
#: its result type name.
ARTIFACT_SCHEMA = "repro.artifact/2"

#: Schema tag of a program index file (``programs/<digest>.json``).
PROGRAM_SCHEMA = "repro.program/1"

_MANIFEST_NAME = "manifest.json"
_PIN_NAME = "pinned"
_OBJECTS_DIR = "objects"
_PROGRAMS_DIR = "programs"
_DIGEST = re.compile(r"[0-9a-f]{64}")
_SOURCE_EXT = {"opencl": ".cl", "verilog": ".v", "java-bytecode": ".class.txt"}

_CACHE_MODES = ("off", "read", "readwrite")


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CacheOptions:
    """Validated cache sub-options block of ``CompileOptions``.

    ``mode`` is ``off`` (default: no cache I/O at all), ``read`` (warm
    starts allowed, misses are *not* written back — e.g. CI consuming a
    harvested cache read-only), or ``readwrite`` (misses populate the
    cache). ``max_bytes`` bounds the payload bytes kept on disk; LRU
    entries are evicted past it, pinned entries never. ``device_family``
    partitions keys across simulated hardware generations so one cache
    directory can serve several device descriptions.
    """

    cache_dir: "str | None" = None
    max_bytes: "int | None" = None
    mode: str = "off"
    device_family: str = "default"

    def __post_init__(self):
        self.validate()

    def validate(self) -> "CacheOptions":
        if self.mode not in _CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache mode {self.mode!r}; expected one of "
                + ", ".join(_CACHE_MODES)
            )
        if self.mode != "off" and not self.cache_dir:
            raise ConfigurationError(
                f"cache mode {self.mode!r} requires cache_dir"
            )
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ConfigurationError(
                f"cache max_bytes must be positive, got {self.max_bytes}"
            )
        if not self.device_family:
            raise ConfigurationError("device_family must be non-empty")
        return self

    def replace(self, **overrides) -> "CacheOptions":
        """A validated copy with the given fields changed."""
        return dataclasses.replace(self, **overrides)

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def readable(self) -> bool:
        return self.mode in ("read", "readwrite")

    @property
    def writable(self) -> bool:
        return self.mode == "readwrite"


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

#: CompileOptions fields that affect each backend's output. Keys only
#: include what the backend actually reads, so toggling an FPGA knob
#: invalidates Verilog entries without touching OpenCL ones.
_BACKEND_OPTION_FIELDS = {
    "bytecode": ("run_optimizations",),
    "opencl": ("run_optimizations",),
    "verilog": (
        "run_optimizations",
        "fpga_pipelined",
        "fpga_max_stage_depth",
    ),
}

BACKEND_IDS = tuple(_BACKEND_OPTION_FIELDS)


def options_fingerprint(options, backend_id: str) -> dict:
    """The backend-relevant slice of a CompileOptions, as a stable dict."""
    fields = _BACKEND_OPTION_FIELDS.get(backend_id)
    if fields is None:
        raise ConfigurationError(f"unknown backend id {backend_id!r}")
    return {name: getattr(options, name) for name in fields}


def cache_key(
    module,
    backend_id: str,
    options,
    device_family: str = "default",
    fingerprint: "str | None" = None,
) -> str:
    """The content-addressed digest for one backend compilation.

    ``fingerprint`` is ``ir_fingerprint(module)`` when the caller has
    it already: a compile derives three keys from one module and
    canonicalizes it once."""
    material = {
        "schema": ARTIFACT_SCHEMA,
        "backend": backend_id,
        "ir": fingerprint or ir_fingerprint(module),
        "options": options_fingerprint(options, backend_id),
        "device_family": device_family,
    }
    blob = json.dumps(material, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Everything besides the source that reaches a program's keys: the
#: union of the backend option slices, plus which backends run at all.
_PROGRAM_OPTION_FIELDS = tuple(
    sorted({f for fields in _BACKEND_OPTION_FIELDS.values() for f in fields})
) + ("enable_gpu", "enable_fpga")

#: The code that turns source text into cache keys, relative to the
#: ``repro`` package (a directory stands for its ``*.py`` files).
_TOOLCHAIN_PARTS = ("lime", "ir", "compiler.py", "backends/artifacts.py")

_toolchain_lock = threading.Lock()
_toolchain: "str | None" = None


def toolchain_digest() -> str:
    """SHA-256 over the source of the frontend, the IR lowering, the
    compiler driver and this module; computed once per process.

    A program index entry is only valid for the toolchain that wrote
    it: an edit to the lowering changes the IR, hence the keys, while
    the source text stays the same."""
    global _toolchain
    with _toolchain_lock:
        if _toolchain is None:
            _toolchain = _hash_package_files(_TOOLCHAIN_PARTS)
        return _toolchain


def _hash_package_files(parts) -> str:
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    names = []
    for part in parts:
        if part.endswith(".py"):
            names.append(part)
        else:
            names.extend(
                f"{part}/{name}"
                for name in os.listdir(os.path.join(package, part))
                if name.endswith(".py")
            )
    digest = hashlib.sha256()
    for name in sorted(names):
        with open(os.path.join(package, name), "rb") as f:
            data = f.read()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def program_digest(
    source: str, options, device_family: str = "default"
) -> str:
    """The program index digest of one compile: the source text, the
    option fields that reach any key, the device family and the
    :func:`toolchain_digest`."""
    material = {
        "schema": PROGRAM_SCHEMA,
        "options": {
            name: getattr(options, name) for name in _PROGRAM_OPTION_FIELDS
        },
        "device_family": device_family,
        "toolchain": toolchain_digest(),
    }
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True, default=repr).encode("utf-8")
    )
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Modeled compile/load clock
# ---------------------------------------------------------------------------

#: Modeled compile cost per backend: (base seconds per compilation,
#: seconds per artifact, seconds per character of generated source).
#: Calibrated to the systems the cache imitates: bytecode assembly is
#: sub-millisecond, an OpenCL driver JIT is tens of milliseconds, and
#: Verilog elaboration + synthesis estimation models the minutes-scale
#: FPGA flow that makes harvesting worthwhile (SNIPPETS Snippet 1:
#: ~5 s archive reload vs 5-10 minutes of recompile).
_MODELED_COMPILE = {
    "bytecode": (400e-6, 50e-6, 0.0),
    "opencl": (8e-3, 15e-3, 4e-6),
    "verilog": (120e-3, 1.8, 90e-6),
    # Runtime kernel specialization re-JITs one already-generated
    # kernel with guards baked in: cheaper than a full OpenCL backend
    # run but still a driver round trip (docs/FUSION.md).
    "specialize": (4e-3, 6e-3, 2e-6),
}

#: Modeled warm-load cost: fixed open/validate latency per entry plus
#: payload bytes through a 256 MiB/s deserialization pipe.
_MODELED_LOAD_BASE_S = 400e-6
_MODELED_LOAD_BYTES_PER_S = 256 * 1024 * 1024


def modeled_compile_s(backend_id: str, artifacts: list) -> float:
    """Modeled seconds the backend compilation costs (cold path)."""
    base, per_artifact, per_char = _MODELED_COMPILE.get(
        backend_id, _MODELED_COMPILE["bytecode"]
    )
    total = base
    for artifact in artifacts:
        total += per_artifact
        total += per_char * len(artifact.text or "")
    return total


def modeled_load_s(payload_bytes: int) -> float:
    """Modeled seconds a warm load of ``payload_bytes`` costs."""
    return _MODELED_LOAD_BASE_S + payload_bytes / _MODELED_LOAD_BYTES_PER_S


# ---------------------------------------------------------------------------
# Cache entries
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CacheEntry:
    """One loaded (or just-stored) backend compilation."""

    backend: str
    key: str
    artifacts: list
    exclusions: list
    modeled_compile_s: float
    payload_bytes: int

    @property
    def modeled_load_s(self) -> float:
        return modeled_load_s(self.payload_bytes)


class CacheCorruption(Exception):
    """Internal: an entry failed an integrity check during load."""


_clock_lock = threading.Lock()
_last_used_ns = 0


def _recency_ns() -> int:
    """A per-process strictly increasing ``time_ns()``: two touches in
    one process never share a timestamp, so sorting entries by
    ``(st_mtime_ns, key)`` replays the order they were used in."""
    global _last_used_ns
    with _clock_lock:
        _last_used_ns = max(time.time_ns(), _last_used_ns + 1)
        return _last_used_ns


def _read_verified(entry_dir: str, name: str, sha256: str, what: str,
                   size: "int | None" = None) -> bytes:
    """One file of an entry, read once and checked against the size
    and hash its manifest recorded."""
    try:
        with open(os.path.join(entry_dir, name), "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CacheCorruption(f"missing {what} {name}") from exc
    if size is not None and len(data) != size:
        raise CacheCorruption(
            f"{what} {name} truncated: {len(data)} != {size} bytes"
        )
    if hashlib.sha256(data).hexdigest() != sha256:
        raise CacheCorruption(f"{what} {name} hash mismatch")
    return data


class ArtifactCache:
    """The persistent content-addressed store (docs/CACHING.md).

    Directory layout::

        <cache_dir>/
          objects/<digest>/manifest.json      # mtime = last use
          objects/<digest>/pinned             # present while pinned
          objects/<digest>/payload.<i>.pkl
          objects/<digest>/source.<i>.cl|.v|...
          programs/<digest>.json              # the program index

    One entry holds *everything one backend produced for one key*:
    artifacts (manifest metadata + pickled payloads + generated source
    text) and exclusions. Recency lives on the entry: a store or a hit
    sets its manifest's mtime, and eviction drops the oldest first.
    ``read`` mode writes nothing — no touch, no index entry, and a
    corrupt entry stays on disk. The cache is single-writer per
    process.
    """

    def __init__(self, options: CacheOptions):
        if not options.enabled:
            raise ConfigurationError(
                "ArtifactCache requires CacheOptions with mode != 'off'"
            )
        self.options = options.validate()
        self.root = options.cache_dir
        if options.writable:
            os.makedirs(self._objects_root(), exist_ok=True)

    # -- paths ----------------------------------------------------------

    def _objects_root(self) -> str:
        return os.path.join(self.root, _OBJECTS_DIR)

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self._objects_root(), key)

    def _manifest_path(self, key: str) -> str:
        return os.path.join(self._objects_root(), key, _MANIFEST_NAME)

    def _programs_root(self) -> str:
        return os.path.join(self.root, _PROGRAMS_DIR)

    def _program_path(self, digest: str) -> str:
        return os.path.join(self._programs_root(), digest + ".json")

    def _require_writable(self, operation: str) -> None:
        if not self.options.writable:
            raise ConfigurationError(
                f"cache at {self.root!r} is read-only "
                f"(mode={self.options.mode!r}); {operation} requires "
                "mode='readwrite'"
            )

    # -- recency and pinning --------------------------------------------

    def _touch(self, key: str) -> None:
        now = _recency_ns()
        os.utime(self._manifest_path(key), ns=(now, now))

    def last_used_ns(self, key: str) -> int:
        """When the entry was last stored or hit (its manifest mtime)."""
        return os.stat(self._manifest_path(key)).st_mtime_ns

    def pin(self, key: str) -> bool:
        """Exempt an entry from LRU eviction; False when there is no
        such entry."""
        if not os.path.isfile(self._manifest_path(key)):
            return False
        with open(os.path.join(self._entry_dir(key), _PIN_NAME), "wb"):
            pass
        return True

    def _is_pinned(self, key: str) -> bool:
        return os.path.exists(os.path.join(self._entry_dir(key), _PIN_NAME))

    def pinned(self) -> list:
        return [key for key in self.keys() if self._is_pinned(key)]

    # -- inspection -----------------------------------------------------

    def keys(self) -> list:
        """Digests of every entry present on disk, sorted."""
        root = self._objects_root()
        if not os.path.isdir(root):
            return []
        return sorted(
            name
            for name in os.listdir(root)
            if os.path.isfile(os.path.join(root, name, _MANIFEST_NAME))
        )

    def programs(self) -> list:
        """Digests of every program index entry on disk, sorted."""
        root = self._programs_root()
        if not os.path.isdir(root):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(root)
            if name.endswith(".json")
        )

    def entry_bytes(self, key: str) -> int:
        """Total payload + text bytes of one entry."""
        entry_dir = self._entry_dir(key)
        total = 0
        for name in os.listdir(entry_dir):
            if name not in (_MANIFEST_NAME, _PIN_NAME):
                total += os.path.getsize(os.path.join(entry_dir, name))
        return total

    def total_bytes(self) -> int:
        return sum(self.entry_bytes(key) for key in self.keys())

    def stats(self) -> dict:
        """Machine-readable summary for ``python -m repro cache stats``."""
        per_backend: dict = {}
        entries = []
        for key in self.keys():
            try:
                with open(self._manifest_path(key)) as f:
                    manifest = json.load(f)
            except (OSError, json.JSONDecodeError):
                manifest = {}
            backend = manifest.get("backend", "<corrupt>")
            per_backend.setdefault(
                backend, {"entries": 0, "bytes": 0, "artifacts": 0}
            )
            nbytes = self.entry_bytes(key)
            per_backend[backend]["entries"] += 1
            per_backend[backend]["bytes"] += nbytes
            per_backend[backend]["artifacts"] += len(
                manifest.get("artifacts", ())
            )
            entries.append(
                {
                    "key": key,
                    "backend": backend,
                    "bytes": nbytes,
                    "artifacts": len(manifest.get("artifacts", ())),
                    "modeled_compile_s": manifest.get(
                        "modeled_compile_s", 0.0
                    ),
                    "pinned": self._is_pinned(key),
                    "last_used_ns": self.last_used_ns(key),
                }
            )
        return {
            "schema": ARTIFACT_SCHEMA,
            "cache_dir": self.root,
            "mode": self.options.mode,
            "device_family": self.options.device_family,
            "max_bytes": self.options.max_bytes,
            "total_bytes": sum(e["bytes"] for e in entries),
            "entry_count": len(entries),
            "pinned": [e["key"] for e in entries if e["pinned"]],
            "programs": len(self.programs()),
            "backends": per_backend,
            "entries": entries,
        }

    # -- program index --------------------------------------------------

    def load_program(self, digest: str) -> "dict | None":
        """The backend -> entry key map indexed under ``digest``
        (:func:`program_digest`), or None when there is none, or the
        file is unreadable, malformed or written for another digest."""
        try:
            with open(self._program_path(digest), encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != PROGRAM_SCHEMA
            or record.get("program") != digest
        ):
            return None
        keys = record.get("keys")
        if not isinstance(keys, dict) or not all(
            isinstance(key, str) and _DIGEST.fullmatch(key)
            for key in keys.values()
        ):
            return None
        return keys

    def store_program(self, digest: str, keys: dict) -> None:
        """Index ``digest`` as answered by ``keys`` (backend -> entry
        key); written atomically."""
        self._require_writable("store_program()")
        os.makedirs(self._programs_root(), exist_ok=True)
        path = self._program_path(digest)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(
                {"schema": PROGRAM_SCHEMA, "program": digest, "keys": keys},
                f,
                sort_keys=True,
            )
        os.replace(tmp, path)

    # -- store ----------------------------------------------------------

    def store(
        self,
        backend_id: str,
        key: str,
        artifacts: list,
        exclusions: list,
        tracer=NULL_TRACER,
    ) -> CacheEntry:
        """Persist one backend compilation under ``key``.

        Payload files are written first and the manifest last (via an
        atomic rename), so a crash mid-store leaves a manifest-less
        directory the loader treats as a miss.
        """
        self._require_writable("store()")
        entry_dir = self._entry_dir(key)
        if os.path.isdir(entry_dir):
            shutil.rmtree(entry_dir)
        os.makedirs(entry_dir)
        counters = tracer.counters
        manifest = {
            "schema": ARTIFACT_SCHEMA,
            "backend": backend_id,
            "key": key,
            "device_family": self.options.device_family,
            "modeled_compile_s": modeled_compile_s(backend_id, artifacts),
            "artifacts": [],
            "exclusions": [
                {
                    "device": e.device,
                    "task_id": e.task_id,
                    "reason": e.reason,
                }
                for e in exclusions
            ],
        }
        payload_bytes = 0
        for i, artifact in enumerate(artifacts):
            m = artifact.manifest
            blob = pickle.dumps(artifact.payload, protocol=4)
            payload_file = f"payload.{i}.pkl"
            with open(os.path.join(entry_dir, payload_file), "wb") as f:
                f.write(blob)
            record = {
                "artifact_id": m.artifact_id,
                "device": m.device,
                "task_ids": list(m.task_ids),
                "graph_id": m.graph_id,
                "source_language": m.source_language,
                "properties": dict(m.properties),
                "payload_file": payload_file,
                "payload_bytes": len(blob),
                "payload_sha256": hashlib.sha256(blob).hexdigest(),
            }
            payload_bytes += len(blob)
            if artifact.text:
                ext = _SOURCE_EXT.get(m.source_language, ".txt")
                text_file = f"source.{i}{ext}"
                data = artifact.text.encode("utf-8")
                with open(os.path.join(entry_dir, text_file), "wb") as f:
                    f.write(data)
                record["text_file"] = text_file
                record["text_sha256"] = hashlib.sha256(data).hexdigest()
                payload_bytes += len(data)
            manifest["artifacts"].append(record)
        manifest["payload_bytes"] = payload_bytes
        tmp = os.path.join(entry_dir, _MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        os.replace(tmp, os.path.join(entry_dir, _MANIFEST_NAME))
        self._touch(key)
        counters.add("cache.store")
        counters.add("cache.bytes", payload_bytes)
        counters.add("cache.bytes.written", payload_bytes)
        self._evict_to_fit(keep=key, tracer=tracer)
        return CacheEntry(
            backend=backend_id,
            key=key,
            artifacts=list(artifacts),
            exclusions=list(exclusions),
            modeled_compile_s=manifest["modeled_compile_s"],
            payload_bytes=payload_bytes,
        )

    # -- load -----------------------------------------------------------

    def load(self, backend_id: str, key: str, tracer=NULL_TRACER):
        """Load the entry for ``key``, or None on miss/corruption.

        Every payload and text hash recorded at store time is verified;
        any failure counts ``cache.corrupt`` and reports a miss — a
        wrong-artifact hit is never possible. In ``readwrite`` mode a
        hit refreshes the entry's recency and a corrupt entry is
        dropped; ``read`` mode leaves the directory untouched.
        """
        counters = tracer.counters
        entry_dir = self._entry_dir(key)
        if not os.path.isfile(os.path.join(entry_dir, _MANIFEST_NAME)):
            counters.add("cache.miss")
            counters.add(f"cache.miss[{backend_id}]")
            return None
        with tracer.span(
            "cache.load", backend=backend_id, key=key[:12]
        ) as span:
            try:
                entry = self._load_verified(backend_id, key, entry_dir)
            except CacheCorruption as problem:
                counters.add("cache.corrupt")
                counters.add("cache.miss")
                counters.add(f"cache.miss[{backend_id}]")
                span.set(state="corrupt", problem=str(problem))
                if self.options.writable:
                    shutil.rmtree(entry_dir, ignore_errors=True)
                return None
            span.set(
                state="hit",
                artifacts=len(entry.artifacts),
                bytes=entry.payload_bytes,
                load_us=entry.modeled_load_s * 1e6,
            )
        counters.add("cache.hit")
        counters.add(f"cache.hit[{backend_id}]")
        counters.add("cache.bytes", entry.payload_bytes)
        counters.add("cache.bytes.read", entry.payload_bytes)
        if self.options.writable:
            self._touch(key)
        return entry

    def _load_verified(
        self, backend_id: str, key: str, entry_dir: str
    ) -> CacheEntry:
        manifest_path = os.path.join(entry_dir, _MANIFEST_NAME)
        try:
            with open(manifest_path) as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheCorruption(f"unreadable manifest: {exc}") from exc
        if manifest.get("schema") != ARTIFACT_SCHEMA:
            raise CacheCorruption(
                f"schema {manifest.get('schema')!r} != {ARTIFACT_SCHEMA!r}"
            )
        if manifest.get("backend") != backend_id:
            raise CacheCorruption(
                f"entry belongs to backend {manifest.get('backend')!r}"
            )
        artifacts = []
        payload_bytes = 0
        for record in manifest.get("artifacts", ()):
            blob = _read_verified(
                entry_dir,
                record["payload_file"],
                record["payload_sha256"],
                "payload",
                size=record["payload_bytes"],
            )
            payload = pickle.loads(blob)
            payload_bytes += len(blob)
            text = ""
            if "text_file" in record:
                data = _read_verified(
                    entry_dir,
                    record["text_file"],
                    record["text_sha256"],
                    "source",
                )
                text = data.decode("utf-8")
                payload_bytes += len(data)
            artifacts.append(
                Artifact(
                    manifest=Manifest(
                        artifact_id=record["artifact_id"],
                        device=record["device"],
                        task_ids=list(record["task_ids"]),
                        graph_id=record.get("graph_id"),
                        source_language=record.get("source_language", ""),
                        properties=dict(record.get("properties", {})),
                    ),
                    payload=payload,
                    text=text,
                )
            )
        exclusions = [
            Exclusion(e["device"], e["task_id"], e["reason"])
            for e in manifest.get("exclusions", ())
        ]
        return CacheEntry(
            backend=backend_id,
            key=key,
            artifacts=artifacts,
            exclusions=exclusions,
            modeled_compile_s=manifest.get("modeled_compile_s", 0.0),
            payload_bytes=payload_bytes,
        )

    # -- eviction / maintenance -----------------------------------------

    def _evict_to_fit(self, keep: "str | None" = None, tracer=NULL_TRACER):
        """LRU-by-bytes eviction down to ``max_bytes``, oldest
        ``(last_used_ns, key)`` first; pinned entries and the
        just-touched ``keep`` entry are never dropped."""
        limit = self.options.max_bytes
        if limit is None:
            return
        sizes = {key: self.entry_bytes(key) for key in self.keys()}
        total = sum(sizes.values())
        if total <= limit:
            return
        oldest_first = sorted(
            sizes, key=lambda k: (self.last_used_ns(k), k)
        )
        for key in oldest_first:
            if total <= limit:
                break
            if key == keep or self._is_pinned(key):
                continue
            self.evict(key, tracer=tracer)
            total -= sizes[key]

    def evict(self, key: str, tracer=NULL_TRACER) -> bool:
        """Drop one entry; returns False when it did not exist."""
        entry_dir = self._entry_dir(key)
        if not os.path.isdir(entry_dir):
            return False
        shutil.rmtree(entry_dir, ignore_errors=True)
        tracer.counters.add("cache.evict")
        return True

    def purge(self) -> int:
        """Drop every entry (pins included) and the program index;
        returns the count of entries dropped."""
        count = 0
        for key in self.keys():
            shutil.rmtree(self._entry_dir(key), ignore_errors=True)
            count += 1
        shutil.rmtree(self._programs_root(), ignore_errors=True)
        return count

    def verify(self, delete_corrupt: bool = False) -> list:
        """Integrity-check every entry, then every program index entry
        against the entries left; returns ``(name, problem)`` pairs
        (``name`` is a key, or ``programs/<digest>`` for the index).
        ``delete_corrupt=True`` additionally drops what failed, so the
        next compile repopulates it."""
        problems = []
        for key in self.keys():
            entry_dir = self._entry_dir(key)
            try:
                with open(self._manifest_path(key)) as f:
                    backend = json.load(f).get("backend", "")
                self._load_verified(backend, key, entry_dir)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append((key, f"unreadable manifest: {exc}"))
            except CacheCorruption as problem:
                problems.append((key, str(problem)))
            else:
                continue
            if delete_corrupt:
                shutil.rmtree(entry_dir, ignore_errors=True)
        present = set(self.keys())
        for digest in self.programs():
            keys = self.load_program(digest)
            if keys is None:
                problem = "unreadable program index entry"
            else:
                missing = sorted(
                    backend for backend, key in keys.items()
                    if key not in present
                )
                if not missing:
                    continue
                problem = "names missing entries: " + ", ".join(
                    f"{backend} {keys[backend][:12]}" for backend in missing
                )
            problems.append((f"programs/{digest}", problem))
            if delete_corrupt:
                os.remove(self._program_path(digest))
        return problems
