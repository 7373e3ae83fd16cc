"""Backend device compilers: bytecode (CPU), OpenCL (GPU), Verilog
(FPGA) — plus the content-addressed artifact cache they feed
(:mod:`repro.backends.artifacts`, docs/CACHING.md)."""

from repro.backends.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    CacheEntry,
    CacheOptions,
    cache_key,
    modeled_compile_s,
    modeled_load_s,
    options_fingerprint,
)
from repro.backends.common import (
    BYTECODE,
    DEVICE_KINDS,
    FPGA,
    GPU,
    Artifact,
    ArtifactStore,
    Exclusion,
    Manifest,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "Artifact",
    "ArtifactCache",
    "ArtifactStore",
    "BYTECODE",
    "CacheEntry",
    "CacheOptions",
    "DEVICE_KINDS",
    "Exclusion",
    "FPGA",
    "GPU",
    "Manifest",
    "cache_key",
    "modeled_compile_s",
    "modeled_load_s",
    "options_fingerprint",
]
