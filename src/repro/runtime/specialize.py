"""Runtime kernel specialization (docs/FUSION.md).

The TornadoVM-lineage move: when a data-parallel kernel keeps seeing
the *same* stable operands (broadcast arrays — convolution taps, the
matrices of a matmul, cluster centroids), re-JIT a variant with those
operands treated as device-resident constants. The guard is a content
digest of the stable operands; every dispatch re-checks it, a hit
skips re-marshaling the guarded arrays, and a mismatch demotes back to
the generic kernel in one step.

Correctness is by construction: the specialized variant shares the
generic kernel's executable payload, so outputs are bit-identical —
only the modeled marshaling/launch costs change. The variant is
content-addressed in the compilation's artifact cache under backend id
``specialize`` (:func:`compile_specialized`), so runtimes that observe
the same stable operands over one cache directory warm-load the variant
instead of re-specializing. Nothing here runs a compiler: the variant
relabels an artifact the backends already built.

State machine per generic kernel::

    observing --(same guard for specialize_after)--> compile --> hit
        ^                                                        |
        +----------------- guard mismatch (demote) --------------+

``specialize.*`` counters and the ``compile.specialize`` span feed the
PR 4 profiler.
"""

from __future__ import annotations

import hashlib
import json

from repro.backends.artifacts import ArtifactCache, modeled_compile_s
from repro.backends.common import Artifact, Manifest
from repro.obs.tracer import NULL_TRACER
from repro.values import ValueArray, serialize


def guard_digest(args: list, broadcast) -> "tuple[str, tuple]":
    """The specialization guard for one dispatch: a content digest of
    every broadcast :class:`ValueArray` operand (the candidates for
    device residency), plus their argument positions. Returns
    ``("", ())`` when nothing is stable enough to guard on."""
    hasher = hashlib.sha256()
    positions = []
    for pos, (arg, is_broadcast) in enumerate(zip(args, broadcast)):
        if not (is_broadcast and isinstance(arg, ValueArray)):
            continue
        positions.append(pos)
        hasher.update(b"%d:" % pos)
        hasher.update(serialize(arg))
    if not positions:
        return "", ()
    return hasher.hexdigest(), tuple(positions)


def compile_specialized(artifact, guard: str, cache=None,
                        tracer=NULL_TRACER):
    """A specialized variant of one device kernel.

    ``guard`` is the specialization guard digest (:func:`guard_digest`).
    The variant is the same executable payload under a guarded identity
    (``<generic>@spec:<guard>``): bit-identical results by construction,
    with the modeled win coming from skipping re-marshaling of
    guard-resident operands. With an :class:`ArtifactCache`, the variant
    is content-addressed under backend id ``specialize`` and keyed on
    (generic artifact id, guard, device family), so a runtime that
    re-observes the same stable operands warm-loads it instead of
    re-specializing. Returns ``(artifact, info)`` with the usual
    cache-info dict (docs/FUSION.md).
    """
    base = artifact.manifest
    spec_id = f"{base.artifact_id}@spec:{guard[:12]}"
    info: dict = {"state": "off"}
    key = None
    if cache is not None:
        material = json.dumps(
            {
                "schema": "repro.specialize/1",
                "artifact": base.artifact_id,
                "guard": guard,
                "device_family": cache.options.device_family,
            },
            sort_keys=True,
        )
        key = hashlib.sha256(material.encode("utf-8")).hexdigest()
        info["key"] = key
        entry = cache.load("specialize", key, tracer=tracer)
        if entry is not None:
            info.update(
                state="hit",
                modeled_s=entry.modeled_load_s,
                payload_bytes=entry.payload_bytes,
            )
            return entry.artifacts[0], info
    with tracer.span(
        "compile.specialize",
        artifact=base.artifact_id,
        guard=guard[:12],
    ) as spec_span:
        manifest = Manifest(
            artifact_id=spec_id,
            device=base.device,
            task_ids=list(base.task_ids),
            graph_id=base.graph_id,
            source_language=base.source_language,
            properties={
                **base.properties,
                "specialized": True,
                "guard": guard,
                "generic": base.artifact_id,
            },
        )
        specialized = Artifact(
            manifest=manifest,
            payload=artifact.payload,
            text=artifact.text,
        )
        spec_span.set(artifact_id=spec_id)
    info["modeled_s"] = modeled_compile_s("specialize", [specialized])
    if cache is not None:
        info["state"] = "miss"
        if cache.options.writable:
            entry = cache.store(
                "specialize", key, [specialized], [], tracer=tracer
            )
            info["payload_bytes"] = entry.payload_bytes
    return specialized, info


class _KernelState:
    __slots__ = ("guard", "streak", "variants")

    def __init__(self):
        self.guard: "str | None" = None
        self.streak = 0
        self.variants: dict = {}   # guard -> specialized Artifact


class KernelSpecializer:
    """Guarded specialization over the runtime's map kernels.

    A variant is compiled once its guard has stayed the same for
    ``specialize_after`` consecutive batches
    (``RuntimeConfig.specialize_after``). Variants go through
    :func:`compile_specialized` into the artifact cache of
    ``compile_options`` (the ``CompileOptions`` the program was
    compiled with; none when its cache is off) and trace on its
    tracer, where the program's own ``compile.*`` spans are.
    ``charge(seconds)`` bills the modeled (re)compile stall to the
    runtime's simulated clock, so specialization pays for itself
    honestly.
    """

    def __init__(self, specialize_after: int, compile_options=None,
                 tracer=NULL_TRACER, charge=None):
        self.specialize_after = specialize_after
        cache_options = getattr(compile_options, "cache", None)
        self.cache = (
            ArtifactCache(cache_options)
            if cache_options is not None and cache_options.enabled
            else None
        )
        self.compile_tracer = getattr(compile_options, "tracer", NULL_TRACER)
        self.tracer = tracer
        self.charge = charge
        self._states: dict = {}
        #: [(generic_id, event, guard12)] — inspectable decision log.
        self.log: list = []

    def _note(self, artifact_id: str, event: str, guard: str) -> None:
        self.log.append((artifact_id, event, guard[:12]))
        self.tracer.counters.add(f"specialize.{event}")

    def observe(self, artifact, args: list, broadcast):
        """One dispatch through the state machine. Returns
        ``(artifact_to_run, resident_positions)``: the generic artifact
        with no resident operands, or the specialized variant with the
        guarded argument positions (skip their ``to_device``)."""
        key = artifact.artifact_id
        guard, positions = guard_digest(args, broadcast)
        if not guard:
            return artifact, ()
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _KernelState()
        variant = state.variants.get(guard)
        if variant is not None:
            if state.guard != guard:
                # Returning to a previously-specialized operand set
                # after a demotion: the cached variant re-arms at once.
                self._note(key, "guard_miss", guard)
            state.guard = guard
            state.streak += 1
            self._note(key, "hit", guard)
            return variant, positions
        if state.guard == guard:
            state.streak += 1
        else:
            if state.guard is not None:
                self._note(key, "guard_miss", guard)
                if state.variants:
                    self._note(key, "demote", guard)
            state.guard = guard
            state.streak = 1
        self._note(key, "observe", guard)
        if state.streak < self.specialize_after:
            return artifact, ()
        variant, info = compile_specialized(
            artifact, guard, self.cache, self.compile_tracer
        )
        state.variants[guard] = variant
        self._note(
            key,
            "warm" if info.get("state") == "hit" else "compile",
            guard,
        )
        if self.charge is not None:
            self.charge(info.get("modeled_s", 0.0))
        self.tracer.counters.add("specialize.active")
        return variant, positions
