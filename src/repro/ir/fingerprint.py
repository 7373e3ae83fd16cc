"""Canonical structural fingerprints of the IR.

The digest the artifact cache keys every backend compilation on
(:func:`repro.backends.artifacts.cache_key`) and a fusion plan records
the program it was made against with (:mod:`repro.ir.fusion`). It lives
with the IR it walks, so neither the fusion pass nor any other IR pass
reaches up into the backends for it.
"""

from __future__ import annotations

import dataclasses
import hashlib

#: Fields skipped during canonicalization: source positions don't
#: change semantics (whitespace edits must still hit), and ``checked``
#: is the CheckedProgram backref whose facts are already reflected in
#: the lowered IR.
_SKIP_FIELDS = ("position", "checked")


def _canonicalize(obj, out: list, stack: set) -> None:
    """Append a deterministic rendering of ``obj`` to ``out``."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        out.append(repr(obj))
        return
    key = id(obj)
    if key in stack:  # cycle: identity marker, not infinite recursion
        out.append("<cycle>")
        return
    stack.add(key)
    try:
        if isinstance(obj, (list, tuple)):
            out.append("[")
            for item in obj:
                _canonicalize(item, out, stack)
                out.append(",")
            out.append("]")
        elif isinstance(obj, (set, frozenset)):
            # Iteration order is hash-seed dependent; render elements
            # individually and sort the renderings for stable digests.
            parts = []
            for item in obj:
                sub: list = []
                _canonicalize(item, sub, stack)
                parts.append("".join(sub))
            out.append("{" + ",".join(sorted(parts)) + "}")
        elif isinstance(obj, dict):
            out.append("{")
            for k in sorted(obj, key=repr):
                out.append(f"{k!r}:")
                _canonicalize(obj[k], out, stack)
                out.append(",")
            out.append("}")
        elif dataclasses.is_dataclass(obj):
            out.append(type(obj).__name__)
            out.append("(")
            for f in dataclasses.fields(obj):
                if f.name in _SKIP_FIELDS:
                    continue
                out.append(f"{f.name}=")
                _canonicalize(getattr(obj, f.name), out, stack)
                out.append(",")
            out.append(")")
        else:
            # Non-dataclass leaves (semantic types, enum descriptors)
            # all define content-bearing reprs.
            out.append(f"<{type(obj).__name__}:{obj!r}>")
    finally:
        stack.discard(key)


def canonical_fingerprint(obj) -> str:
    """SHA-256 of the canonical structural rendering of ``obj``."""
    out: list = []
    _canonicalize(obj, out, set())
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def ir_fingerprint(module) -> str:
    """Canonical digest of an :class:`repro.ir.nodes.IRModule`.

    Walks functions (sorted by qualified name), classes, and task
    graphs; ignores source positions and the CheckedProgram backref, so
    formatting-only edits still hit while any semantic change — or an
    optimization-pipeline change that alters the lowered IR — misses.
    """
    out: list = []
    stack: set = set()
    out.append("functions{")
    for name in sorted(module.functions):
        out.append(f"{name}=")
        _canonicalize(module.functions[name], out, stack)
    out.append("}classes{")
    for name in sorted(module.classes):
        out.append(f"{name}=")
        _canonicalize(module.classes[name], out, stack)
    out.append("}graphs{")
    for graph in module.task_graphs:
        _canonicalize(graph, out, stack)
    out.append("}")
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
