"""One checker for every ``repro.*/1`` document (DESIGN.md "Documents").

Each document's shape is declared as data (a ``*_SPEC``) next to the
code that writes it; :func:`problems` walks a value against a spec and
:func:`load` reads a file and checks it.

A spec is a dict, built by the helpers below: ``type`` (``"object"``,
``"list"``, ``"string"``, ``"number"`` — never a bool — or ``"bool"``;
absent, any value), ``nullable``, ``required`` and ``optional``
(``{key: spec}``), ``closed`` (no key outside those and ``comment``),
``items`` (a list's item spec), ``min`` (least number or fewest
items), ``values`` and ``noun`` (the allowed values and what to call
one: ``"unknown state 'x'"``), and ``checks``: functions
``f(value) -> [message]`` for rules across fields, run only when the
node's whole subtree has its shape, so they index without guarding.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError

#: A key that only has to be present.
ANY: dict = {}
NUMBER = {"type": "number"}
NON_NEGATIVE = {"type": "number", "min": 0}
STRING = {"type": "string"}
OBJECT = {"type": "object"}

_TYPES = {"object": dict, "list": list, "string": str,
          "number": (int, float), "bool": bool}


def keys(*names: str) -> dict:
    """``{name: ANY}``: keys that only have to be present."""
    return dict.fromkeys(names, ANY)


def obj(required=None, optional=None, **rest) -> dict:
    return {"type": "object", "required": required or {},
            "optional": optional or {}, **rest}


def array(items=ANY, **rest) -> dict:
    return {"type": "list", "items": items, **rest}


def one_of(*values, noun: str = "value") -> dict:
    return {"type": "string", "values": values, "noun": noun}


def totals_match(*names: str):
    """A check: ``totals.<name>`` is the length of the list ``name``."""
    def check(doc: dict) -> list:
        return [f"totals.{name} disagrees with the {name} list"
                for name in names
                if doc["totals"].get(name) != len(doc[name])]
    return check


def _type_name(value) -> str:
    if value is None or isinstance(value, bool):
        return "null" if value is None else "bool"
    for name, kind in _TYPES.items():
        if isinstance(value, kind):
            return name
    return type(value).__name__


def _walk(value, spec: dict, path: str, found: list) -> None:
    at = f"{path}: " if path else ""
    if value is None and spec.get("nullable"):
        return
    kind = spec.get("type")
    if kind is not None and _type_name(value) != kind:
        found.append(f"{at}expected {kind}, got {_type_name(value)}")
        return
    before = len(found)
    if "values" in spec and value not in spec["values"]:
        found.append(
            f"{at}unknown {spec.get('noun', 'value')} {value!r} (expected "
            + " or ".join(repr(v) for v in spec["values"]) + ")"
        )
    size = len(value) if kind == "list" else value
    if "min" in spec and size < spec["min"]:
        found.append(f"{at}{'length' if kind == 'list' else 'value'} "
                     f"{size!r} is below {spec['min']}")
    if kind == "object":
        required = spec.get("required", {})
        fields = {**required, **spec.get("optional", {})}
        for key in required:
            if key not in value:
                found.append(f"{at}missing key {key!r}")
        for key, sub in fields.items():
            if key in value:
                _walk(value[key], sub, f"{path}.{key}" if path else key,
                      found)
        if spec.get("closed"):
            for key in value:
                if key not in fields and key != "comment":
                    found.append(f"{at}unknown key {key!r}")
    elif kind == "list":
        for index, item in enumerate(value):
            _walk(item, spec.get("items", ANY), f"{path}[{index}]", found)
    if len(found) == before:
        for check in spec.get("checks", ()):
            found.extend(at + message for message in check(value))


def problems(value, spec: dict) -> list:
    """Every way ``value`` departs from ``spec``, each located by its
    JSON path (``breakers[2].transitions[0]: missing key 'at_s'``);
    empty when it conforms. Never raises on a JSON value."""
    found: list = []
    _walk(value, spec, "", found)
    return found


def load(path: str, spec: dict, what: str) -> dict:
    """The JSON document at ``path``, checked against ``spec``. Raises
    :class:`ConfigurationError` naming ``path`` and ``what`` when the
    file cannot be read, is not JSON or has problems."""
    try:
        with open(path, encoding="utf-8") as handle:
            value = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot load {what} {path!r}: {exc}"
        ) from exc
    return require(value, spec, f"{what} {path!r}")


def require(value, spec: dict, what: str):
    """``value``, when it conforms to ``spec``; otherwise raises
    :class:`ConfigurationError` listing every problem of ``what``."""
    found = problems(value, spec)
    if found:
        raise ConfigurationError(
            f"{what} is invalid:\n  " + "\n  ".join(found)
        )
    return value
