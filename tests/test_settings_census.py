"""Census of the runtime's settings (DESIGN.md §3g).

A setting stays only if code outside ``tests/`` sets it. This test
counts what a caller can set on :class:`RuntimeConfig`, recursing into
its nested policy dataclasses (the device models ``CPUSpec``,
``GPUSpec`` and ``Link`` are one value each), and pins the numbers of
§3g's table, so a new knob has to update the census in the open.
"""

import dataclasses

import repro.runtime
from repro.runtime import RuntimeConfig


def _is_policy(value) -> bool:
    return dataclasses.is_dataclass(value) and type(value).__name__.endswith(
        "Policy"
    )


def _census(config) -> "tuple[int, list]":
    """(settable values, policy class names) of a config instance."""
    values, policies = 0, []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if _is_policy(value):
            nested, inner = _census(value)
            values += nested
            policies += [type(value).__name__, *inner]
        else:
            values += 1
    return values, policies


def test_runtime_config_fields():
    assert len(dataclasses.fields(RuntimeConfig)) == 15


def test_settable_values_and_policy_classes():
    values, policies = _census(RuntimeConfig())
    assert values == 20
    assert policies == ["SubstitutionPolicy"]
    assert not hasattr(repro.runtime, "HealthPolicy")
