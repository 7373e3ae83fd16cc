"""The host/device marshaling boundary (Figure 3).

"The communication steps between the host JVM and the native device
entail (1) serializing a Lime value to a byte array, (2) crossing the
JNI boundary, and (3) converting this byte array into a C-style value.
The return path is a mirror image." (Section 4.3)

The boundary performs the real serialization through the wire format of
:mod:`repro.values.marshal` (so every offloaded value genuinely round
trips through bytes) and models the cost of each step; the physical
link (PCIe/UART) is charged separately via
:mod:`repro.devices.interconnect`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.interconnect import PCIE_GEN2_X16, Link
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.faults import NULL_INJECTOR
from repro.runtime.timing import TransferRecord
from repro.values import (
    batch_count,
    deserialize,
    deserialize_batch,
    serialize,
    serialize_batch,
)


@dataclass(frozen=True)
class BoundaryCosts:
    """Per-step cost parameters.

    Serialization walks the heap value (slow, object-at-a-time on the
    JVM side); the JNI crossing is a fixed call overhead plus a bulk
    copy; the native conversion is a dense unpack (fast)."""

    serialize_fixed_s: float = 0.5e-6
    serialize_per_byte_s: float = 0.25e-9    # ~4 GB/s dense array walk
    crossing_fixed_s: float = 2.0e-6         # JNI call overhead
    crossing_per_byte_s: float = 0.15e-9     # GetPrimitiveArrayCritical copy
    convert_fixed_s: float = 0.2e-6
    convert_per_byte_s: float = 0.10e-9      # dense native unpack


class MarshalingBoundary:
    """One host<->device boundary over a given physical link."""

    def __init__(
        self,
        link: Link = PCIE_GEN2_X16,
        costs: BoundaryCosts | None = None,
        tracer=NULL_TRACER,
        injector=NULL_INJECTOR,
        name: str = "",
    ):
        self.link = link
        self.costs = costs or BoundaryCosts()
        self.tracer = tracer
        self.metrics = getattr(tracer, "metrics", NULL_METRICS)
        # Fault-injection hook (docs/RESILIENCE.md): marshaling fault
        # specs target the boundary by name ('gpu'/'fpga') or link.
        self.injector = injector or NULL_INJECTOR
        self.name = name or link.name

    # ------------------------------------------------------------------

    def _record(self, direction: str, num_bytes: int) -> TransferRecord:
        c = self.costs
        record = TransferRecord(
            direction=direction,
            num_bytes=num_bytes,
            serialize_s=c.serialize_fixed_s + num_bytes * c.serialize_per_byte_s,
            crossing_s=c.crossing_fixed_s + num_bytes * c.crossing_per_byte_s,
            convert_s=c.convert_fixed_s + num_bytes * c.convert_per_byte_s,
            link_s=self.link.transfer_time(num_bytes),
            link_name=self.link.name,
        )
        # Latency/size distributions come for free at this seam: one
        # observation per crossing, in deterministic simulated time.
        # The uniform crossing counter (every path funnels through
        # here) is what the fusion suites assert shrinks on fused runs.
        self.tracer.counters.add("marshal.crossings")
        self.tracer.counters.add(f"marshal.crossings[{self.name}]")
        self.metrics.histogram("marshal.crossing_us").observe(
            record.total_s * 1e6
        )
        self.metrics.histogram("marshal.bytes_per_crossing").observe(
            num_bytes
        )
        return record

    def to_device(self, value) -> "tuple[bytes, TransferRecord]":
        """Serialize a Lime value for the device; returns the wire
        bytes and the timing record. The encoding follows the value's
        data type (Section 4.3)."""
        self.injector.check(
            "marshal.to_device", [self.name, self.link.name]
        )
        with self.tracer.span(
            "run.marshal.to_device", link=self.link.name
        ) as span:
            data = serialize(value)
            record = self._record("to-device", len(data))
            span.set(
                bytes=record.num_bytes,
                serialize_s=record.serialize_s,
                link_s=record.link_s,
            )
        self.tracer.counters.add(
            f"marshal.bytes[{self.link.name}]", record.num_bytes
        )
        return data, record

    def from_device(self, data: bytes) -> "tuple[object, TransferRecord]":
        """Deserialize device results back into a heap value."""
        self.injector.check(
            "marshal.from_device", [self.name, self.link.name]
        )
        with self.tracer.span(
            "run.marshal.from_device", link=self.link.name
        ) as span:
            value = deserialize(data)
            record = self._record("from-device", len(data))
            span.set(
                bytes=record.num_bytes,
                serialize_s=record.serialize_s,
                link_s=record.link_s,
            )
        self.tracer.counters.add(
            f"marshal.bytes[{self.link.name}]", record.num_bytes
        )
        return value, record

    def round_trip(self, value) -> "tuple[object, list]":
        """Serialize out and back (identity at the device): used by
        tests and by the Figure 3 benchmark."""
        data, out_record = self.to_device(value)
        result, back_record = self.from_device(data)
        return result, [out_record, back_record]

    # ------------------------------------------------------------------
    # Batched fast path: one crossing per batch, not per value
    # ------------------------------------------------------------------

    def to_device_batch(self, values, kind=None) -> "tuple[bytes, TransferRecord]":
        """Serialize N homogeneous values into one 0x09 frame and
        charge a single crossing for the whole batch — the amortized
        fast path of docs/PERFORMANCE.md. Fault-injection call indices
        stay element-accurate (``count=N``), so plans written against
        the per-element path fire at the same logical points."""
        values = list(values)
        self.injector.check(
            "marshal.to_device", [self.name, self.link.name],
            count=len(values),
        )
        with self.tracer.span(
            "run.marshal.batch.to_device",
            link=self.link.name,
            batch=len(values),
        ) as span:
            data = serialize_batch(values, kind=kind)
            record = self._record("to-device", len(data))
            span.set(
                bytes=record.num_bytes,
                serialize_s=record.serialize_s,
                link_s=record.link_s,
            )
        self._count_batch(len(values), record.num_bytes)
        return data, record

    def from_device_batch(self, data: bytes) -> "tuple[list, TransferRecord]":
        """Deserialize a device-side 0x09 frame back into its values,
        charging one crossing for the whole batch."""
        self.injector.check(
            "marshal.from_device", [self.name, self.link.name],
            count=batch_count(data),
        )
        with self.tracer.span(
            "run.marshal.batch.from_device", link=self.link.name
        ) as span:
            values = deserialize_batch(data)
            record = self._record("from-device", len(data))
            span.set(
                batch=len(values),
                bytes=record.num_bytes,
                serialize_s=record.serialize_s,
                link_s=record.link_s,
            )
        self._count_batch(len(values), record.num_bytes)
        return values, record

    def transfer_batch(self, values, kind=None) -> "tuple[list, list]":
        """Round-trip a batch out and back under batched charging:
        one fixed crossing each way regardless of N. Returns the
        values as reconstituted on the host plus both records."""
        data, out_record = self.to_device_batch(values, kind=kind)
        result, back_record = self.from_device_batch(data)
        return result, [out_record, back_record]

    def _count_batch(self, n_values: int, num_bytes: int) -> None:
        counters = self.tracer.counters
        counters.add(f"marshal.bytes[{self.link.name}]", num_bytes)
        counters.add("marshal.batch.crossings")
        counters.add("marshal.batch.values", n_values)
        self.metrics.histogram("marshal.batch.size").observe(n_values)
