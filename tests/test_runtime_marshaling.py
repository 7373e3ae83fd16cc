"""Tests for the marshaling boundary, timing ledger, and interconnects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices.interconnect import (
    ATTACHMENTS,
    PCIE_GEN2_X8,
    PCIE_GEN2_X16,
    UART_921600,
    Link,
)
from repro.runtime.marshaling import BoundaryCosts, MarshalingBoundary
from repro.runtime.timing import (
    GraphRun,
    OffloadRecord,
    TimingLedger,
    TransferRecord,
)
from repro.values import KIND_FLOAT, KIND_INT, ValueArray


class TestLinks:
    def test_transfer_time_components(self):
        link = Link("test", 1e9, 1e-6)
        assert link.transfer_time(0) == pytest.approx(1e-6)
        assert link.transfer_time(1_000_000) == pytest.approx(
            1e-6 + 1e-3
        )

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PCIE_GEN2_X8.transfer_time(-1)

    def test_round_trip(self):
        rt = PCIE_GEN2_X16.round_trip_time(1000, 2000)
        assert rt == pytest.approx(
            PCIE_GEN2_X16.transfer_time(1000)
            + PCIE_GEN2_X16.transfer_time(2000)
        )

    def test_uart_is_orders_of_magnitude_slower(self):
        n = 100_000
        assert (
            UART_921600.transfer_time(n)
            / PCIE_GEN2_X8.transfer_time(n)
            > 1000
        )

    def test_attachment_registry(self):
        assert set(ATTACHMENTS) == {"pcie-x8", "pcie-x16", "uart"}


class TestBoundary:
    def test_round_trip_preserves_value(self):
        boundary = MarshalingBoundary()
        arr = ValueArray(KIND_FLOAT, [1.5, -2.25])
        result, records = boundary.round_trip(arr)
        assert result == arr
        assert [r.direction for r in records] == [
            "to-device",
            "from-device",
        ]

    def test_costs_scale_with_bytes(self):
        boundary = MarshalingBoundary()
        small = ValueArray(KIND_INT, [0] * 100)
        large = ValueArray(KIND_INT, [0] * 100_000)
        _, rec_small = boundary.to_device(small)
        _, rec_large = boundary.to_device(large)
        assert rec_large.serialize_s > rec_small.serialize_s * 100
        assert rec_large.total_s > rec_small.total_s

    def test_three_steps_plus_link(self):
        boundary = MarshalingBoundary(PCIE_GEN2_X16)
        _, rec = boundary.to_device(ValueArray(KIND_INT, [1, 2, 3]))
        assert rec.serialize_s > 0
        assert rec.crossing_s > 0
        assert rec.convert_s > 0
        assert rec.link_s > 0
        assert rec.total_s == pytest.approx(
            rec.serialize_s + rec.crossing_s + rec.convert_s + rec.link_s
        )

    def test_custom_costs(self):
        slow = BoundaryCosts(serialize_per_byte_s=1e-6)
        boundary = MarshalingBoundary(costs=slow)
        _, rec = boundary.to_device(ValueArray(KIND_INT, [0] * 1000))
        fast_rec = MarshalingBoundary().to_device(
            ValueArray(KIND_INT, [0] * 1000)
        )[1]
        assert rec.serialize_s > fast_rec.serialize_s * 100

    @given(st.lists(st.integers(-1000, 1000), max_size=50))
    def test_round_trip_property(self, xs):
        boundary = MarshalingBoundary()
        arr = ValueArray(KIND_INT, xs)
        result, _ = boundary.round_trip(arr)
        assert result == arr


class TestTimingLedger:
    def test_host_seconds(self):
        ledger = TimingLedger(cpu_clock_hz=1e9)
        ledger.add_host_cycles(1_000_000)
        assert ledger.host_s == pytest.approx(1e-3)

    def test_total_combines_components(self):
        ledger = TimingLedger()
        ledger.add_host_cycles(3_000_000)  # 1ms at 3GHz
        transfer = TransferRecord("to-device", 100, 1e-6, 1e-6, 1e-6, 1e-6)
        ledger.add_offload(
            OffloadRecord("map", "k", "gpu", 10, 5e-6, [transfer])
        )
        run = ledger.new_graph_run("g")
        run.stage("t", "bytecode").busy_s = 2e-3
        assert ledger.total_s == pytest.approx(
            1e-3 + 5e-6 + 4e-6 + 2e-3
        )

    def test_graph_run_pipeline_model(self):
        run = GraphRun("g")
        run.stage("a", "bytecode").busy_s = 1.0
        run.stage("b", "gpu").busy_s = 3.0
        run.stage("c", "bytecode").busy_s = 2.0
        assert run.wall_s == 3.0        # slowest stage dominates
        assert run.total_work_s == 6.0  # but all work is accounted

    def test_offload_record_totals(self):
        t1 = TransferRecord("to-device", 10, 1e-6, 2e-6, 3e-6, 4e-6)
        record = OffloadRecord("map", "k", "gpu", 1, 1e-5, [t1])
        assert record.transfer_s == pytest.approx(1e-5)
        assert record.total_s == pytest.approx(2e-5)

    def test_summary_shape(self):
        ledger = TimingLedger()
        summary = ledger.summary()
        assert set(summary) == {
            "host_s",
            "offload_s",
            "graph_s",
            "total_s",
            "offloads",
            "graph_runs",
        }


class TestBatchedBoundary:
    """The batched fast path: one crossing per batch, not per value."""

    def test_transfer_batch_preserves_values(self):
        boundary = MarshalingBoundary()
        values = [1, -2, 3, -4]
        result, records = boundary.transfer_batch(values)
        assert result == values
        assert [r.direction for r in records] == [
            "to-device",
            "from-device",
        ]

    def test_one_crossing_per_batch(self):
        # N per-element round trips pay N fixed crossings each way; one
        # batched round trip pays exactly one — that amortization IS
        # the fast path (docs/PERFORMANCE.md).
        n = 64
        boundary = MarshalingBoundary()
        per_element = [
            record
            for v in range(n)
            for record in boundary.round_trip(v)[1]
        ]
        _, batched = boundary.transfer_batch(list(range(n)))
        assert len(per_element) == 2 * n
        assert len(batched) == 2
        fixed = boundary.costs.crossing_fixed_s
        scalar_fixed_total = sum(r.crossing_s for r in per_element)
        batch_fixed_total = sum(r.crossing_s for r in batched)
        assert scalar_fixed_total >= 2 * n * fixed
        assert batch_fixed_total < 2 * 2 * fixed + scalar_fixed_total / n

    def test_batch_bytes_beat_per_element_bytes(self):
        # One shared header vs a tag byte per value: the batch frame is
        # strictly smaller than the sum of scalar frames for n > 1.
        n = 100
        scalar_bytes = sum(
            len(MarshalingBoundary().to_device(v)[0]) for v in range(n)
        )
        batch_bytes = len(
            MarshalingBoundary().to_device_batch(list(range(n)))[0]
        )
        assert batch_bytes < scalar_bytes

    def test_counters_record_batch_shape(self):
        from repro.obs import Tracer

        tracer = Tracer()
        boundary = MarshalingBoundary(tracer=tracer)
        boundary.transfer_batch([1.5, 2.5, 3.5])
        counters = tracer.counters
        assert counters.get("marshal.batch.crossings") == 2
        assert counters.get("marshal.batch.values") == 6  # 3 each way
        assert counters.get(f"marshal.bytes[{boundary.link.name}]") > 0
        assert tracer.find("run.marshal.batch.to_device")
        assert tracer.find("run.marshal.batch.from_device")

    def test_explicit_kind_for_empty_batch(self):
        boundary = MarshalingBoundary()
        result, records = boundary.transfer_batch([], kind=KIND_INT)
        assert result == []
        assert len(records) == 2
