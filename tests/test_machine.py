"""Machine model: resources, reservation tables, descriptions."""

import pytest

from repro.machine import (
    SIMPLE,
    WARP,
    MachineDescription,
    OpClass,
    ReservationTable,
    Resource,
    ResourceUse,
    make_custom,
    make_simple,
    make_warp,
)
from repro.machine.description import FLOP_OPCODES, standard_op_classes


class TestResource:
    def test_basic(self):
        res = Resource("alu", 2)
        assert res.name == "alu"
        assert res.count == 2

    def test_default_count(self):
        assert Resource("mem").count == 1

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Resource("bad", 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Resource("bad", -1)


class TestResourceUse:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ResourceUse(-1, "alu")

    def test_zero_amount_rejected(self):
        with pytest.raises(ValueError):
            ResourceUse(0, "alu", 0)


class TestReservationTable:
    def test_empty(self):
        table = ReservationTable()
        assert not table
        assert table.length == 0
        assert table.resources() == set()

    def test_single(self):
        table = ReservationTable.single("fadd")
        assert table.amount_at(0, "fadd") == 1
        assert table.amount_at(1, "fadd") == 0
        assert table.length == 1

    def test_accumulates_duplicate_uses(self):
        table = ReservationTable(
            [ResourceUse(0, "alu"), ResourceUse(0, "alu")]
        )
        assert table.amount_at(0, "alu") == 2

    def test_shifted(self):
        table = ReservationTable.single("mem").shifted(3)
        assert table.amount_at(3, "mem") == 1
        assert table.length == 4

    def test_shifted_zero_is_identity(self):
        table = ReservationTable.single("mem")
        assert table.shifted(0) is table

    def test_merged_sums(self):
        a = ReservationTable.single("alu")
        b = ReservationTable.single("alu")
        assert a.merged(b).amount_at(0, "alu") == 2

    def test_union_max(self):
        a = ReservationTable([ResourceUse(0, "alu", 2)])
        b = ReservationTable([ResourceUse(0, "alu", 1), ResourceUse(1, "mem")])
        union = a.union_max(b)
        assert union.amount_at(0, "alu") == 2
        assert union.amount_at(1, "mem") == 1

    def test_total_use(self):
        table = ReservationTable(
            [ResourceUse(0, "alu"), ResourceUse(2, "alu"), ResourceUse(1, "mem")]
        )
        assert table.total_use("alu") == 2
        assert table.total_use("mem") == 1
        assert table.total_use("seq") == 0

    def test_saturated(self):
        table = ReservationTable().saturated({"seq": 1}, 3)
        assert all(table.amount_at(t, "seq") == 1 for t in range(3))
        assert table.length == 3

    def test_equality_and_hash(self):
        a = ReservationTable.single("alu")
        b = ReservationTable.single("alu")
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_sorted(self):
        table = ReservationTable(
            [ResourceUse(2, "mem"), ResourceUse(0, "alu")]
        )
        assert list(table) == [(0, "alu", 1), (2, "mem", 1)]


class TestOpClass:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            OpClass("bad", -1, ReservationTable())


class TestMachineDescription:
    def test_warp_latencies(self):
        assert WARP.latency("fadd") == 7
        assert WARP.latency("fmul") == 7
        assert WARP.latency("add") == 1
        assert WARP.latency("load") == 4

    def test_warp_resources(self):
        for name in ("fadd", "fmul", "alu", "mem", "seq"):
            assert WARP.units(name) == 1

    def test_warp_clock(self):
        assert WARP.clock_mhz == 5.0
        assert WARP.cycle_seconds == pytest.approx(200e-9)

    def test_flop_classification(self):
        assert WARP.is_flop("fadd")
        assert WARP.is_flop("fmul")
        assert not WARP.is_flop("add")
        assert not WARP.is_flop("load")

    def test_unknown_opcode_raises(self):
        with pytest.raises(KeyError):
            WARP.op_class("quantum_fft")

    def test_duplicate_resource_rejected(self):
        with pytest.raises(ValueError):
            MachineDescription("bad", [Resource("alu"), Resource("alu")], {})

    def test_opclass_with_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            MachineDescription(
                "bad",
                [Resource("alu")],
                {"x": OpClass("x", 1, ReservationTable.single("vector"))},
            )

    def test_opclass_overcommitting_resource_rejected(self):
        with pytest.raises(ValueError):
            MachineDescription(
                "bad",
                [Resource("alu", 1)],
                {"x": OpClass("x", 1, ReservationTable([ResourceUse(0, "alu", 2)]))},
            )

    def test_make_warp_parameterised(self):
        fast = make_warp(fp_latency=3, clock_mhz=10.0)
        assert fast.latency("fadd") == 3
        assert fast.clock_mhz == 10.0

    def test_simple_machine(self):
        assert SIMPLE.latency("fadd") == 2
        assert SIMPLE.units("fadd") == 1

    def test_make_custom_with_extra_resources(self):
        machine = make_custom(
            "wide", {"fadd": 2, "fmul": 2, "alu": 2, "mem": 2, "seq": 1}
        )
        assert machine.units("fadd") == 2
        assert machine.units("mem") == 2

    def test_standard_op_classes_cover_ir_opcodes(self):
        from repro.ir.ops import Opcode

        classes = standard_op_classes(
            alu_latency=1, fadd_latency=2, fmul_latency=2,
            fdiv_latency=8, load_latency=1,
        )
        for opcode in Opcode:
            assert opcode.value in classes, opcode

    def test_flop_opcodes_are_float_arithmetic(self):
        assert "fadd" in FLOP_OPCODES
        assert "flt" not in FLOP_OPCODES
        assert "load" not in FLOP_OPCODES


class TestPackedMemo:
    def test_concurrent_eviction_never_raises(self):
        # Thread workers share one machine.  Two threads pushing fresh
        # tables through packed() keep the memo at its limit, so both
        # evict over and over; neither may see the other's eviction as an
        # error.
        import sys
        import threading

        from repro.machine.description import _PACKED_CACHE_LIMIT

        machine = make_warp()
        errors = []
        start = threading.Barrier(2, timeout=10)

        def drive():
            try:
                start.wait()
                for _ in range(100 * _PACKED_CACHE_LIMIT):
                    table = ReservationTable.single("alu")
                    assert machine.packed(table).pure
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
