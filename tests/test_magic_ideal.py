"""Tests for the MAGIC chip and the ideal controller timing models."""

import pytest

from repro.common.params import (
    MagicCacheConfig, flash_config, ideal_config,
)
from repro.machine import Machine

KB = 1024
MB = 1024 * 1024
LINE = 128


def machine_for(kind="flash", n_procs=2, mdc=False, metrics=None, **cfg):
    make = flash_config if kind == "flash" else ideal_config
    config = make(n_procs=n_procs, cache_size=1 * MB, **cfg)
    if not mdc:
        config = config.with_changes(magic_caches=MagicCacheConfig(enabled=False))
    return Machine(config, metrics=metrics)


def one_read(machine, addr):
    streams = [iter([("r", addr)])] + [
        iter([("c", 1)]) for _ in range(machine.config.n_procs - 1)
    ]
    machine.run(streams)
    return machine.nodes[0].cpu.times.read_stall


class TestLatencies:
    def test_flash_local_clean_matches_paper(self):
        assert one_read(machine_for("flash"), 0) == 27

    def test_ideal_local_clean_matches_paper(self):
        assert one_read(machine_for("ideal"), 0) == 24

    def test_flash_remote_clean_near_paper(self):
        machine = machine_for("flash", n_procs=16)
        addr = machine.config.memory_bytes_per_node  # homed at node 1
        assert one_read(machine, addr) == pytest.approx(111, abs=6)

    def test_ideal_remote_clean_matches_paper(self):
        machine = machine_for("ideal", n_procs=16)
        addr = machine.config.memory_bytes_per_node
        assert one_read(machine, addr) == pytest.approx(92, abs=3)


class TestSpeculation:
    def test_speculative_read_issued_for_local_get(self):
        machine = machine_for("flash")
        one_read(machine, 0)
        assert machine.nodes[0].stats.spec_issued == 1
        assert machine.nodes[0].stats.spec_useless == 0

    def test_disabling_speculation_slows_local_reads(self):
        fast = one_read(machine_for("flash"), 0)
        slow = one_read(machine_for("flash", speculative_reads=False), 0)
        assert slow > fast

    def test_useless_speculation_counted_for_dirty_lines(self):
        machine = machine_for("flash", n_procs=2)
        streams = [
            iter([("b", "w"), ("r", 0)]),
            iter([("r", 0), ("w", 0), ("c", 500), ("b", "w")]),
        ]
        machine.run(streams)
        node0 = machine.nodes[0]
        # Node 1 holds line 0 dirty: node 0's GET speculated uselessly.
        assert node0.stats.spec_useless >= 1

    def test_no_speculation_on_ideal_machine(self):
        machine = machine_for("ideal")
        one_read(machine, 0)
        assert machine.nodes[0].stats.spec_issued == 0


class TestOccupancy:
    def test_flash_pp_busy_nonzero(self):
        machine = machine_for("flash")
        one_read(machine, 0)
        assert machine.nodes[0].stats.pp_busy > 0

    def test_ideal_controller_zero_occupancy(self):
        machine = machine_for("ideal")
        one_read(machine, 0)
        assert machine.nodes[0].stats.pp_busy == 0

    def test_handler_counts_in_registry(self):
        machine = machine_for("flash", metrics=True)
        one_read(machine, 0)
        family = machine.metrics.handler_invocations
        assert family.labels(0, "get_home_clean").value == 1


class TestMDC:
    def test_cold_misses_counted(self):
        machine = machine_for("flash", mdc=True)
        one_read(machine, 0)
        node = machine.nodes[0]
        assert node.mdc.read_misses >= 1
        assert node.stats.pp_mdc_stall > 0

    def test_warm_mdc_hits(self):
        machine = machine_for("flash", mdc=True)
        streams = [
            iter([("r", 0), ("c", 500), ("r", LINE * machine.nodes[0].cpu.cache.n_sets * 2)]),
            iter([("c", 1)]),
        ]
        machine.run(streams)
        node = machine.nodes[0]
        assert node.mdc.accesses > node.mdc.read_misses

    def test_mdc_misses_consume_memory_bandwidth(self):
        machine = machine_for("flash", mdc=True)
        reads_before = machine.nodes[0].memory.reads
        one_read(machine, 0)
        # The data read plus at least one MDC fill.
        assert machine.nodes[0].memory.reads >= 2

    def test_ideal_machine_has_no_mdc(self):
        machine = machine_for("ideal")
        assert machine.nodes[0].mdc is None


class TestQueueLimits:
    def test_pi_in_queue_backpressure_tracked(self):
        machine = machine_for("flash")
        streams = [
            iter([("w", i * LINE) for i in range(40)] + [("c", 3000)]),
            iter([("c", 1)]),
        ]
        machine.run(streams)
        # With 4 MSHRs the CPU can't exceed the 16-entry PI queue here, but
        # the queue must have seen traffic.
        assert machine.nodes[0].controller.pi_in_q.total_puts >= 40

    def test_data_buffers_acquired_and_released(self):
        machine = machine_for("flash")
        one_read(machine, 0)
        bufs = machine.nodes[0].controller.data_buffers
        assert bufs.total_acquires >= 1
        assert bufs.in_use == 0  # all released at quiesce


class TestInboxWaiter:
    def test_pending_get_carries_at_most_one_waiter(self, monkeypatch):
        """While the inbox waits on both interfaces, each pending get holds
        one arbitration waiter; a get that outlives several waits must not
        collect a spent waiter per wait."""
        from repro.harness import experiments
        from repro.magic.chip import MagicChip

        most = []
        ib_next = MagicChip._ib_next

        def watched(chip):
            ib_next(chip)
            for get in (chip._get_pi, chip._get_ni):
                if get.callbacks:
                    most.append(len(get.callbacks))

        monkeypatch.setattr(MagicChip, "_ib_next", watched)
        spec = experiments.normalize_spec(
            "mp3d", kind="flash",
            workload_overrides=experiments.SMOKE_SIZES["mp3d"])
        machine, ops, _ = experiments.build_machine(spec)
        machine.run(ops)
        assert most, "the inbox never waited on both interfaces"
        assert max(most) == 1
