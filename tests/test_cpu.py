"""Unit tests for the compute processor model (run on a 1-2 node machine)."""

import pytest

from repro.caches.setassoc import CacheState
from repro.common.errors import WorkloadError
from repro.common.params import CacheConfig, flash_config, ideal_config
from repro.machine import Machine
from repro.protocol.messages import Message, MessageType as MT

KB = 1024
LINE = 128


def run_single(ops_list, kind="flash", n_procs=1, cache=4 * KB, warm_mdc=True,
               **cfg):
    make = flash_config if kind == "flash" else ideal_config
    config = make(n_procs=n_procs, cache_size=cache, **cfg)
    if warm_mdc:
        # Latency-focused tests disable the MDC so cold protocol-cache misses
        # do not distort single-miss timings.
        from repro.common.params import MagicCacheConfig
        config = config.with_changes(magic_caches=MagicCacheConfig(enabled=False))
    machine = Machine(config)
    streams = [iter(ops_list if cpu == 0 else [("c", 1)])
               for cpu in range(n_procs)]
    result = machine.run(streams)
    return machine, result


class TestBasicExecution:
    def test_compute_only(self):
        machine, result = run_single([("c", 100)])
        times = machine.nodes[0].cpu.times
        assert times.busy == 100
        assert result.execution_time == 100

    def test_read_hit_costs_issue_slot(self):
        machine, _ = run_single([("r", 0), ("r", 0), ("r", 0), ("r", 0)])
        times = machine.nodes[0].cpu.times
        # 1 miss + 3 hits: busy is 4 quarter-cycle issue slots.
        assert times.busy == pytest.approx(1.0)
        assert machine.nodes[0].cpu.cache.stats.read_hits == 3

    def test_read_miss_blocks(self):
        machine, _ = run_single([("r", 0)])
        times = machine.nodes[0].cpu.times
        # Local clean read miss: 27 cycles on FLASH (Table 3.3).
        assert times.read_stall == pytest.approx(27, abs=2)

    def test_multi_ref_op_counts_hits(self):
        machine, _ = run_single([("r", 0, 16)])
        cpu = machine.nodes[0].cpu
        assert cpu.total_reads == 16
        assert cpu.cache.stats.read_misses == 1
        assert cpu.cache.stats.read_hits == 15

    def test_unknown_op_rejected(self):
        with pytest.raises(WorkloadError):
            run_single([("z", 0)])


class TestWrites:
    def test_write_miss_does_not_block(self):
        """Non-blocking writes: compute continues during the miss."""
        machine, result = run_single([("w", 0), ("c", 200)])
        times = machine.nodes[0].cpu.times
        assert times.write_stall < 10  # only miss-detect overheads
        assert times.busy == pytest.approx(200.25)

    def test_write_merge_same_line(self):
        machine, _ = run_single([("w", 0), ("w", 8), ("w", 16)])
        cpu = machine.nodes[0].cpu
        assert cpu.mshrs.total_merges == 2
        assert cpu.cache.stats.write_misses == 1

    def test_write_index_conflict_stalls(self):
        machine, _ = run_single([("w", 0)], cache=4 * KB)
        cache = machine.nodes[0].cpu.cache
        span = LINE * cache.n_sets
        machine2, _ = run_single([("w", 0), ("w", span)], cache=4 * KB)
        times = machine2.nodes[0].cpu.times
        # The second write maps to the same index with a different tag and
        # must stall until the first miss completes (Section 3.2).
        assert times.write_stall > 10

    def test_writes_to_different_lines_overlap(self):
        machine, _ = run_single([("w", 0), ("w", LINE), ("w", 2 * LINE)])
        times = machine.nodes[0].cpu.times
        # Three non-conflicting non-blocking writes overlap; total write
        # stall stays far below 3 serial misses.
        assert times.write_stall < 40

    def test_read_after_write_same_line_waits_for_fill(self):
        machine, _ = run_single([("w", 0), ("r", 8)])
        cpu = machine.nodes[0].cpu
        assert cpu.read_merges == 1
        assert cpu.cache.state_of(0) == CacheState.DIRTY

    def test_write_after_read_merge_upgrades(self):
        """A write merged into an outstanding read still gains ownership."""
        machine, _ = run_single([("r", 0), ("w", 8), ("c", 500)])
        cpu = machine.nodes[0].cpu
        assert cpu.cache.state_of(0) == CacheState.DIRTY


class TestEvictions:
    def test_dirty_eviction_writes_back(self):
        cache_lines = (4 * KB) // LINE
        span = LINE * (4 * KB) // (LINE * 2 * LINE)
        machine, _ = run_single(
            [("w", 0)]
            + [("r", (1 + i) * LINE * 16) for i in range(3)]  # same set
            + [("c", 2000)],
            cache=4 * KB,
        )
        node = machine.nodes[0]
        # The dirty line 0 was evicted; directory no longer shows an owner.
        entry = node.directory.entry(0)
        assert not entry.dirty

    def test_clean_eviction_sends_hint(self):
        machine, _ = run_single(
            [("r", 0)]
            + [("r", (1 + i) * LINE * 16) for i in range(3)]
            + [("c", 2000)],
            cache=4 * KB,
        )
        node = machine.nodes[0]
        assert 0 not in node.directory.sharers(0)


class TestUpgradeInFlight:
    """A fill never evicts a resident line with an outstanding upgrade: the
    eviction's replacement hint would reach the home after the grant, from
    the node the directory now records as owner (race A)."""

    def _cpu(self, associativity):
        config = flash_config(n_procs=2, cache_size=4 * KB).with_changes(
            proc_cache=CacheConfig(size_bytes=4 * KB,
                                   associativity=associativity))
        cpu = Machine(config).nodes[0].cpu
        posted = []
        cpu._post_eviction = posted.append
        return cpu, LINE * cpu.cache.n_sets, posted

    def _fill(self, cpu, line, mtype=MT.PUT):
        cpu.mshrs.allocate(line, mtype != MT.PUT, 0.0)
        cpu.deliver(Message(mtype, line, 0, 0, 0))

    def test_upgrading_line_skipped_as_victim(self):
        cpu, span, posted = self._cpu(associativity=2)
        cpu.cache.fill(0, CacheState.SHARED)      # LRU, upgrade in flight
        cpu.cache.fill(span, CacheState.SHARED)
        cpu.mshrs.allocate(0, True, 0.0)
        self._fill(cpu, 2 * span)
        assert posted == [(span, CacheState.SHARED)]
        assert cpu.cache.state_of(0) == CacheState.SHARED
        assert cpu.cache.state_of(2 * span) == CacheState.SHARED
        assert cpu.unkept_fills == 0

    @pytest.mark.parametrize("mtype, state", [
        (MT.PUT, CacheState.SHARED), (MT.PUTX, CacheState.DIRTY)])
    def test_every_way_upgrading_leaves_the_fill_unkept(self, mtype, state):
        """Direct-mapped: the arriving line serves its waiters, then leaves
        as its own victim (a hint, or a writeback of the new data)."""
        cpu, span, posted = self._cpu(associativity=1)
        cpu.cache.fill(0, CacheState.SHARED)
        cpu.mshrs.allocate(0, True, 0.0)
        self._fill(cpu, span, mtype)
        assert posted == [(span, state)]
        assert cpu.cache.state_of(0) == CacheState.SHARED
        assert cpu.cache.state_of(span) == CacheState.INVALID
        assert cpu.unkept_fills == 1


class TestSyncOps:
    def test_barrier_waits_for_all(self):
        config = flash_config(n_procs=2, cache_size=4 * KB)
        machine = Machine(config)
        streams = [
            iter([("b", "x"), ("c", 1)]),
            iter([("c", 500), ("b", "x")]),
        ]
        machine.run(streams)
        times0 = machine.nodes[0].cpu.times
        assert times0.sync == pytest.approx(500, abs=5)

    def test_lock_mutual_exclusion_cost(self):
        config = flash_config(n_procs=2, cache_size=4 * KB)
        machine = Machine(config)
        streams = [
            iter([("l", "m"), ("c", 300), ("u", "m")]),
            iter([("l", "m"), ("c", 10), ("u", "m")]),
        ]
        machine.run(streams)
        total_sync = sum(n.cpu.times.sync for n in machine.nodes)
        assert total_sync == pytest.approx(300, abs=5)


class TestBreakdownConsistency:
    def test_categories_sum_to_finish_time(self):
        ops = [("r", i * LINE) for i in range(20)] + [("c", 50)]
        machine, result = run_single(ops)
        times = machine.nodes[0].cpu.times
        assert times.total == pytest.approx(times.finish_time, rel=0.02)
