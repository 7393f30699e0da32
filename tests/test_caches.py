"""Unit tests for the set-associative cache and MSHR file."""

import pytest

from repro.caches.mshr import MSHRFile
from repro.caches.setassoc import _EMPTY_SET, CacheState, SetAssocCache
from repro.common.params import CacheConfig, flash_config
from repro.common.errors import ConfigError
from repro.machine import Machine

KB = 1024
LINE = 128


def make_cache(size=4 * KB, assoc=2):
    return SetAssocCache(CacheConfig(size_bytes=size, associativity=assoc))


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(size=4 * KB, assoc=2)
        assert cache.n_sets == 4 * KB // (LINE * 2)

    def test_line_address(self):
        cache = make_cache()
        assert cache.line_address(0) == 0
        assert cache.line_address(127) == 0
        assert cache.line_address(128) == 128
        assert cache.line_address(1000) == 896

    def test_misaligned_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, associativity=2)

    def test_non_power_of_two_line_rejected(self):
        # Shift/mask indexing requires power-of-two line size.
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=4 * KB, associativity=2, line_bytes=96)

    def test_non_power_of_two_set_count_rejected(self):
        # 3KB / (128B * 1 way) = 24 sets: not a power of two.
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=3 * KB, associativity=1)

    def test_power_of_two_geometry_accepted(self):
        config = CacheConfig(size_bytes=8 * KB, associativity=4)
        assert config.n_sets == 16

    def test_same_set_different_tags(self):
        cache = make_cache(size=4 * KB, assoc=2)
        span = LINE * cache.n_sets
        a, b = 0, span
        cache.fill(a, CacheState.SHARED)
        cache.fill(b, CacheState.DIRTY)
        # Different tags: both lines are resident, each in its own state.
        assert cache.state_of(a) == CacheState.SHARED
        assert cache.state_of(b) == CacheState.DIRTY
        # One set: a third line at the same stride evicts the LRU of the two.
        assert cache.fill(2 * span, CacheState.SHARED) == (a, CacheState.SHARED)


def run_ops(ops):
    """Run ``ops`` on a one-node FLASH machine with a 4 KB cache: the CPU's
    hit loop is the one place a reference decides hit or miss."""
    machine = Machine(flash_config(n_procs=1, cache_size=4 * KB))
    machine.run([iter(ops)])
    return machine.nodes[0].cpu.cache


class TestAccess:
    def test_cold_miss_then_hit(self):
        cache = run_ops([("r", 0), ("r", 8)])
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1
        assert cache.state_of(0) == CacheState.SHARED

    def test_write_to_shared_counts_as_miss(self):
        """A write to a SHARED line needs an upgrade (Section 3.2)."""
        cache = run_ops([("r", 0), ("w", 8), ("c", 500)])
        assert cache.stats.write_misses == 1
        assert cache.stats.write_hits == 0
        assert cache.state_of(0) == CacheState.DIRTY

    def test_write_to_dirty_hits(self):
        cache = run_ops([("w", 0), ("c", 500), ("w", 8)])
        assert cache.stats.write_misses == 1
        assert cache.stats.write_hits == 1

    def test_miss_rate(self):
        cache = run_ops([("r", 0)] + [("r", 8)] * 9)
        assert cache.stats.miss_rate == pytest.approx(0.1)


class TestReplacement:
    def test_lru_eviction(self):
        cache = make_cache(size=4 * KB, assoc=2)
        span = LINE * cache.n_sets
        lines = [0, span, 2 * span]  # three lines, one set, 2 ways
        cache.fill(lines[0], CacheState.SHARED)
        cache.fill(lines[1], CacheState.SHARED)
        victim = cache.fill(lines[2], CacheState.SHARED)
        assert victim == (lines[0], CacheState.SHARED)

    def test_touch_protects_from_eviction(self):
        cache = make_cache(size=4 * KB, assoc=2)
        span = LINE * cache.n_sets
        cache.fill(0, CacheState.SHARED)
        cache.fill(span, CacheState.SHARED)
        # Re-filling a resident line makes it MRU; span is now LRU.
        assert cache.fill(0, CacheState.SHARED) is None
        victim = cache.fill(2 * span, CacheState.SHARED)
        assert victim[0] == span

    def test_dirty_victim_counted(self):
        cache = make_cache(size=4 * KB, assoc=2)
        span = LINE * cache.n_sets
        cache.fill(0, CacheState.DIRTY)
        cache.fill(span, CacheState.SHARED)
        cache.fill(2 * span, CacheState.SHARED)
        assert cache.stats.evictions_dirty == 1

    def test_pinned_line_is_never_the_victim(self):
        cache = make_cache(size=4 * KB, assoc=2)
        span = LINE * cache.n_sets
        cache.fill(0, CacheState.SHARED)
        cache.fill(span, CacheState.SHARED)
        victim = cache.fill(2 * span, CacheState.SHARED, pinned={0})
        assert victim == (span, CacheState.SHARED)
        assert cache.state_of(0) == CacheState.SHARED

    def test_all_ways_pinned_leaves_the_set_alone(self):
        """The arriving line comes back as its own victim, uncounted."""
        cache = make_cache(size=4 * KB, assoc=1)
        span = LINE * cache.n_sets
        cache.fill(0, CacheState.SHARED)
        victim = cache.fill(span, CacheState.DIRTY, pinned={0})
        assert victim == (span, CacheState.DIRTY)
        assert dict(cache.resident_lines()) == {0: CacheState.SHARED}
        assert cache.stats.evictions_clean == cache.stats.evictions_dirty == 0

    def test_refill_resident_line_no_eviction(self):
        cache = make_cache()
        cache.fill(0, CacheState.SHARED)
        assert cache.fill(0, CacheState.DIRTY) is None
        assert cache.state_of(0) == CacheState.DIRTY


class TestCoherenceOps:
    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0, CacheState.SHARED)
        assert cache.invalidate(0) == CacheState.SHARED
        assert cache.state_of(0) == CacheState.INVALID
        assert cache.stats.invalidations_received == 1

    def test_invalidate_absent_line(self):
        cache = make_cache()
        assert cache.invalidate(0) == CacheState.INVALID
        assert cache.stats.invalidations_received == 0

    def test_set_state_downgrade(self):
        cache = make_cache()
        cache.fill(0, CacheState.DIRTY)
        cache.set_state(0, CacheState.SHARED)
        assert cache.state_of(0) == CacheState.SHARED

    def test_set_state_absent_raises(self):
        cache = make_cache()
        with pytest.raises(KeyError):
            cache.set_state(0, CacheState.SHARED)

    def test_resident_lines_enumeration(self):
        cache = make_cache()
        cache.fill(0, CacheState.SHARED)
        cache.fill(LINE, CacheState.DIRTY)
        resident = dict(cache.resident_lines())
        assert resident == {0: CacheState.SHARED, LINE: CacheState.DIRTY}
        assert len(list(cache.resident_lines())) == 2


def test_queries_create_no_sets():
    """Only a fill makes a set; lookups of unfilled sets read the shared,
    never-written empty set."""
    cache = make_cache()
    cache.fill(0, CacheState.SHARED)
    other = 3 * LINE
    assert cache.state_of(other) == CacheState.INVALID
    assert cache.invalidate(other) == CacheState.INVALID
    assert not cache.rmw_touch(other)
    with pytest.raises(KeyError):
        cache.set_state(other, CacheState.DIRTY)
    assert len(cache._sets) == 1
    assert len(list(cache.resident_lines())) == 1
    assert _EMPTY_SET == {}


class TestMSHR:
    def make(self):
        cache = make_cache()
        return MSHRFile(4, cache), cache

    def test_allocate_and_complete(self):
        mshrs, _ = self.make()
        entry = mshrs.allocate(0, False, now=5.0)
        assert mshrs.lookup(0) is entry
        assert mshrs.complete(0) is entry
        assert mshrs.lookup(0) is None

    def test_capacity_enforced(self):
        mshrs, _ = self.make()
        for i in range(4):
            mshrs.allocate(i * LINE, False, 0)
        assert mshrs.is_full
        with pytest.raises(OverflowError):
            mshrs.allocate(4 * LINE, False, 0)

    def test_duplicate_rejected(self):
        mshrs, _ = self.make()
        mshrs.allocate(0, False, 0)
        with pytest.raises(KeyError):
            mshrs.allocate(0, True, 0)

    def test_write_merge(self):
        mshrs, _ = self.make()
        entry = mshrs.allocate(0, True, 0)
        mshrs.merge_write(0)
        mshrs.merge_write(0)
        assert entry.merged_writes == 2
        assert mshrs.total_merges == 2

    def test_index_conflict_same_set_different_tag(self):
        mshrs, cache = self.make()
        span = LINE * cache.n_sets
        mshrs.allocate(0, False, 0)
        assert mshrs.index_conflict(span)       # same set, different tag
        assert not mshrs.index_conflict(0)      # same line is a merge, not a conflict
        assert not mshrs.index_conflict(LINE)   # different set

    def test_peak_tracking(self):
        mshrs, _ = self.make()
        mshrs.allocate(0, False, 0)
        mshrs.allocate(LINE, False, 0)
        mshrs.complete(0)
        mshrs.allocate(2 * LINE, False, 0)
        assert mshrs.peak_outstanding == 2
