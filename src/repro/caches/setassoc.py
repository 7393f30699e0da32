"""Set-associative cache with LRU replacement.

Used for the processor's secondary cache (coherence states INVALID / SHARED /
DIRTY) and, with plain valid/dirty states, for the MAGIC data cache.  The
cache tracks *presence and state* only — the simulator never needs data
values, just like a timing-accurate trace-driven simulator.

Address decomposition is pure shift/mask arithmetic: ``line_bytes`` and
``n_sets`` are validated as powers of two at :class:`CacheConfig`
construction, so the per-reference hot path (``access``) is a single dict
pop/insert with precomputed shifts — no division, no separate
``state_of``/``touch`` round trips.

Sets are created on first touch: a 1 MB two-way cache has 4,096 sets, and
a run reaches only the ones its working set maps to.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common.errors import ConfigError
from ..common.params import CacheConfig

__all__ = ["CacheState", "SetAssocCache", "CacheStats"]


class CacheState:
    """Line states.  SHARED = clean, readable; DIRTY = modified, exclusive."""

    INVALID = "I"
    SHARED = "S"
    DIRTY = "M"


class CacheStats:
    """Hit/miss counters for one cache."""

    __slots__ = (
        "read_hits", "read_misses", "write_hits", "write_misses",
        "evictions_clean", "evictions_dirty", "invalidations_received",
    )

    def __init__(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions_clean = 0
        self.evictions_dirty = 0
        self.invalidations_received = 0

    @property
    def references(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        refs = self.references
        return self.misses / refs if refs else 0.0

    @property
    def read_miss_rate(self) -> float:
        reads = self.read_hits + self.read_misses
        return self.read_misses / reads if reads else 0.0

    # -- aggregation / serialization ------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict counter snapshot (profile report, cache round-trips)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, state: Dict[str, int]) -> "CacheStats":
        stats = cls()
        for slot in cls.__slots__:
            setattr(stats, slot, state[slot])
        return stats

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another cache's counters into this one (in place)."""
        for slot in self.__slots__:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))
        return self


class _LazySets(dict):
    """Set index -> that set's ``{tag: state}`` dict, made on first lookup."""

    __slots__ = ()

    def __missing__(self, index: int) -> Dict[int, str]:
        cache_set = self[index] = {}
        return cache_set


class SetAssocCache:
    """LRU set-associative cache keyed by *line address* (byte address of the
    first byte of the line)."""

    __slots__ = (
        "config", "name", "line_bytes", "n_sets", "associativity",
        "line_shift", "set_mask", "tag_shift", "set_span", "_sets", "stats",
    )

    def __init__(self, config: CacheConfig, name: str = "cache"):
        if config.associativity < 1:
            raise ConfigError("associativity must be >= 1")
        self.config = config
        self.name = name
        self.line_bytes = config.line_bytes
        self.n_sets = config.n_sets
        self.associativity = config.associativity
        # Shift/mask geometry (powers of two guaranteed by CacheConfig).
        self.line_shift = self.line_bytes.bit_length() - 1
        self.set_mask = self.n_sets - 1
        self.tag_shift = self.line_shift + (self.n_sets.bit_length() - 1)
        #: Byte span of one full pass over the sets (line_bytes * n_sets):
        #: the stride between two addresses that share a set index.
        self.set_span = self.line_bytes * self.n_sets
        # Set index -> {tag: state} in insertion order, so the first key is
        # the LRU line and the last the MRU one.  Untouched sets do not exist.
        self._sets: Dict[int, Dict[int, str]] = _LazySets()
        self.stats = CacheStats()

    # -- address helpers ------------------------------------------------------

    def line_address(self, address: int) -> int:
        return (address >> self.line_shift) << self.line_shift

    def set_index(self, line_addr: int) -> int:
        return (line_addr >> self.line_shift) & self.set_mask

    def tag_of(self, line_addr: int) -> int:
        return line_addr >> self.tag_shift

    # -- state queries ---------------------------------------------------------

    def state_of(self, line_addr: int) -> str:
        """Current state of the line; INVALID when absent."""
        cache_set = self._sets[(line_addr >> self.line_shift) & self.set_mask]
        return cache_set.get(line_addr >> self.tag_shift, CacheState.INVALID)

    def contains(self, line_addr: int) -> bool:
        return self.state_of(line_addr) != CacheState.INVALID

    def lines_in_set(self, line_addr: int) -> List[int]:
        """Line addresses resident in the set that ``line_addr`` maps to."""
        index = (line_addr >> self.line_shift) & self.set_mask
        base = index << self.line_shift
        span = self.set_span
        return [tag * span + base for tag in self._sets[index]]

    def set_is_full(self, line_addr: int) -> bool:
        index = (line_addr >> self.line_shift) & self.set_mask
        return len(self._sets[index]) >= self.associativity

    # -- mutation ----------------------------------------------------------------

    def touch(self, line_addr: int) -> None:
        """Mark the line MRU (it must be present)."""
        cache_set = self._sets[(line_addr >> self.line_shift) & self.set_mask]
        tag = line_addr >> self.tag_shift
        state = cache_set.pop(tag)
        cache_set[tag] = state  # re-insert at MRU position (dicts are ordered)

    def access(self, line_addr: int, is_write: bool) -> str:
        """Look up a CPU reference: updates LRU and hit/miss statistics.

        Returns the *pre-access* state.  A write to a SHARED line is counted
        as a write miss (it needs an upgrade); the caller performs the
        coherence action and then updates the state.

        State lookup, LRU update and statistics are fused into one dict
        pop/insert — this is the per-reference fast path.
        """
        cache_set = self._sets[(line_addr >> self.line_shift) & self.set_mask]
        tag = line_addr >> self.tag_shift
        state = cache_set.pop(tag, None)
        stats = self.stats
        if state is None:
            if is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            return CacheState.INVALID
        cache_set[tag] = state  # MRU
        if not is_write:
            stats.read_hits += 1
        elif state == CacheState.SHARED:
            stats.write_misses += 1  # upgrade required
        else:
            stats.write_hits += 1
        return state

    def rmw_touch(self, line_addr: int) -> bool:
        """Fused hit path of a read-modify-write (the MDC's access pattern):
        if the line is resident, mark it MRU and DIRTY in one dict operation.
        Returns True on a hit; a miss leaves the cache untouched (the caller
        fills).  No statistics are updated (the MDC keeps its own)."""
        cache_set = self._sets[(line_addr >> self.line_shift) & self.set_mask]
        tag = line_addr >> self.tag_shift
        if cache_set.pop(tag, None) is None:
            return False
        cache_set[tag] = CacheState.DIRTY
        return True

    def fill(self, line_addr: int, state: str) -> Optional[Tuple[int, str]]:
        """Install a line; returns ``(victim_line_addr, victim_state)`` if a
        resident line had to be evicted, else None."""
        index = (line_addr >> self.line_shift) & self.set_mask
        tag = line_addr >> self.tag_shift
        cache_set = self._sets[index]
        victim: Optional[Tuple[int, str]] = None
        if (
            cache_set.pop(tag, None) is None
            and len(cache_set) >= self.associativity
        ):
            victim_tag = next(iter(cache_set))  # LRU = oldest insertion
            victim_state = cache_set.pop(victim_tag)
            victim_addr = victim_tag * self.set_span + (index << self.line_shift)
            if victim_state == CacheState.DIRTY:
                self.stats.evictions_dirty += 1
            else:
                self.stats.evictions_clean += 1
            victim = (victim_addr, victim_state)
        cache_set[tag] = state
        return victim

    def set_state(self, line_addr: int, state: str) -> None:
        """Change the state of a resident line (no LRU update)."""
        cache_set = self._sets[(line_addr >> self.line_shift) & self.set_mask]
        tag = line_addr >> self.tag_shift
        if tag not in cache_set:
            raise KeyError(f"line {line_addr:#x} not resident in {self.name}")
        cache_set[tag] = state

    def invalidate(self, line_addr: int) -> str:
        """Remove a line (external invalidation); returns its prior state."""
        cache_set = self._sets[(line_addr >> self.line_shift) & self.set_mask]
        prior = cache_set.pop(line_addr >> self.tag_shift, CacheState.INVALID)
        if prior != CacheState.INVALID:
            self.stats.invalidations_received += 1
        return prior

    # -- inspection -----------------------------------------------------------

    def resident_lines(self) -> Iterator[Tuple[int, str]]:
        """Resident ``(line_addr, state)`` pairs, by ascending set index and
        LRU-first within a set."""
        span = self.set_span
        shift = self.line_shift
        for index, cache_set in sorted(self._sets.items()):
            base = index << shift
            for tag, state in cache_set.items():
                yield tag * span + base, state

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())
