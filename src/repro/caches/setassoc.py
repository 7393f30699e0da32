"""Set-associative cache with LRU replacement.

Used for the processor's secondary cache (coherence states INVALID / SHARED /
DIRTY) and, with plain valid/dirty states, for the MAGIC data cache.  The
cache tracks *presence and state* only — the simulator never needs data
values, just like a timing-accurate trace-driven simulator.

Address decomposition is pure shift/mask arithmetic: ``line_bytes`` and
``n_sets`` are validated as powers of two at :class:`CacheConfig`
construction.  The per-reference hit/miss decision lives in one place, the
CPU's hit loop (:meth:`repro.processor.cpu.CPU._loop`), which reads the set
table directly: one dict pop/insert with precomputed shifts.

Sets are created on first fill: a 1 MB two-way cache has 4,096 sets, and a
run reaches only the ones its working set maps to.  Readers look a set up
with ``_sets.get(index, _EMPTY_SET)``, so a query never creates one.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, Optional, Tuple

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
        """Plain-dict counter snapshot."""
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


#: Stand-in for a set no fill has reached.  Shared by every cache and never
#: written: readers only pop from it (a miss) or test membership.
_EMPTY_SET: Dict[int, str] = {}


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
        # the LRU line and the last the MRU one.  Unfilled sets do not exist.
        self._sets: Dict[int, Dict[int, str]] = {}
        self.stats = CacheStats()

    # -- address helpers ------------------------------------------------------

    def line_address(self, address: int) -> int:
        return (address >> self.line_shift) << self.line_shift

    # -- state queries ---------------------------------------------------------

    def state_of(self, line_addr: int) -> str:
        """Current state of the line; INVALID when absent."""
        cache_set = self._sets.get(
            (line_addr >> self.line_shift) & self.set_mask, _EMPTY_SET)
        return cache_set.get(line_addr >> self.tag_shift, CacheState.INVALID)

    # -- mutation ----------------------------------------------------------------

    def rmw_touch(self, line_addr: int) -> bool:
        """Fused hit path of a read-modify-write (the MDC's access pattern):
        if the line is resident, mark it MRU and DIRTY in one dict operation.
        Returns True on a hit; a miss leaves the cache untouched (the caller
        fills).  No statistics are updated (the MDC keeps its own)."""
        cache_set = self._sets.get(
            (line_addr >> self.line_shift) & self.set_mask, _EMPTY_SET)
        tag = line_addr >> self.tag_shift
        if cache_set.pop(tag, None) is None:
            return False
        cache_set[tag] = CacheState.DIRTY
        return True

    def fill(
        self, line_addr: int, state: str, pinned: Container[int] = (),
    ) -> Optional[Tuple[int, str]]:
        """Install a line; returns ``(victim_line_addr, victim_state)`` if a
        resident line had to be evicted, else None.

        The victim is the least recently used line whose address is not in
        ``pinned``.  When every resident line of a full set is pinned, the
        arriving line is not installed and comes back as its own victim
        (uncounted: nothing resident left)."""
        index = (line_addr >> self.line_shift) & self.set_mask
        tag = line_addr >> self.tag_shift
        sets = self._sets
        cache_set = sets.get(index)
        if cache_set is None:
            cache_set = sets[index] = {}
        victim: Optional[Tuple[int, str]] = None
        if (
            cache_set.pop(tag, None) is None
            and len(cache_set) >= self.associativity
        ):
            span = self.set_span
            base = index << self.line_shift
            for victim_tag in cache_set:  # LRU = oldest insertion
                victim_addr = victim_tag * span + base
                if victim_addr not in pinned:
                    break
            else:
                return line_addr, state
            victim_state = cache_set.pop(victim_tag)
            if victim_state == CacheState.DIRTY:
                self.stats.evictions_dirty += 1
            else:
                self.stats.evictions_clean += 1
            victim = (victim_addr, victim_state)
        cache_set[tag] = state
        return victim

    def set_state(self, line_addr: int, state: str) -> None:
        """Change the state of a resident line (no LRU update)."""
        cache_set = self._sets.get(
            (line_addr >> self.line_shift) & self.set_mask, _EMPTY_SET)
        tag = line_addr >> self.tag_shift
        if tag not in cache_set:
            raise KeyError(f"line {line_addr:#x} not resident in {self.name}")
        cache_set[tag] = state

    def invalidate(self, line_addr: int) -> str:
        """Remove a line (external invalidation); returns its prior state."""
        cache_set = self._sets.get(
            (line_addr >> self.line_shift) & self.set_mask, _EMPTY_SET)
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
