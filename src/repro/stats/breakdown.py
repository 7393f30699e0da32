"""Statistics containers.

The execution-time categories follow Figure 4.1: processor busy time (Busy),
contention for the cache (Cont), read stall (Read), write stall (Write) and
synchronization wait (Sync).  Node-level statistics cover PP occupancy,
memory occupancy, speculation and MDC behaviour — everything Tables 4.1, 4.2,
5.1 and Section 5.2 report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..caches.setassoc import CacheStats

__all__ = ["CacheStats", "CpuTimes", "NodeStats", "merge_cpu_times",
           "merge_cache_stats"]


def merge_cache_stats(stats: Iterable[CacheStats]) -> CacheStats:
    """Fold per-node cache counters into one machine-wide
    :class:`~repro.caches.setassoc.CacheStats` (see its ``merge``; used by
    the run report)."""
    total = CacheStats()
    for s in stats:
        total.merge(s)
    return total


class CpuTimes:
    """Per-processor execution-time breakdown (Figure 4.1 categories)."""

    __slots__ = ("busy", "read_stall", "write_stall", "sync", "cont", "finish_time")

    def __init__(self) -> None:
        self.busy = 0.0
        self.read_stall = 0.0
        self.write_stall = 0.0
        self.sync = 0.0
        self.cont = 0.0
        self.finish_time = 0.0

    @property
    def total(self) -> float:
        return self.busy + self.read_stall + self.write_stall + self.sync + self.cont

    def as_dict(self) -> Dict[str, float]:
        return {
            "busy": self.busy,
            "cont": self.cont,
            "read": self.read_stall,
            "write": self.write_stall,
            "sync": self.sync,
        }

    def to_state(self) -> Dict[str, float]:
        """Full lossless state (``as_dict`` omits ``finish_time``)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_state(cls, state: Dict[str, float]) -> "CpuTimes":
        times = cls()
        for slot in cls.__slots__:
            setattr(times, slot, state[slot])
        return times


def merge_cpu_times(times: List[CpuTimes]) -> Dict[str, float]:
    """Average the per-CPU categories, as the paper's stacked bars do."""
    n = max(1, len(times))
    merged = {"busy": 0.0, "cont": 0.0, "read": 0.0, "write": 0.0, "sync": 0.0}
    for t in times:
        for key, value in t.as_dict().items():
            merged[key] += value / n
    return merged


class NodeStats:
    """Per-node controller and memory statistics."""

    __slots__ = (
        "pp_busy", "pp_handler_cycles", "pp_mdc_stall", "handler_invocations",
        "spec_issued", "spec_useless", "messages_in",
    )

    def __init__(self) -> None:
        self.pp_busy = 0.0                  # cycles the PP (or oracle) was occupied
        self.pp_handler_cycles = 0.0        # handler execution only
        self.pp_mdc_stall = 0.0             # MDC miss penalty cycles
        self.handler_invocations = 0
        self.spec_issued = 0
        self.spec_useless = 0
        self.messages_in = 0

    def note_handler(self, name: str, cycles: float) -> None:
        # Per-handler-name counts live in the metrics registry
        # (``pp.handler_invocations``), not here: this aggregate is on the
        # hot path of every run, metrics on or off.
        self.handler_invocations += 1
        self.pp_handler_cycles += cycles

    def pp_occupancy(self, elapsed: float) -> float:
        return self.pp_busy / elapsed if elapsed > 0 else 0.0

    @property
    def useless_spec_fraction(self) -> float:
        return self.spec_useless / self.spec_issued if self.spec_issued else 0.0
