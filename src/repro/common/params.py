"""Machine configuration.

Every latency in Table 3.2, every resource limit in Table 3.1, and every
cost in Table 3.4 of the paper is a named field here, so experiments can be
expressed as configuration deltas (e.g. the ideal machine, disabled
speculation, a single-issue PP) rather than code changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .units import CACHE_LINE_BYTES, KB, MB, WORDS_PER_LINE

__all__ = [
    "SuboperationLatencies",
    "ResourceLimits",
    "CacheConfig",
    "MagicCacheConfig",
    "HandlerCosts",
    "MachineConfig",
    "flash_config",
    "ideal_config",
    "mesh_transit_cycles",
]


def mesh_transit_cycles(n_nodes: int, header_cycles: int = 3, hop_ns: int = 40) -> int:
    """Average network transit latency (in 10 ns cycles) for a 2-D mesh.

    The paper charges a fixed average transit: one hop to enter, one to exit,
    the mesh-average hop count in between, at 40 ns per hop, plus 3 cycles of
    header.  For 16 nodes this yields the paper's 22 cycles.
    """
    if n_nodes < 1:
        raise ConfigError(f"n_nodes must be >= 1, got {n_nodes}")
    if n_nodes == 1:
        return 0
    side = max(1, round(math.sqrt(n_nodes)))
    # Mean Manhattan distance on a side x side mesh is ~ 2*side/3; the paper
    # quotes 2.6 hops for 16 nodes (4x4) and 22 cycles total transit.
    avg_hops = 2.0 * side / 3.0 if side > 1 else 1.0
    hops = 1.0 + avg_hops + 1.0
    return math.ceil(hops * hop_ns / 10.0) + header_cycles


@dataclass(frozen=True)
class SuboperationLatencies:
    """Table 3.2: sub-operation latencies in 10 ns cycles."""

    # Processor.
    miss_detect_to_bus: int = 5
    bus_transit: int = 1
    # Processor interface.
    pi_inbound: int = 1
    pi_outbound: int = 4            # 2 on the ideal machine
    pi_outbound_arb: int = 1
    pi_outbound_bus_transit: int = 1
    cache_state_retrieve: int = 15  # retrieve state from processor cache
    cache_data_retrieve: int = 20   # first double word from processor cache
    # Time from handler start until the first double word of an intervention
    # arrives from the processor cache (FLASH: issue overhead + state + data
    # pipelined; the ideal controller issues instantly, so it sees just the
    # data-retrieve time).
    intervention_data: int = 28
    # Network interface.
    ni_inbound: int = 8
    ni_outbound: int = 4
    # Inbox.
    inbox_arbitration: int = 1
    jump_table_lookup: int = 2      # 0 on the ideal machine (no jump table)
    # Protocol processor.
    mdc_miss_penalty: int = 29
    outbox: int = 1                 # 0 on the ideal machine
    # Shared.
    network_transit: int = 22       # average, 16 nodes
    memory_access: int = 14         # to first 8 bytes


@dataclass(frozen=True)
class ResourceLimits:
    """Table 3.1: MAGIC resource limits.  ``None`` means unbounded (the ideal
    machine's infinitely deep queues)."""

    incoming_network_queue: Optional[int] = 16
    outgoing_network_queue: Optional[int] = 16
    memory_controller_queue: Optional[int] = 1
    inbox_to_pp_queue: Optional[int] = 1
    outgoing_pi_queue: Optional[int] = 1
    incoming_pi_queue: Optional[int] = 16
    data_buffers: Optional[int] = 16


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache geometry."""

    size_bytes: int = 1 * MB
    associativity: int = 2
    line_bytes: int = CACHE_LINE_BYTES
    mshrs: int = 4                  # outstanding misses supported

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.associativity} ways of {self.line_bytes}-byte lines"
            )
        # The cache hot path decomposes addresses with shifts and masks, which
        # requires power-of-two line size and set count (true of every real
        # cache geometry, including all of the paper's).
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )
        n_sets = self.n_sets
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ConfigError(
                f"derived set count must be a power of two, got {n_sets} "
                f"({self.size_bytes} bytes / {self.associativity} ways of "
                f"{self.line_bytes}-byte lines)"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class MagicCacheConfig:
    """The MAGIC data cache (MDC) and instruction cache."""

    mdc_size_bytes: int = 64 * KB
    mdc_associativity: int = 2
    mdc_line_bytes: int = CACHE_LINE_BYTES
    icache_size_bytes: int = 32 * KB
    enabled: bool = True            # False models a PP with perfect caches


@dataclass(frozen=True)
class HandlerCosts:
    """Table 3.4: PP occupancies for common operations (10 ns cycles).

    These drive the fast *cost-model* PP backend.  The emulator backend
    derives costs by actually executing the PP-assembly handlers; the two are
    cross-validated in tests.
    """

    read_from_memory: int = 11          # service read miss from main memory
    write_from_memory: int = 14         # service write miss from main memory
    per_invalidation: int = 13          # 10-15 per invalidation sent
    forward_to_home: int = 3            # requesting node sends a remote request
    forward_home_to_dirty: int = 18     # home forwards request to dirty node
    retrieve_from_proc_cache: int = 38  # dirty data pulled from a local cache
    reply_net_to_proc: int = 2          # pass a network reply up to the CPU
    local_writeback: int = 10
    local_replacement_hint: int = 7
    remote_writeback: int = 8
    remote_hint_only_sharer: int = 17   # replacement hint, only node on list
    remote_hint_base: int = 23          # hint, Nth node: base + slope * N
    remote_hint_per_link: int = 14
    invalidation_receive: int = 6       # invalidate a line in the local cache
    ack_receive: int = 5                # collect one invalidation ack
    sharing_writeback: int = 9          # home absorbs 3-hop sharing writeback
    upgrade_ack: int = 2                # ownership granted without data


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine."""

    n_procs: int = 16
    kind: str = "flash"                 # "flash" | "ideal"
    latencies: SuboperationLatencies = field(default_factory=SuboperationLatencies)
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    proc_cache: CacheConfig = field(default_factory=CacheConfig)
    magic_caches: MagicCacheConfig = field(default_factory=MagicCacheConfig)
    handler_costs: HandlerCosts = field(default_factory=HandlerCosts)
    # MAGIC features.
    speculative_reads: bool = True      # jump-table speculative memory initiation
    pp_backend: str = "table"           # "table" (cost model) | "emulator"
    # Coherence protocol variant: "base" (dynamic pointer allocation, the
    # paper's protocol) or "migratory" (the flexibility experiment: the same
    # protocol plus migratory-data detection and exclusive hand-off).
    protocol: str = "base"
    pp_dual_issue: bool = True          # Section 5.3 ablation when False
    pp_special_instructions: bool = True
    # Memory system.
    memory_bytes_per_node: int = 64 * MB
    memory_busy_cycles: int = 14 + WORDS_PER_LINE - 1  # controller occupancy/access
    # CPU model.
    cpu_hit_quantum: int = 64           # max cycles of batched hits between yields
    # Directory.
    directory_links_per_node: int = 65536
    # Causal-profiling hook (``harness whatif``): per-handler multiplicative
    # cost factors applied by the table cost model, e.g. {"get_home_clean":
    # 2.0}.  None/empty leaves every Table 3.4 cost byte-identical.
    handler_scale: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.kind not in ("flash", "ideal"):
            raise ConfigError(f"unknown machine kind {self.kind!r}")
        if self.pp_backend not in ("table", "emulator"):
            raise ConfigError(f"unknown PP backend {self.pp_backend!r}")
        if self.protocol not in ("base", "migratory"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.n_procs < 1:
            raise ConfigError("need at least one processor")
        if self.handler_scale:
            if self.pp_backend == "emulator":
                raise ConfigError(
                    "handler_scale requires the table cost model; the"
                    " emulator backend derives costs from PP assembly")
            factors = dict(self.handler_scale)
            for handler, factor in factors.items():
                if not isinstance(factor, (int, float)) or factor <= 0:
                    raise ConfigError(
                        f"handler_scale[{handler!r}] must be a positive"
                        f" number, got {factor!r}")
            object.__setattr__(self, "handler_scale", factors)

    @property
    def is_ideal(self) -> bool:
        return self.kind == "ideal"

    def with_changes(self, **kwargs) -> "MachineConfig":
        return replace(self, **kwargs)


def flash_config(n_procs: int = 16, cache_size: int = 1 * MB, **kwargs) -> MachineConfig:
    """The FLASH machine as simulated in the paper."""
    latencies = kwargs.pop(
        "latencies",
        SuboperationLatencies(network_transit=mesh_transit_cycles(n_procs)),
    )
    return MachineConfig(
        n_procs=n_procs,
        kind="flash",
        latencies=latencies,
        proc_cache=CacheConfig(size_bytes=cache_size),
        **kwargs,
    )


def ideal_config(n_procs: int = 16, cache_size: int = 1 * MB, **kwargs) -> MachineConfig:
    """The idealized hardwired machine: zero-time controller operations,
    infinite queues, shorter outbound PI path, no jump table or outbox."""
    latencies = kwargs.pop("latencies", None)
    if latencies is None:
        latencies = SuboperationLatencies(
            pi_outbound=2,
            jump_table_lookup=0,
            outbox=0,
            mdc_miss_penalty=0,
            intervention_data=20,  # issued instantly; just the data retrieve
            network_transit=mesh_transit_cycles(n_procs),
        )
    limits = kwargs.pop(
        "limits",
        ResourceLimits(
            incoming_network_queue=None,
            outgoing_network_queue=None,
            memory_controller_queue=None,
            inbox_to_pp_queue=None,
            outgoing_pi_queue=None,
            incoming_pi_queue=None,
            data_buffers=None,
        ),
    )
    return MachineConfig(
        n_procs=n_procs,
        kind="ideal",
        latencies=latencies,
        limits=limits,
        proc_cache=CacheConfig(size_bytes=cache_size),
        magic_caches=MagicCacheConfig(enabled=False),
        speculative_reads=False,  # irrelevant: memory starts instantly anyway
        **kwargs,
    )
