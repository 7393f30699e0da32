"""Run results and derived metrics.

Collects the quantities the paper's tables report: execution-time breakdown
(Figure 4.1), miss rates and read-miss distributions, contentionless read
miss time (CRMT), average memory and PP occupancy (Tables 4.1/4.2), and the
speculation and MDC statistics of Section 5.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..protocol.coherence import MissClass
from .breakdown import CpuTimes, merge_cache_stats, merge_cpu_times
from .critpath import extract_critical_path
from .metrics import harvest_machine

__all__ = ["RunResult", "crmt"]


def crmt(distribution: Dict[str, float], latencies: Dict[str, float]) -> float:
    """Contentionless read miss time: the distribution-weighted average of
    the no-contention read miss latencies (Section 4.1)."""
    total = sum(distribution.values())
    if total == 0:
        return 0.0
    return sum(
        distribution[cls] / total * latencies[cls]
        for cls in distribution
        if cls in latencies
    )


class RunResult:
    """Everything measured from one simulation run.

    Serializable: :meth:`to_json` produces a canonical (sorted-key, compact)
    JSON form that round-trips losslessly through :meth:`from_json`, so
    results can cross process boundaries (the run farm) and persist on disk
    (the result cache).  Two identical simulations serialize byte-identically.
    """

    #: Serialization schema version; bump when the measured fields change.
    SCHEMA = 1

    #: Scalar/plain-container attributes, serialized verbatim.
    _PLAIN_FIELDS = (
        "kind", "n_procs", "cache_size", "execution_time", "breakdown",
        "total_reads", "total_writes", "read_misses", "write_misses",
        "miss_classes", "memory_occupancy", "pp_occupancy",
        "spec_issued", "spec_useless", "mdc_accesses", "mdc_misses",
        "mdc_writebacks", "mdc_miss_rates", "handler_invocations",
        "pp_handler_cycles", "network_messages", "pp_dynamic",
    )

    #: Optional Table 5.2 totals, attached only for emulator-backend runs.
    pp_dynamic: Optional[Dict[str, float]] = None

    #: Class-level defaults for attributes set conditionally: deserialized
    #: or stripped-down results fall back to None instead of AttributeError.
    fault_counters: Optional[Dict[str, int]] = None
    #: Per-miss-class latency decomposition (``Tracer.decomposition()``);
    #: present — and serialized — only for traced runs, so untraced results
    #: (including the golden-hash matrix) are byte-identical to the seed.
    latency_decomposition: Optional[Dict[str, Any]] = None
    #: Metrics registry snapshot (``MetricsRegistry.to_dict()`` after
    #: ``harvest_machine``); present — and serialized — only for metrics-on
    #: runs, so metrics-off canonical JSON is byte-identical to the seed.
    metrics: Optional[Dict[str, Any]] = None
    #: Open-loop latency snapshot (``LatencyMonitor.to_dict()``); present —
    #: and serialized — only when a monitor was attached, same contract.
    load_latency: Optional[Dict[str, Any]] = None
    #: Critical-path attribution (``repro.stats.critpath``); present — and
    #: serialized — only for traced runs, same contract.
    critpath: Optional[Dict[str, Any]] = None

    def __init__(self, machine, execution_time: float):
        config = machine.config
        self.kind = config.kind
        self.n_procs = config.n_procs
        self.cache_size = config.proc_cache.size_bytes
        self.execution_time = execution_time
        self.cpu_times: List[CpuTimes] = [node.cpu.times for node in machine.nodes]
        self.breakdown = merge_cpu_times(self.cpu_times)
        # References and miss rates.
        self.total_reads = sum(n.cpu.total_reads for n in machine.nodes)
        self.total_writes = sum(n.cpu.total_writes for n in machine.nodes)
        cache_stats = merge_cache_stats(n.cpu.cache.stats for n in machine.nodes)
        self.read_misses = cache_stats.read_misses
        self.write_misses = cache_stats.write_misses
        #: Fault-injection counters (not serialized — set by the harness on
        #: freshly simulated fault-injected runs; see ``repro.faults``).
        self.fault_counters: Optional[Dict[str, int]] = None
        # Read-miss classification (summed over homes).
        self.miss_classes: Dict[str, int] = {cls: 0 for cls in MissClass.ALL}
        for node in machine.nodes:
            for cls, count in node.engine.miss_classes.items():
                self.miss_classes[cls] += count
        # Occupancies.
        self.memory_occupancy = [
            node.memory.occupancy(execution_time) for node in machine.nodes
        ]
        self.pp_occupancy = [
            node.stats.pp_occupancy(execution_time) for node in machine.nodes
        ]
        # Speculation (Table 5.1).
        self.spec_issued = sum(n.stats.spec_issued for n in machine.nodes)
        self.spec_useless = sum(n.stats.spec_useless for n in machine.nodes)
        # MDC (Section 5.2).
        mdcs = [n.mdc for n in machine.nodes if n.mdc is not None]
        self.mdc_accesses = sum(m.accesses for m in mdcs)
        self.mdc_misses = sum(m.read_misses for m in mdcs)
        self.mdc_writebacks = sum(m.writeback_victims for m in mdcs)
        self.mdc_miss_rates = [m.miss_rate for m in mdcs]
        # Handler statistics (Table 5.2 inputs).
        self.handler_invocations = sum(
            n.stats.handler_invocations for n in machine.nodes
        )
        self.pp_handler_cycles = sum(
            n.stats.pp_handler_cycles for n in machine.nodes
        )
        self.network_messages = machine.network.messages_sent
        # Latency decomposition (traced runs only; see repro.stats.trace).
        tracer = getattr(machine, "tracer", None)
        if tracer is not None:
            self.latency_decomposition = tracer.decomposition()
            finish = [node.cpu.times.finish_time for node in machine.nodes]
            self.critpath = extract_critical_path(
                tracer, execution_time, finish)
        # Metrics registry (metrics-on runs only; see repro.stats.metrics):
        # fold the subsystems' unconditional counters in, then snapshot.
        registry = getattr(machine, "metrics", None)
        if registry is not None:
            harvest_machine(registry, machine)
            self.metrics = registry.to_dict()
        # Open-loop latency (monitor-attached runs only; repro.stats.latency).
        monitor = getattr(machine, "loadlat", None)
        if monitor is not None:
            self.load_latency = monitor.to_dict(execution_time)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {"schema": self.SCHEMA}
        for name in self._PLAIN_FIELDS:
            state[name] = getattr(self, name)
        state["cpu_times"] = [times.to_state() for times in self.cpu_times]
        if self.latency_decomposition is not None:
            # Only traced runs carry (and serialize) a decomposition, so the
            # canonical JSON of untraced runs is unchanged.
            state["latency_decomposition"] = self.latency_decomposition
        if self.metrics is not None:
            # Same contract for the metrics registry snapshot.
            state["metrics"] = self.metrics
        if self.load_latency is not None:
            # Same contract for the open-loop latency snapshot.
            state["load_latency"] = self.load_latency
        if self.critpath is not None:
            # Same contract for the critical-path attribution.
            state["critpath"] = self.critpath
        return state

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "RunResult":
        if state.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"RunResult schema mismatch: got {state.get('schema')!r}, "
                f"expected {cls.SCHEMA}"
            )
        result = cls.__new__(cls)
        for name in cls._PLAIN_FIELDS:
            setattr(result, name, state[name])
        result.cpu_times = [CpuTimes.from_state(s) for s in state["cpu_times"]]
        decomposition = state.get("latency_decomposition")
        if decomposition is not None:
            result.latency_decomposition = decomposition
        metrics = state.get("metrics")
        if metrics is not None:
            result.metrics = metrics
        load_latency = state.get("load_latency")
        if load_latency is not None:
            result.load_latency = load_latency
        critpath = state.get("critpath")
        if critpath is not None:
            result.critpath = critpath
        return result

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators — byte-stable for
        identical runs, so determinism can be asserted on the serialized form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    # -- derived metrics ----------------------------------------------------------

    @property
    def references(self) -> int:
        return self.total_reads + self.total_writes

    @property
    def miss_rate(self) -> float:
        refs = self.references
        return (self.read_misses + self.write_misses) / refs if refs else 0.0

    @property
    def read_miss_distribution(self) -> Dict[str, float]:
        """Fraction of read misses per class (Table 4.1 rows)."""
        total = sum(self.miss_classes.values())
        if total == 0:
            return {cls: 0.0 for cls in MissClass.ALL}
        return {cls: n / total for cls, n in self.miss_classes.items()}

    @property
    def avg_memory_occupancy(self) -> float:
        return sum(self.memory_occupancy) / len(self.memory_occupancy)

    @property
    def max_memory_occupancy(self) -> float:
        return max(self.memory_occupancy)

    @property
    def avg_pp_occupancy(self) -> float:
        return sum(self.pp_occupancy) / len(self.pp_occupancy)

    @property
    def max_pp_occupancy(self) -> float:
        return max(self.pp_occupancy)

    @property
    def useless_spec_fraction(self) -> float:
        return self.spec_useless / self.spec_issued if self.spec_issued else 0.0

    @property
    def mdc_miss_rate(self) -> float:
        return self.mdc_misses / self.mdc_accesses if self.mdc_accesses else 0.0

    @property
    def handlers_per_miss(self) -> float:
        misses = self.read_misses + self.write_misses
        return self.handler_invocations / misses if misses else 0.0

    def crmt(self, latencies: Dict[str, float]) -> float:
        return crmt(dict(self.miss_classes), latencies)

    def summary(self) -> Dict[str, float]:
        return {
            "kind": self.kind,
            "execution_time": self.execution_time,
            "miss_rate": self.miss_rate,
            "avg_pp_occupancy": self.avg_pp_occupancy,
            "avg_memory_occupancy": self.avg_memory_occupancy,
        }
