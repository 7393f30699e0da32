"""The whole simulated machine: N nodes on a mesh.

`Machine` builds either FLASH or the ideal machine from a
:class:`~repro.common.params.MachineConfig` and runs a workload — a list of
per-processor operation streams — to completion, returning a
:class:`~repro.stats.report.RunResult`.
"""

from __future__ import annotations

import gc
from typing import Iterable, List, Optional, Sequence, Tuple

from .common.errors import ConfigError
from .common.params import MachineConfig, flash_config, ideal_config
from .faults import FaultInjector, FaultPlan
from .msgpass.transfer import TransferDomain
from .network.mesh import Network
from .node import Node
from .processor.sync import SyncDomain
from .sim.engine import Environment
from .sim.watchdog import Watchdog
from .stats.metrics import MetricsRegistry
from .stats.report import RunResult
from .stats.trace import Tracer

__all__ = ["Machine", "run_pair"]


class Machine:
    """An N-node FLASH or ideal machine.

    ``faults`` (a :class:`~repro.faults.FaultPlan` or its dict form) attaches
    deterministic fault injection; ``watchdog`` (True, a kwargs dict for
    :class:`~repro.sim.watchdog.Watchdog`, or an instance) attaches stall
    detection; ``trace`` (True, a ``parse_trace_spec`` dict, or a
    :class:`~repro.stats.trace.Tracer`) attaches transaction tracing;
    ``metrics`` (True or a :class:`~repro.stats.metrics.MetricsRegistry`)
    attaches the machine-wide metrics registry; ``loadlat`` (True, a
    ``parse_loadlat_spec`` dict, or a
    :class:`~repro.stats.latency.LatencyMonitor`) attaches the open-loop
    per-request latency monitor.  All default to off, in which case
    behaviour is bit-identical to a machine built without them.
    """

    def __init__(self, config: MachineConfig, cost_model=None, faults=None,
                 watchdog=None, trace=None, metrics=None, loadlat=None):
        self.config = config
        self.env = Environment()
        self.network = Network(self.env, config)
        self.sync = SyncDomain(self.env, config.n_procs)
        self.transfers = TransferDomain(self.env)
        self.nodes: List[Node] = [
            Node(self.env, node_id, config, self.network, self.sync,
                 cost_model=cost_model, transfers=self.transfers)
            for node_id in range(config.n_procs)
        ]
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None:
            plan = faults if isinstance(faults, FaultPlan) \
                else FaultPlan.from_dict(dict(faults))
            if plan.any_enabled:
                self._attach_faults(plan)
        self.watchdog: Optional[Watchdog] = None
        if watchdog:
            if isinstance(watchdog, Watchdog):
                self.watchdog = watchdog
            else:
                kwargs = {} if watchdog is True else dict(watchdog)
                kwargs.setdefault("progress_fn", self._progress)
                self.watchdog = Watchdog(self.env, **kwargs)
        self.tracer: Optional[Tracer] = None
        if trace:
            tracer = trace if isinstance(trace, Tracer) \
                else Tracer.from_spec(trace)
            self._attach_tracer(tracer)
        self.metrics: Optional[MetricsRegistry] = None
        if metrics:
            registry = metrics if isinstance(metrics, MetricsRegistry) \
                else MetricsRegistry()
            self._attach_metrics(registry)
        self.loadlat = None
        if loadlat:
            from .stats.latency import LatencyMonitor
            monitor = loadlat if isinstance(loadlat, LatencyMonitor) \
                else LatencyMonitor.from_spec(loadlat)
            self._attach_loadlat(monitor)

    def _attach_tracer(self, tracer: Tracer) -> None:
        tracer.env = self.env
        tracer.n_procs = self.config.n_procs   # barrier-release arrival count
        self.tracer = tracer
        self.env._tracer = tracer      # watchdog/stall-diagnosis pickup
        self.network.tracer = tracer
        for node in self.nodes:
            node.cpu.tracer = tracer
            node.controller.tracer = tracer
            node.engine.tracer = tracer
            node.memory.tracer = tracer

    def _attach_loadlat(self, monitor) -> None:
        """Hand the latency monitor to every CPU (the 'q'/'e' markers) and,
        when tracing is also on, to the tracer (per-transaction component
        attribution for tail exemplars)."""
        self.loadlat = monitor
        for node in self.nodes:
            node.cpu.loadlat = monitor
        if self.tracer is not None:
            self.tracer.loadlat = monitor

    def _attach_metrics(self, registry: MetricsRegistry) -> None:
        """Hand the registry to every subsystem with a live hook; the rest
        of the registry is filled by ``harvest_machine`` at end of run."""
        self.metrics = registry
        self.network.metrics = registry
        for node in self.nodes:
            node.controller.metrics = registry

    def _attach_faults(self, plan: FaultPlan) -> None:
        if self.config.kind != "flash":
            raise ConfigError(
                "fault injection targets the FLASH machine (the ideal "
                "machine has no bounded queues or PP to perturb)")
        if self.config.pp_backend == "emulator":
            raise ConfigError(
                "fault injection requires the table cost backend (the PP "
                "emulator has no assembly for the retry handler)")
        self.fault_plan = plan
        injector = FaultInjector(plan)
        self.fault_injector = injector
        self.network.faults = injector
        for node in self.nodes:
            node.engine.faults = injector
            node.controller.faults = injector

    def _progress(self) -> int:
        """Forward-progress counter for the watchdog: total references
        retired across all processors."""
        return sum(n.cpu.total_reads + n.cpu.total_writes for n in self.nodes)

    @classmethod
    def flash(cls, n_procs: int = 16, **kwargs) -> "Machine":
        return cls(flash_config(n_procs, **kwargs))

    @classmethod
    def ideal(cls, n_procs: int = 16, **kwargs) -> "Machine":
        return cls(ideal_config(n_procs, **kwargs))

    def run(self, workload: Sequence[Iterable[Tuple]],
            until: Optional[float] = None) -> RunResult:
        """Run one operation stream per processor to completion."""
        if len(workload) != self.config.n_procs:
            raise ConfigError(
                f"workload provides {len(workload)} streams for "
                f"{self.config.n_procs} processors"
            )
        processes = [
            node.cpu.run(ops) for node, ops in zip(self.nodes, workload)
        ]
        finished = self.env.all_of(processes)
        if (
            self.fault_injector is not None
            and self.fault_plan.squeeze_rate > 0
        ):
            self.env.process(
                self.fault_injector.squeezer(self.env, self.env._queues,
                                             finished),
                name="faults.squeezer")
        if self.tracer is not None and self.tracer.sample_interval:
            from .stats.timeseries import TimeseriesSampler
            sampler = TimeseriesSampler(self, self.tracer)
            self.env.process(sampler.process(finished), name="trace.sampler")
        # The event loop allocates millions of short-lived cyclic objects
        # (processes -> generators -> frames -> events); cyclic-GC passes over
        # that churn cost ~10% of a run and free almost nothing that refcounts
        # don't already reclaim.  Pause collection for the duration; results
        # are unaffected (no finalizer in the tree has side effects).  A
        # finished machine is itself one big reference cycle, so collect
        # once first: otherwise a dead predecessor (the FLASH run of a
        # FLASH/ideal pair, with its trace buffers) stays resident until
        # this run ends.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.env.run(until=until)
        finally:
            if gc_was_enabled:
                gc.enable()
        if not finished.triggered:
            if self.watchdog is not None:
                # The schedule drained with processors still blocked — a
                # cyclic wait.  Diagnose instead of the bare RuntimeError.
                self.watchdog.check_complete(finished, "all processors")
            raise RuntimeError("simulation ended before all processors finished")
        if not finished.ok:
            raise finished.value
        execution_time = max(node.cpu.times.finish_time for node in self.nodes)
        return RunResult(self, execution_time)

    def assert_quiesced(self) -> None:
        """End-of-run leak detection: the strict directory / cache / MSHR /
        link-store invariant walk (`repro.check.invariants`).  After
        :meth:`run` drains the event schedule, every directory entry must
        be settled (no pending three-hop state, no orphaned deferred
        requests), every link-store allocation must be reachable from a
        sharer list (allocated - freed == live links), every cached copy
        must be explicable by its home entry, and every MSHR must be
        retired.  Raises :class:`~repro.common.errors.CoherenceViolation`.

        Cheap enough (one pass over entries and tags) to run after every
        correctness-sensitive run; the model checker and the golden-matrix
        integration tests both call it unconditionally."""
        from .check.invariants import check_invariants
        check_invariants(self, strict=True, where="end-of-run")

    def check_directory_invariants(self) -> None:
        """Post-run sanity: every directory entry is internally consistent
        and agrees with the processor caches."""
        for node in self.nodes:
            directory = node.directory
            for line_addr in list(directory._entries):
                directory.check_invariants(line_addr)
                entry = directory.entry(line_addr)
                if entry.dirty and entry.owner is not None:
                    # In a quiesced machine the owner's cache holds the line
                    # dirty (unless a writeback is still enqueued, which
                    # cannot happen after run() drained all events).
                    state = self.nodes[entry.owner].cpu.cache_state_of(line_addr)
                    if state != "M":
                        raise AssertionError(
                            f"dir says node {entry.owner} owns {line_addr:#x} "
                            f"dirty but its cache state is {state}"
                        )


def run_pair(workload_factory, flash_cfg: MachineConfig,
             ideal_cfg: MachineConfig) -> Tuple[RunResult, RunResult]:
    """Run the same workload on FLASH and the ideal machine.

    ``workload_factory(config)`` must return a fresh list of op streams for
    the given machine configuration (streams are consumed by a run).
    """
    flash_machine = Machine(flash_cfg)
    flash_result = flash_machine.run(workload_factory(flash_cfg))
    ideal_machine = Machine(ideal_cfg)
    ideal_result = ideal_machine.run(workload_factory(ideal_cfg))
    return flash_result, ideal_result
