"""Experiment definitions: one entry per paper table/figure.

The paper's three cache regimes (1 MB / 64 KB / 4 KB, with 16 KB for Ocean at
the small size) are mapped onto cache sizes scaled to our default problem
sizes, preserving the working-set relationships: at ``large`` every working
set fits (only cold/communication misses, as the paper observes at 1 MB); at
``medium`` it mostly does not; at ``small`` capacity misses dominate.  Set
``REPRO_SCALE=paper`` to run the paper's literal sizes (slow in pure Python).

Results are memoized per configuration so benchmark modules can share runs.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from ..apps import (
    BarnesWorkload, FFTWorkload, LUWorkload, MP3DWorkload, OceanWorkload,
    OpenLoopWorkload, OSWorkload, RadixWorkload,
)
from ..common.params import MachineConfig, flash_config, ideal_config
from ..common.units import KB, MB
from ..machine import Machine
from ..pp.costmodel import EmulatedCostModel
from ..stats.report import RunResult
from ..stats.trace import parse_trace_spec
from . import diskcache, envopts

__all__ = [
    "APP_ORDER", "REGIMES", "SMOKE_SIZES", "app_workload",
    "regime_cache_bytes", "normalize_spec", "run_app", "run_spec",
    "run_flash_ideal", "run_traced", "clear_cache", "memoize",
]

APP_ORDER = ["barnes", "fft", "lu", "mp3d", "ocean", "os", "radix"]

#: regime -> per-app cache size in bytes.  The paper's N/A cells (Section
#: 3.4: LU and OS not run at small sizes, Barnes not at 4 KB, Ocean at 16 KB
#: instead of 4 KB) are preserved as None.
REGIMES: Dict[str, Dict[str, Optional[int]]] = {
    "large": {app: 1 * MB for app in APP_ORDER},
    "medium": {
        "barnes": 8 * KB, "fft": 4 * KB, "lu": None, "mp3d": 8 * KB,
        "ocean": 8 * KB, "os": None, "radix": 8 * KB,
    },
    "small": {
        # FFT's 2 KB row must not fit entirely (the paper's 4 KB cache did
        # not hold a 64K-point row either), hence 1 KB here.
        "barnes": None, "fft": 1 * KB, "lu": None, "mp3d": 2 * KB,
        "ocean": 4 * KB,  # the paper's Ocean exception (16 KB vs 4 KB)
        "os": None, "radix": 2 * KB,
    },
}

#: regime label -> the paper's cache size, for table headers.
PAPER_REGIME_LABEL = {"large": "1 MB", "medium": "64 KB", "small": "4 KB"}

# The open-loop front end (repro.apps.openloop) is not a paper application:
# it stays out of APP_ORDER and the figure sweeps, but runs at every regime
# so the loadlat CLI can sweep offered load against any cache pressure.
REGIMES["large"]["openloop"] = 1 * MB
REGIMES["medium"]["openloop"] = 8 * KB
REGIMES["small"]["openloop"] = 2 * KB

#: Per-app workload overrides for seconds-scale smoke runs (CI trace smoke,
#: ``harness trace --fast``); same shapes the integration tests use.
SMOKE_SIZES: Dict[str, Dict[str, int]] = {
    "barnes": dict(bodies=128, iterations=1),
    "fft": dict(points=1024),
    "lu": dict(matrix=64, block=16),
    "mp3d": dict(particles=1024, steps=2),
    "ocean": dict(grid=18, n_grids=3, sweeps=1),
    "os": dict(tasks_per_proc=1, syscalls_per_task=20),
    "radix": dict(keys=4096, radix=64, key_bits=12),
    "openloop": dict(requests=48, lines=16),
}

_PAPER_SCALE = os.environ.get("REPRO_SCALE", "quick") == "paper"


def default_procs(app: str) -> int:
    return 8 if app == "os" else 16


def app_workload(app: str, paper_scale: Optional[bool] = None, **overrides):
    """Construct a workload with default (or paper-literal) problem size."""
    use_paper = _PAPER_SCALE if paper_scale is None else paper_scale
    if use_paper and app != "openloop":  # no paper-literal size exists
        paper_sizes = {
            "barnes": dict(bodies=8192, iterations=2),
            "fft": dict(points=65536),
            "lu": dict(matrix=512, block=16),
            "mp3d": dict(particles=50000, steps=4),
            "ocean": dict(grid=258, n_grids=25, sweeps=2),
            "os": dict(tasks_per_proc=8),
            "radix": dict(keys=262144, radix=256, key_bits=16),
        }
        merged = dict(paper_sizes[app])
        merged.update(overrides)
        overrides = merged
    factories = {
        "barnes": BarnesWorkload, "fft": FFTWorkload, "lu": LUWorkload,
        "mp3d": MP3DWorkload, "ocean": OceanWorkload, "os": OSWorkload,
        "radix": RadixWorkload, "openloop": OpenLoopWorkload,
    }
    return factories[app](**overrides)


def regime_cache_bytes(app: str, regime: str) -> Optional[int]:
    return REGIMES[regime][app]


# -- memoized runs -----------------------------------------------------------------------
#
# Two layers: an in-process memo table, and (through ``diskcache``) a
# persistent on-disk store shared across processes and invocations.  Both are
# keyed by a canonical hash of the *normalized* run spec, which is stable for
# nested/unhashable override values (plain tuple-of-sorted-items keys broke
# on dict- or list-valued config overrides).

_cache: Dict[str, RunResult] = {}


def clear_cache() -> None:
    """Drop the in-process memo table (the disk cache is unaffected; clear
    that with ``python -m repro.harness clear``)."""
    _cache.clear()


def normalize_spec(
    app: str,
    kind: str = "flash",
    regime: str = "large",
    n_procs: Optional[int] = None,
    workload_overrides: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    pp_backend: Optional[str] = None,
    faults=None,
    trace=None,
    metrics=None,
    loadlat=None,
) -> Dict:
    """The fully-defaulted description of one run — the unit of caching and
    of run-farm dispatch.  Includes everything that can change the result.

    ``faults`` is a :class:`~repro.faults.FaultPlan` (or its dict form);
    fault-injected runs are deterministic, so they cache and farm exactly
    like clean ones, under a distinct key.  ``trace`` is a
    ``parse_trace_spec`` dict (or True for defaults; None defers to the
    ``REPRO_TRACE`` environment variable); traced runs are deterministic
    too, and cache under a distinct key because their serialized result
    additionally carries the latency decomposition.  ``metrics`` (True, or
    None to defer to ``REPRO_METRICS``) attaches the metrics registry;
    metrics-on runs likewise cache under a distinct key because their
    serialized result carries the registry snapshot.  ``loadlat`` (True, a
    ``parse_loadlat_spec`` dict, or None to defer to ``REPRO_LOADLAT``)
    attaches the open-loop latency monitor; monitor-on runs cache under a
    distinct key because their serialized result carries the latency
    snapshot (the simulated timing itself is unaffected)."""
    cache_bytes = regime_cache_bytes(app, regime)
    if cache_bytes is None:
        raise ValueError(f"{app} is not run at the {regime} regime (paper N/A)")
    if faults is not None:
        faults = faults.to_dict() if hasattr(faults, "to_dict") else dict(faults)
    if trace is None:
        trace = envopts.trace_from_env()
    elif trace is True:
        trace = parse_trace_spec("on")
    if metrics is None:
        metrics = envopts.metrics_from_env()
    else:
        metrics = True if metrics else None
    if loadlat is None:
        loadlat = envopts.loadlat_from_env()
    elif loadlat is True:
        from ..stats.latency import parse_loadlat_spec
        loadlat = parse_loadlat_spec("on")
    return {
        "app": app,
        "kind": kind,
        "regime": regime,
        "n_procs": n_procs if n_procs is not None else default_procs(app),
        "cache_bytes": cache_bytes,
        "workload_overrides": dict(workload_overrides or {}),
        "config_overrides": dict(config_overrides or {}),
        "pp_backend": pp_backend,
        "paper_scale": _PAPER_SCALE,
        "faults": faults,
        "trace": trace,
        "metrics": metrics,
        "loadlat": loadlat,
    }


# Backwards-compatible aliases; the parsers live in ``harness/envopts.py``
# so every subcommand shares one interpretation of the knobs.
_watchdog_from_env = envopts.watchdog_from_env
_trace_from_env = envopts.trace_from_env


def build_machine(spec: Dict):
    """Construct the (un-run) machine and workload for a normalized spec.
    Returns ``(machine, ops, cost_model)``; callers that need the live
    machine afterwards (the trace CLI, tests) run ``machine.run(ops)``
    themselves."""
    make = flash_config if spec["kind"] == "flash" else ideal_config
    config = make(n_procs=spec["n_procs"], cache_size=spec["cache_bytes"])
    if spec["config_overrides"]:
        config = config.with_changes(**spec["config_overrides"])
    cost_model = None
    if spec["pp_backend"] == "emulator" and spec["kind"] == "flash":
        config = config.with_changes(pp_backend="emulator")
        cost_model = EmulatedCostModel(config)
    workload = app_workload(spec["app"], **spec["workload_overrides"])
    machine = Machine(config, cost_model=cost_model,
                      faults=spec.get("faults"),
                      watchdog=envopts.watchdog_from_env(),
                      trace=spec.get("trace"),
                      metrics=spec.get("metrics"),
                      loadlat=spec.get("loadlat"))
    return machine, workload.build(config), cost_model


def _execute(spec: Dict) -> RunResult:
    """Run the simulation described by a normalized spec (no caching)."""
    machine, ops, cost_model = build_machine(spec)
    result = machine.run(ops)
    # End-of-run leak detection (repro.check.invariants): a drained
    # schedule with pending directory state, an unretired MSHR, or a
    # link-store leak is a protocol bug even when timing looks right.
    machine.assert_quiesced()
    if cost_model is not None:
        result.pp_dynamic = cost_model.dynamic_totals()
    if machine.fault_injector is not None:
        result.fault_counters = machine.fault_injector.counters()
    return result


def run_traced(spec: Dict):
    """Uncached traced run returning ``(result, tracer)`` — the live tracer
    holds the span ring buffer and time series for export (only the
    decomposition travels on the serialized result)."""
    if not spec.get("trace"):
        spec = dict(spec, trace=parse_trace_spec("on"))
    machine, ops, cost_model = build_machine(spec)
    result = machine.run(ops)
    if cost_model is not None:
        result.pp_dynamic = cost_model.dynamic_totals()
    if machine.fault_injector is not None:
        result.fault_counters = machine.fault_injector.counters()
    return result, machine.tracer


def memoize(spec: Dict, result: RunResult) -> None:
    """Seed the in-process memo table (used by the run farm to hand results
    computed in worker processes back to the parent)."""
    _cache[diskcache.canonical_key(spec)] = result


def run_app(
    app: str,
    kind: str = "flash",
    regime: str = "large",
    n_procs: Optional[int] = None,
    workload_overrides: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    pp_backend: Optional[str] = None,
    faults=None,
    trace=None,
    metrics=None,
    loadlat=None,
) -> RunResult:
    """Run one application on one machine; memoized in-process and cached
    on disk (see ``harness/diskcache.py``; ``REPRO_CACHE=off`` disables)."""
    spec = normalize_spec(
        app, kind=kind, regime=regime, n_procs=n_procs,
        workload_overrides=workload_overrides,
        config_overrides=config_overrides, pp_backend=pp_backend,
        faults=faults, trace=trace, metrics=metrics, loadlat=loadlat,
    )
    key = diskcache.canonical_key(spec)
    if key in _cache:
        return _cache[key]
    result = diskcache.default_cache.load(spec)
    if result is None:
        result = _execute(spec)
        diskcache.default_cache.store(spec, result)
    _cache[key] = result
    return result


def run_spec(spec: Dict) -> RunResult:
    """``run_app`` for an already-normalized spec (the run farm's entry
    point inside worker processes)."""
    return run_app(
        spec["app"], kind=spec["kind"], regime=spec["regime"],
        n_procs=spec["n_procs"],
        workload_overrides=spec["workload_overrides"],
        config_overrides=spec["config_overrides"],
        pp_backend=spec["pp_backend"], faults=spec.get("faults"),
        trace=spec.get("trace"), metrics=spec.get("metrics"),
        loadlat=spec.get("loadlat"),
    )


def run_flash_ideal(app: str, regime: str = "large", **kwargs
                    ) -> Tuple[RunResult, RunResult]:
    """The core comparison: the same workload on FLASH and the ideal machine."""
    flash = run_app(app, kind="flash", regime=regime, **kwargs)
    ideal = run_app(app, kind="ideal", regime=regime, **kwargs)
    return flash, ideal


def slowdown(flash: RunResult, ideal: RunResult) -> float:
    """FLASH execution-time increase over the ideal machine (fractional)."""
    return flash.execution_time / ideal.execution_time - 1.0
