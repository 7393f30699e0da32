"""Shared parsing of the harness environment knobs and CLI conventions.

Every harness subcommand used to re-parse ``REPRO_*`` variables (and the
``--fast`` convention) on its own, which let the interpretations drift —
e.g. ``--fast`` selecting different sweeps per subcommand.  This module is
the single source of truth:

==================  =======================================================
``REPRO_WATCHDOG``  stall detection (off / on / ``events=N,time=T,interval=I``)
``REPRO_TRACE``     transaction tracing (off / on / ``buf=N,nodes=...,sample=T``)
``REPRO_METRICS``   metrics registry (off / on)
``REPRO_LOADLAT``   open-loop latency monitor (off / on /
                    ``window=N,exemplars=K``)
``REPRO_CACHE``     persistent result cache (on by default; off-values below)
``REPRO_JOBS``      default run-farm worker count
``REPRO_CHECK_DIR`` model-checker reproducer artifact directory (default
                    ``.repro_check``)
``REPRO_BACKEND``   ``python`` (default) or ``compiled``: ``compiled``
                    *verifies* that the mypyc extension modules built by
                    ``scripts/build_compiled.py`` are the ones actually
                    imported, and raises ``ConfigError`` otherwise — it
                    never changes behaviour, only guards against silently
                    benchmarking the wrong backend
==================  =======================================================
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

__all__ = [
    "OFF_VALUES", "ON_VALUES", "watchdog_from_env", "trace_from_env",
    "metrics_from_env", "loadlat_from_env", "cache_enabled",
    "jobs_from_env", "smoke_overrides",
    "backend_from_env", "verify_backend", "COMPILED_MODULES", "check_dir",
]

#: Spellings that disable a feature knob (case-insensitive).
OFF_VALUES = ("0", "off", "no", "false", "disabled")
#: Spellings that enable a feature knob with defaults.
ON_VALUES = ("1", "on", "yes", "true", "default", "enabled")


def watchdog_from_env() -> Optional[object]:
    """Stall detection for harness runs, from ``REPRO_WATCHDOG``: unset/off
    disables, ``on`` uses defaults, or ``events=N,time=T,interval=I`` tunes
    the budgets (see :class:`repro.sim.watchdog.Watchdog`)."""
    raw = os.environ.get("REPRO_WATCHDOG", "").strip().lower()
    if not raw or raw in OFF_VALUES:
        return None
    if raw in ON_VALUES:
        return True
    spec: Dict[str, float] = {}
    keys = {"events": ("event_budget", int), "time": ("time_budget", float),
            "interval": ("check_interval", int)}
    for part in raw.split(","):
        key, _, value = part.partition("=")
        try:
            name, convert = keys[key.strip()]
        except KeyError:
            raise ValueError(
                f"REPRO_WATCHDOG: unknown key {key.strip()!r} "
                f"(expected {sorted(keys)})")
        spec[name] = convert(value.strip())
    return spec or True


def trace_from_env():
    """Transaction tracing for harness runs, from ``REPRO_TRACE``: unset/off
    disables, ``on`` uses defaults, or ``buf=N,nodes=...,sample=T`` tunes
    the ring buffer, span node filter and time-series sampling interval
    (see :mod:`repro.stats.trace`)."""
    from ..stats.trace import parse_trace_spec
    return parse_trace_spec(os.environ.get("REPRO_TRACE"))


def metrics_from_env() -> Optional[bool]:
    """Metrics registry for harness runs, from ``REPRO_METRICS``: unset/off
    disables (None), any on-value enables (True)."""
    raw = os.environ.get("REPRO_METRICS", "").strip().lower()
    if not raw or raw in OFF_VALUES:
        return None
    if raw in ON_VALUES:
        return True
    raise ValueError(
        f"REPRO_METRICS: expected one of {ON_VALUES + OFF_VALUES}, "
        f"got {raw!r}")


def loadlat_from_env():
    """Open-loop latency monitoring for harness runs, from ``REPRO_LOADLAT``:
    unset/off disables, ``on`` uses defaults, or ``window=N,exemplars=K``
    tunes the percentile-timeline window width (cycles) and per-window tail
    exemplar count (see :mod:`repro.stats.latency`)."""
    from ..stats.latency import parse_loadlat_spec
    return parse_loadlat_spec(os.environ.get("REPRO_LOADLAT"))


def cache_enabled() -> bool:
    """Whether the persistent result cache is enabled (``REPRO_CACHE``;
    on unless explicitly set to an off-value)."""
    return os.environ.get("REPRO_CACHE", "on").strip().lower() \
        not in OFF_VALUES


#: Modules ``scripts/build_compiled.py`` compiles with mypyc; the compiled
#: backend is only "on" when every one of these imported as an extension.
COMPILED_MODULES = (
    "repro.sim.engine",
    "repro.protocol.messages",
    "repro.caches.setassoc",
    "repro.caches.mshr",
)

_BACKEND_VERIFIED: Optional[str] = None


def backend_from_env() -> str:
    """Requested simulation backend from ``REPRO_BACKEND``: ``python``
    (the default) or ``compiled`` (the mypyc extension build)."""
    raw = os.environ.get("REPRO_BACKEND", "python").strip().lower()
    if raw in ("", "python", "py", "default"):
        return "python"
    if raw in ("compiled", "mypyc", "native"):
        return "compiled"
    raise ValueError(
        f"REPRO_BACKEND: expected 'python' or 'compiled', got {raw!r}")


def verify_backend() -> str:
    """Check that the imported modules match the requested backend.

    The compiled and pure-Python backends expose the identical API, so a
    missing extension would otherwise degrade silently to the slow path and
    poison benchmark comparisons.  With ``REPRO_BACKEND=compiled`` every
    module in :data:`COMPILED_MODULES` must have imported as an extension
    (its ``__file__`` is not a ``.py`` source); otherwise ``ConfigError``
    names the stragglers.  Verified once per process.
    """
    global _BACKEND_VERIFIED
    backend = backend_from_env()
    if backend == _BACKEND_VERIFIED:
        return backend
    if backend == "compiled":
        import importlib

        plain: List[str] = []
        for name in COMPILED_MODULES:
            module = importlib.import_module(name)
            source = getattr(module, "__file__", "") or ""
            if source.endswith(".py"):
                plain.append(name)
        if plain:
            from ..common.errors import ConfigError
            raise ConfigError(
                "REPRO_BACKEND=compiled, but these modules imported as pure "
                "Python: " + ", ".join(plain)
                + " — build the extensions with scripts/build_compiled.py "
                "(requires mypyc) or unset REPRO_BACKEND")
    _BACKEND_VERIFIED = backend
    return backend


def check_dir() -> str:
    """Directory for model-checker failure reproducers (``REPRO_CHECK_DIR``;
    default ``.repro_check``).  The ``check`` subcommand writes shrunk
    reproducer JSON artifacts here; CI uploads it on failure."""
    return os.environ.get("REPRO_CHECK_DIR", "").strip() or ".repro_check"


def jobs_from_env() -> int:
    """Default run-farm worker count from ``REPRO_JOBS`` (>= 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def smoke_overrides(app: str, fast: bool = True) -> Optional[Dict[str, int]]:
    """The one meaning of ``--fast`` across subcommands: the per-app
    seconds-scale smoke shapes (``experiments.SMOKE_SIZES``), or None for
    the app's default problem size."""
    if not fast:
        return None
    from .experiments import SMOKE_SIZES
    return dict(SMOKE_SIZES[app])
