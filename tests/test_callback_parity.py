"""Observability parity for the callback hot core.

The hot CPU / MAGIC / memory / network paths run as callback state machines
on the event kernel; every observability layer hooks those same paths.
Per-dimension parity already lives elsewhere (trace: ``test_trace.py``,
metrics: ``test_metrics.py``, watchdog: ``test_watchdog.py``).  This file
covers the combinations:

* **everything ON at once** — watchdog + tracer + metrics together must
  leave the core result byte-identical: stripped of the blocks only they
  serialize (``latency_decomposition``, ``critpath``, ``metrics``), the
  result hashes to the very same golden SHA-256 as the bare run;
* **one controller pipeline** — a traced and metered run dispatches every
  handler exactly as a plain run does, per message type, and a watched run
  keeps the run loop's object pools.
"""

import hashlib
import json

import pytest

from test_integration import TestGoldenHashes as _GoldenMatrix

from repro.harness import experiments


def _golden_spec(combo, **kwargs):
    app, kind = combo.split("/")
    return experiments.normalize_spec(
        app, kind=kind, regime="large",
        workload_overrides=_GoldenMatrix.FAST_SIZES[app], **kwargs)


class TestAllObservabilityOn:
    """Watchdog + tracer + metrics together must not move a single event."""

    # One FLASH and one ideal combo; radix is the most reorder-sensitive
    # app in the matrix, so it guards the ideal machine's side.
    @pytest.mark.parametrize("combo", ["fft/flash", "radix/ideal"])
    def test_core_result_matches_golden(self, combo, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "on")
        spec = _golden_spec(combo, trace=True, metrics=True)
        result = experiments._execute(spec)
        assert result.latency_decomposition is not None
        assert result.critpath is not None
        assert result.metrics is not None
        state = result.to_dict()
        state.pop("latency_decomposition")
        state.pop("critpath")
        state.pop("metrics")
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == _GoldenMatrix.GOLDEN[combo], (
            f"{combo}: watchdog+trace+metrics perturbed the simulation")

    def test_decomposition_reconciles_under_watchdog(self, monkeypatch):
        """The traced component totals must still equal the aggregate
        occupancy counters when the watchdog is ticking the run loop's
        dispatch (core identity implies it, but assert the traced side
        directly: the decomposition is built from span callbacks riding the
        callback core's dispatch instants)."""
        monkeypatch.setenv("REPRO_WATCHDOG", "on")
        result = experiments._execute(_golden_spec("fft/flash", trace=True))
        decomp = result.latency_decomposition
        elapsed = result.execution_time
        agg_pp = sum(result.pp_occupancy) * elapsed
        agg_mem = sum(result.memory_occupancy) * elapsed
        assert decomp["totals"]["pp"] == pytest.approx(agg_pp, rel=1e-9)
        assert decomp["totals"]["memory"] == pytest.approx(agg_mem, rel=1e-9)


class TestObserversKeepThePipeline:
    """Observing a run must not change which controller code runs."""

    @staticmethod
    def _census(spec):
        machine, ops, _ = experiments.build_machine(spec)
        machine.run(ops)
        counts = {}
        for node in machine.nodes:
            assert not node.controller.dispatch_fused
            for mtype, count in node.controller.dispatch_stepwise.items():
                counts[mtype] = counts.get(mtype, 0) + count
        return counts

    @pytest.mark.parametrize("kind", ["flash", "ideal"])
    def test_observed_dispatch_census_matches_plain(self, kind):
        combo = f"mp3d/{kind}"
        plain = self._census(_golden_spec(combo))
        observed = self._census(_golden_spec(combo, trace=True,
                                             metrics=True))
        assert sum(plain.values()) > 0
        assert observed == plain

    @staticmethod
    def _pool_sizes(spec):
        machine, ops, _ = experiments.build_machine(spec)
        machine.run(ops)
        env = machine.env
        return (len(env._timeout_pool), len(env._event_pool),
                len(env._bucket_pool)), machine.watchdog

    def test_watched_run_keeps_the_object_pools(self, monkeypatch):
        """The watchdog ticks inside the one run loop, so a watched run
        recycles dead events and calendar buckets exactly as a plain run
        does.  (This mp3d run draws no Timeouts, so that pool stays empty
        either way; the event and bucket pools carry the check.)"""
        spec = _golden_spec("mp3d/flash")
        monkeypatch.setenv("REPRO_WATCHDOG", "off")
        plain, _ = self._pool_sizes(spec)
        monkeypatch.setenv("REPRO_WATCHDOG", "on")
        watched, watchdog = self._pool_sizes(spec)
        assert watchdog.events_dispatched > 0
        assert watched == plain
        _timeouts, events, buckets = watched
        assert events and buckets
