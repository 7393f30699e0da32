"""Tests for the metrics registry, run diffing, envopts and the diff CLI.

The two load-bearing invariants:

* metrics OFF must be byte-identical to the seed (the golden matrix in
  ``test_integration.py`` enforces that directly), and
* metrics ON must not perturb the simulation — the core result of a
  metrics-on run, with the ``metrics`` block stripped, must hash to the
  same golden SHA-256 as the metrics-off run.
"""

import hashlib
import json

import pytest

from test_integration import TestGoldenHashes

from repro.harness import envopts, experiments, runfarm
from repro.harness.__main__ import main as harness_main
from repro.harness.diskcache import DiskCache
from repro.stats.metrics import (
    Family, Log2Histogram, MetricsRegistry, _log2_bucket, breaches,
    diff_rows, flatten_result, pp_reconciliation, render_diff,
)
from repro.stats.report import RunResult


@pytest.fixture(scope="module")
def fft_flash():
    """One fast FFT FLASH run with metrics on (uncached, module-shared)."""
    spec = experiments.normalize_spec(
        "fft", kind="flash", regime="large",
        workload_overrides=TestGoldenHashes.FAST_SIZES["fft"], metrics=True)
    return experiments._execute(spec)


class TestPrimitives:
    def test_log2_buckets(self):
        assert _log2_bucket(-1) == 0
        assert _log2_bucket(0) == 0
        assert _log2_bucket(0.5) == 1
        assert _log2_bucket(1) == 1
        assert _log2_bucket(1.5) == 2
        assert _log2_bucket(2) == 2
        assert _log2_bucket(3) == 4
        assert _log2_bucket(4) == 4
        assert _log2_bucket(5) == 8
        assert _log2_bucket(1024) == 1024
        assert _log2_bucket(1025) == 2048

    def test_histogram_observe(self):
        hist = Log2Histogram()
        for value in (0, 1, 3, 3, 100):
            hist.observe(value)
        state = hist.to_value()
        assert state["count"] == 5
        assert state["total"] == 107
        assert state["buckets"] == {"0": 1, "1": 1, "4": 2, "128": 1}

    def test_family_labels_get_or_create(self):
        family = Family("f", "counter")
        child = family.labels(0, "get")
        child.inc(3)
        assert family.labels(0, "get") is child
        family.labels(1, "put").inc()
        assert family.to_dict() == {
            "kind": "counter", "values": {"0/get": 3, "1/put": 1}}

    def test_family_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Family("f", "gauge")

    def test_registry_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.family("pp.handler_invocations", "counter") \
            is registry.handler_invocations
        with pytest.raises(ValueError):
            registry.family("pp.handler_invocations", "cycles")

    def test_registry_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.cycles("t").add(1.5)
        registry.histogram("h").observe(4)
        state = registry.to_dict()
        assert state["counters"]["c"] == 2
        assert state["cycles"]["t"] == 1.5
        assert state["histograms"]["h"]["count"] == 1
        assert set(state["families"]) >= {
            "pp.handler_invocations", "pp.handler_busy_cycles",
            "pp.handler_cost_cycles", "net.sent", "net.received"}


class TestGoldenEquivalence:
    """Metrics ON must not change the simulation: strip the ``metrics``
    block and the result hashes to the very same golden SHA-256 the
    metrics-off matrix records."""

    @pytest.mark.parametrize("combo", sorted(TestGoldenHashes.GOLDEN))
    def test_metrics_on_core_result_matches_golden(self, combo):
        app, kind = combo.split("/")
        spec = experiments.normalize_spec(
            app, kind=kind, regime="large",
            workload_overrides=TestGoldenHashes.FAST_SIZES[app], metrics=True)
        result = experiments._execute(spec)
        assert result.metrics is not None
        state = result.to_dict()
        state.pop("metrics")
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == TestGoldenHashes.GOLDEN[combo], (
            f"{combo}: enabling metrics perturbed the simulation")

    def test_metrics_deterministic_across_runs(self, fft_flash):
        spec = experiments.normalize_spec(
            "fft", kind="flash", regime="large",
            workload_overrides=TestGoldenHashes.FAST_SIZES["fft"],
            metrics=True)
        again = experiments._execute(spec)
        assert again.to_json() == fft_flash.to_json()


class TestRegistryContent:
    def test_handler_counts_reconcile_with_aggregate(self, fft_flash):
        fam = fft_flash.metrics["families"]["pp.handler_invocations"]["values"]
        total = sum(n for label, n in fam.items()
                    if not label.endswith("/xfer"))
        assert total == fft_flash.handler_invocations

    def test_pp_occupancy_reconciles(self, fft_flash):
        reconciliation = pp_reconciliation(fft_flash)
        assert reconciliation is not None
        assert abs(reconciliation["pp_occupancy_from_metrics"]
                   - reconciliation["avg_pp_occupancy"]) < 1e-9

    def test_busy_histogram_counts_every_invocation(self, fft_flash):
        fam = fft_flash.metrics["families"]["pp.handler_invocations"]["values"]
        hist = fft_flash.metrics["histograms"]["pp.busy_per_invocation"]
        assert hist["count"] == sum(fam.values())

    def test_message_matrix_totals(self, fft_flash):
        sent = fft_flash.metrics["families"]["net.sent"]["values"]
        received = fft_flash.metrics["families"]["net.received"]["values"]
        assert sum(sent.values()) == fft_flash.network_messages
        # Nothing dropped in a fault-free run.
        assert sum(received.values()) == sum(sent.values())

    def test_harvested_subsystem_counters_present(self, fft_flash):
        metrics = fft_flash.metrics
        families = metrics["families"]
        assert sum(families["dir.transitions"]["values"].values()) > 0
        assert sum(families["mshr"]["values"].values()) > 0
        assert any(label.startswith("pi.in")
                   for label in families["queue.total_puts"]["values"])
        counters = metrics["counters"]
        assert counters["net.messages"] == fft_flash.network_messages
        assert counters["mem.reads"] > 0
        assert counters["pp.invocations"] == fft_flash.handler_invocations

    def test_pointer_allocation_counters(self, fft_flash):
        links = fft_flash.metrics["families"]["dir.links"]["values"]
        allocated = sum(v for k, v in links.items()
                        if k.endswith("/allocated"))
        freed = sum(v for k, v in links.items() if k.endswith("/freed"))
        # Dynamic pointer allocation saw traffic, and frees never exceed
        # allocations.
        assert allocated > 0
        assert 0 <= freed <= allocated


class TestSerialization:
    def test_metrics_off_omits_key(self):
        spec = experiments.normalize_spec(
            "fft", kind="flash", regime="large",
            workload_overrides=TestGoldenHashes.FAST_SIZES["fft"])
        result = experiments._execute(spec)
        assert result.metrics is None
        assert "metrics" not in result.to_dict()

    def test_from_dict_round_trip(self, fft_flash):
        clone = RunResult.from_dict(json.loads(fft_flash.to_json()))
        assert clone.metrics == fft_flash.metrics
        assert clone.to_json() == fft_flash.to_json()

    def test_metrics_survive_disk_cache(self, fft_flash, tmp_path):
        cache = DiskCache(tmp_path)
        spec = experiments.normalize_spec(
            "fft", kind="flash", regime="large",
            workload_overrides=TestGoldenHashes.FAST_SIZES["fft"],
            metrics=True)
        cache.store(spec, fft_flash)
        loaded = cache.load(spec)
        assert loaded is not None
        assert loaded.metrics == fft_flash.metrics

    def test_metrics_survive_farm_wire(self, fft_flash, monkeypatch):
        monkeypatch.setattr(experiments, "run_spec", lambda _spec: fft_flash)
        unwired = RunResult.from_json(runfarm._worker({"app": "fft"}))
        assert unwired.metrics == fft_flash.metrics

    def test_metrics_specs_cache_under_distinct_key(self):
        fast = TestGoldenHashes.FAST_SIZES["fft"]
        off = experiments.normalize_spec(
            "fft", kind="flash", regime="large", workload_overrides=fast)
        on = experiments.normalize_spec(
            "fft", kind="flash", regime="large", workload_overrides=fast,
            metrics=True)
        assert off["metrics"] is None and on["metrics"] is True
        from repro.harness.diskcache import canonical_key
        assert canonical_key(off) != canonical_key(on)


class TestFlattenAndDiff:
    def test_flatten_aggregates_node_labels(self, fft_flash):
        machine_wide = flatten_result(fft_flash)
        per_node = flatten_result(fft_flash, per_node=True)
        name = "family/pp.handler_busy_cycles"
        aggregated = sum(v for k, v in machine_wide.items()
                         if k.startswith(name))
        expanded = sum(v for k, v in per_node.items() if k.startswith(name))
        assert aggregated == pytest.approx(expanded)
        assert len([k for k in per_node if k.startswith(name)]) \
            > len([k for k in machine_wide if k.startswith(name)])

    def test_diff_rows_and_breaches(self):
        a = {"x": 10.0, "y": 0.0, "z": 4.0}
        b = {"x": 11.0, "y": 0.0, "z": 4.0, "w": 5.0}
        rows = diff_rows(a, b)
        assert [r[0] for r in rows] == ["w", "x", "z"]  # both-zero y dropped
        by_name = {r[0]: r for r in rows}
        assert by_name["x"][4] == pytest.approx(0.1)
        assert by_name["w"][4] == float("inf")
        assert by_name["z"][3] == 0
        assert breaches(rows, None) == []
        assert {r[0] for r in breaches(rows, 0.05)} == {"w", "x"}
        assert {r[0] for r in breaches(rows, 0.5)} == {"w"}

    def test_render_diff(self):
        rows = diff_rows({"a/one": 1.0, "b/two": 2.0},
                         {"a/one": 3.0, "b/two": 2.0})
        text = render_diff(rows, "demo")
        assert "a/one" in text and "+200.0%" in text
        assert "(2 metric(s) shown)" in text
        changed = render_diff(rows, "demo", changed_only=True)
        assert "b/two" not in changed
        assert "(1 metric(s) shown)" in changed


class TestEnvOpts:
    def test_metrics_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert envopts.metrics_from_env() is None
        monkeypatch.setenv("REPRO_METRICS", "off")
        assert envopts.metrics_from_env() is None
        monkeypatch.setenv("REPRO_METRICS", "on")
        assert envopts.metrics_from_env() is True
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert envopts.metrics_from_env() is True
        monkeypatch.setenv("REPRO_METRICS", "sometimes")
        with pytest.raises(ValueError):
            envopts.metrics_from_env()

    def test_watchdog_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
        assert envopts.watchdog_from_env() is None
        monkeypatch.setenv("REPRO_WATCHDOG", "on")
        assert envopts.watchdog_from_env() is True
        monkeypatch.setenv("REPRO_WATCHDOG", "events=10,time=2.5")
        assert envopts.watchdog_from_env() == {
            "event_budget": 10, "time_budget": 2.5}
        monkeypatch.setenv("REPRO_WATCHDOG", "bogus=1")
        with pytest.raises(ValueError):
            envopts.watchdog_from_env()

    def test_cache_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert envopts.cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "")
        assert envopts.cache_enabled()  # empty string stays enabled
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not envopts.cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not envopts.cache_enabled()

    def test_jobs_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert envopts.jobs_from_env() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert envopts.jobs_from_env() == 4
        monkeypatch.setenv("REPRO_JOBS", "-3")
        assert envopts.jobs_from_env() == 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert envopts.jobs_from_env() == 1

    def test_normalize_spec_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "on")
        spec = experiments.normalize_spec("fft")
        assert spec["metrics"] is True
        monkeypatch.delenv("REPRO_METRICS")
        assert experiments.normalize_spec("fft")["metrics"] is None

    def test_smoke_overrides(self):
        overrides = envopts.smoke_overrides("fft")
        assert overrides == experiments.SMOKE_SIZES["fft"]
        assert overrides is not experiments.SMOKE_SIZES["fft"]  # a copy
        assert envopts.smoke_overrides("fft", fast=False) is None


class TestDiffCLI:
    def _write(self, result_dict, path):
        with open(path, "w") as fh:
            json.dump(result_dict, fh)
        return str(path)

    def test_diff_identical_files_exit_zero(self, fft_flash, tmp_path,
                                            capsys):
        a = self._write(fft_flash.to_dict(), tmp_path / "a.json")
        b = self._write(fft_flash.to_dict(), tmp_path / "b.json")
        assert harness_main(["diff", a, b, "--threshold", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out and "rel" in out

    def test_diff_flags_synthetic_regression(self, fft_flash, tmp_path,
                                             capsys):
        a = self._write(fft_flash.to_dict(), tmp_path / "a.json")
        worse = fft_flash.to_dict()
        worse["execution_time"] = worse["execution_time"] * 1.5
        worse["metrics"]["counters"]["net.messages"] += 1000
        b = self._write(worse, tmp_path / "b.json")
        # No threshold: report only, exit 0.
        assert harness_main(["diff", a, b]) == 0
        capsys.readouterr()
        # 10% gate: the 50% execution-time regression breaches it.
        assert harness_main(["diff", a, b, "--threshold", "0.1"]) == 1
        captured = capsys.readouterr()
        assert "summary/execution_time" in captured.err
        assert "exceed" in captured.err

    def test_diff_rejects_unknown_token(self, tmp_path):
        with pytest.raises(SystemExit):
            harness_main(["diff", "nonsense", str(tmp_path / "nope.json")])

    def test_summary_json(self, capsys):
        assert harness_main(["summary", "fft", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "flash"
        assert payload["execution_time"] > 0

    def test_compare_flash_vs_ideal(self, capsys):
        assert harness_main(["compare", "fft", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fft/flash" in out and "fft/ideal" in out
        assert "family/pp.handler_busy_cycles" in out
        assert "family/net.sent" in out
        assert "PP occupancy from per-handler busy cycles" in out
