"""Canonical hashing, RunResult serialization, and the on-disk result cache."""

import json

import pytest

from repro.harness import diskcache, experiments as exp
from repro.harness.diskcache import DiskCache, canonical_json, canonical_key
from repro.stats.report import RunResult

TINY_FFT = {"points": 256}


def tiny_run(**kwargs):
    return exp.run_app("fft", n_procs=4, workload_overrides=TINY_FFT, **kwargs)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Each test gets its own cache directory and a clean memo table."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    exp.clear_cache()
    yield
    exp.clear_cache()


class TestCanonicalKey:
    def test_stable_across_dict_ordering(self):
        a = {"x": 1, "y": {"b": 2, "a": [1, 2, {"k": 3}]}}
        b = {"y": {"a": [1, 2, {"k": 3}], "b": 2}, "x": 1}
        assert canonical_key(a) == canonical_key(b)

    def test_distinguishes_values(self):
        assert canonical_key({"x": 1}) != canonical_key({"x": 2})
        assert canonical_key({"x": 1}) != canonical_key({"y": 1})

    def test_handles_unhashable_nested_values(self):
        # Regression: the old memo key built tuple(sorted(overrides.items())),
        # which raised TypeError for dict- or list-valued overrides.
        spec = {"config_overrides": {"limits": {"inbox": 4}, "path": [1, 2]}}
        key = canonical_key(spec)
        assert isinstance(key, str) and len(key) == 64

    def test_tuples_normalize_to_lists(self):
        assert canonical_key({"v": (1, 2)}) == canonical_key({"v": [1, 2]})

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestMemoKey:
    def test_reordered_overrides_hit_the_memo(self):
        first = exp.run_app(
            "lu", n_procs=4, workload_overrides={"matrix": 32, "block": 8})
        second = exp.run_app(
            "lu", n_procs=4, workload_overrides={"block": 8, "matrix": 32})
        assert first is second  # same memo entry, not a re-run

    def test_normalize_spec_rejects_paper_na_cells(self):
        with pytest.raises(ValueError):
            exp.normalize_spec("lu", regime="small")


class TestRunResultSerialization:
    def test_round_trip_is_lossless_and_byte_identical(self):
        result = tiny_run()
        text = result.to_json()
        restored = RunResult.from_json(text)
        assert restored.to_json() == text
        assert restored.execution_time == result.execution_time
        assert restored.breakdown == result.breakdown
        assert restored.miss_classes == result.miss_classes
        assert restored.summary() == result.summary()
        # Derived metrics recompute identically from restored state.
        assert restored.miss_rate == result.miss_rate
        assert restored.read_miss_distribution == result.read_miss_distribution
        assert [t.to_state() for t in restored.cpu_times] == \
               [t.to_state() for t in result.cpu_times]

    def test_schema_mismatch_rejected(self):
        state = tiny_run().to_dict()
        state["schema"] = 999
        with pytest.raises(ValueError):
            RunResult.from_dict(state)


class TestCacheStatsSnapshot:
    def test_to_dict_from_dict_merge_round_trip(self):
        from repro.caches.setassoc import CacheStats
        from repro.stats.breakdown import merge_cache_stats

        a = CacheStats()
        a.read_hits, a.read_misses = 10, 3
        a.write_hits, a.write_misses = 7, 2
        a.evictions_clean, a.evictions_dirty = 4, 1
        a.invalidations_received = 5
        # to_dict/from_dict is a lossless snapshot.
        restored = CacheStats.from_dict(a.to_dict())
        assert restored.to_dict() == a.to_dict()
        # merge accumulates counter-wise; merge_cache_stats folds many.
        b = CacheStats.from_dict(a.to_dict())
        total = merge_cache_stats([a, b, CacheStats()])
        assert total.to_dict() == {k: 2 * v for k, v in a.to_dict().items()}


class TestDiskCache:
    def test_run_app_populates_and_reuses_disk_cache(self, monkeypatch):
        result = tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        assert diskcache.default_cache.entry_path(spec).exists()
        # A "new process" (cleared memo) must load from disk, not re-simulate.
        exp.clear_cache()
        monkeypatch.setattr(
            exp, "_execute",
            lambda _spec: pytest.fail("cache miss: simulation re-ran"))
        reloaded = tiny_run()
        assert reloaded.to_json() == result.to_json()

    def test_cache_off_bypasses_store_and_load(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        result = tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        cache = DiskCache()
        assert not cache.entry_path(spec).exists()
        assert cache.store(spec, result) is None
        assert cache.load(spec) is None

    def test_corrupt_entry_is_a_miss_and_is_evicted(self):
        tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        path = diskcache.default_cache.entry_path(spec)
        path.write_text("{not json")
        assert diskcache.default_cache.load(spec) is None
        # The unusable file is gone, not left to fail every future load.
        assert not path.exists()

    def test_schema_drift_is_a_miss_and_is_evicted(self):
        tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        path = diskcache.default_cache.entry_path(spec)
        payload = json.loads(path.read_text())
        payload["result"]["schema"] = 999
        path.write_text(json.dumps(payload))
        assert diskcache.default_cache.load(spec) is None
        assert not path.exists()

    def test_checksum_tamper_detected_and_evicted(self):
        result = tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        path = diskcache.default_cache.entry_path(spec)
        payload = json.loads(path.read_text())
        assert payload["checksum"] == \
            diskcache._result_checksum(payload["result"])
        # Flip one measured value without updating the checksum: the entry
        # still parses and matches the schema, but must not be served.
        payload["result"]["execution_time"] = result.execution_time + 1.0
        path.write_text(json.dumps(payload))
        assert diskcache.default_cache.load(spec) is None
        assert not path.exists()

    def test_truncated_entry_falls_through_to_live_run(self):
        first = tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        path = diskcache.default_cache.entry_path(spec)
        # A torn write: the file ends mid-JSON.
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        exp.clear_cache()
        rerun = tiny_run()   # must re-simulate, not crash or serve garbage
        assert rerun.to_json() == first.to_json()
        # The live run repopulated the slot with a valid entry.
        assert diskcache.default_cache.load(spec) is not None

    def test_pre_checksum_entries_still_load(self):
        # Forward compatibility with entries written before the checksum
        # field existed: absent checksum means no integrity check, not a miss.
        tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        path = diskcache.default_cache.entry_path(spec)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert diskcache.default_cache.load(spec) is not None

    def test_entries_with_an_extras_block_still_load(self):
        # Entries once carried diagnostic counters beside the result; such
        # an entry must load as its canonical result, not be evicted.
        result = tiny_run()
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        path = diskcache.default_cache.entry_path(spec)
        payload = json.loads(path.read_text())
        assert "extras" not in payload
        payload["extras"] = {"counters": {"read_misses": 1}}
        path.write_text(json.dumps(payload))
        loaded = diskcache.default_cache.load(spec)
        assert loaded is not None and path.exists()
        assert loaded.to_json() == result.to_json()

    def test_entry_path_depends_on_source_fingerprint(self, monkeypatch):
        spec = exp.normalize_spec("fft", n_procs=4, workload_overrides=TINY_FFT)
        before = diskcache.default_cache.entry_path(spec)
        monkeypatch.setattr(
            diskcache, "source_fingerprint", lambda refresh=False: "f" * 64)
        after = diskcache.default_cache.entry_path(spec)
        assert before != after  # a simulator edit invalidates old entries

    def test_clear_empties_the_cache(self):
        tiny_run()
        cache = diskcache.default_cache
        assert cache.size() == 1
        assert cache.clear() == 1
        assert cache.size() == 0
