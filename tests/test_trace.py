"""Transaction tracing, latency decomposition, and the trace CLI.

The tracer's contract has three legs, each asserted here:

* **Zero observable overhead.** A traced run's core result (minus the
  ``latency_decomposition`` block it alone serializes) is byte-identical to
  an untraced run's; the time-series sampler never perturbs event order.
* **Exact reconciliation.** The traced component totals equal the run's
  aggregate PP and memory occupancies — every ``pp_busy +=`` site and every
  served memory request is mirrored by exactly one charge.
* **Deterministic export.** Two traced runs of the same spec produce
  byte-identical Chrome ``trace_event`` JSON (no wall clock, no
  process-global uids leak into the export).
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.harness import experiments as exp
from repro.harness.__main__ import main as harness_main
from repro.sim.engine import Environment
from repro.sim.watchdog import diagnose, trace_tail
from repro.stats import timeseries
from repro.stats.report import RunResult
from repro.stats.trace import (
    COMPONENTS, DEFAULT_BUFFER_SPANS, Tracer, parse_nodes, parse_trace_spec,
    render_decomposition, validate_trace_events,
)

TINY_FFT = {"points": 256}
TINY_MP3D = {"particles": 256, "steps": 1}


def tiny_spec(app="fft", kind="flash", **kwargs):
    overrides = dict(TINY_FFT if app == "fft" else TINY_MP3D)
    return exp.normalize_spec(app, kind=kind, n_procs=4,
                              workload_overrides=overrides, **kwargs)


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
    exp.clear_cache()
    yield
    exp.clear_cache()


class TestSpecParsing:
    @pytest.mark.parametrize("raw", [None, "", "0", "off", "no", "false"])
    def test_off_values_disable(self, raw):
        assert parse_trace_spec(raw) is None

    @pytest.mark.parametrize("raw", ["1", "on", "yes", "true", "default"])
    def test_on_values_use_defaults(self, raw):
        spec = parse_trace_spec(raw)
        assert spec == {"buf": DEFAULT_BUFFER_SPANS, "nodes": None,
                        "sample": None}

    def test_tuned_spec(self):
        spec = parse_trace_spec("buf=1000,nodes=0+2,sample=64")
        assert spec == {"buf": 1000, "nodes": [0, 2], "sample": 64.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_trace_spec("bogus=1")

    def test_parse_nodes_ranges_and_lists(self):
        assert parse_nodes("0+3+7") == [0, 3, 7]
        assert parse_nodes("0-3") == [0, 1, 2, 3]
        assert parse_nodes("0-2+5") == [0, 1, 2, 5]
        with pytest.raises(ValueError):
            parse_nodes("+")

    def test_env_var_feeds_normalize_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "buf=500")
        spec = tiny_spec()
        assert spec["trace"]["buf"] == 500
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert tiny_spec()["trace"] is None

    def test_trace_key_changes_cache_identity(self):
        from repro.harness.diskcache import canonical_key
        assert canonical_key(tiny_spec()) != \
            canonical_key(tiny_spec(trace=True))


class TestTraceOffInvariance:
    """With tracing off nothing changes; with it on only the decomposition
    block is added to the serialized result."""

    @pytest.mark.parametrize("kind", ["flash", "ideal"])
    def test_traced_core_result_is_byte_identical(self, kind):
        plain = exp._execute(tiny_spec(kind=kind))
        traced, tracer = exp.run_traced(tiny_spec(kind=kind, trace=True))
        assert tracer is not None
        assert plain.latency_decomposition is None
        assert traced.latency_decomposition is not None
        assert plain.critpath is None
        assert traced.critpath is not None
        stripped = traced.to_dict()
        del stripped["latency_decomposition"]
        del stripped["critpath"]
        assert stripped == plain.to_dict()

    def test_sampler_does_not_perturb_the_run(self):
        bare, _ = exp.run_traced(tiny_spec(trace=True))
        sampled, tracer = exp.run_traced(
            tiny_spec(trace=parse_trace_spec("sample=256")))
        assert tracer.timeseries  # the sampler actually ran
        assert sampled.to_json() == bare.to_json()


class TestReconciliation:
    """Traced component totals equal the aggregate occupancy counters."""

    @pytest.mark.parametrize("app,kind", [
        ("fft", "flash"), ("fft", "ideal"), ("mp3d", "flash"),
    ])
    def test_totals_match_aggregates(self, app, kind):
        result, tracer = exp.run_traced(tiny_spec(app=app, kind=kind,
                                                  trace=True))
        elapsed = result.execution_time
        agg_pp = sum(result.pp_occupancy) * elapsed
        agg_mem = sum(result.memory_occupancy) * elapsed
        decomp = result.latency_decomposition
        assert decomp["totals"]["pp"] == pytest.approx(agg_pp, rel=1e-9)
        assert decomp["totals"]["memory"] == pytest.approx(agg_mem, rel=1e-9)

    def test_tracked_untracked_in_flight_partition_totals(self):
        result, _ = exp.run_traced(tiny_spec(trace=True))
        decomp = result.latency_decomposition
        for comp in COMPONENTS:
            tracked = sum(entry["components"][comp]
                          for entry in decomp["classes"].values())
            parts = tracked + decomp["untracked"][comp] + \
                decomp["in_flight"][comp]
            assert parts == pytest.approx(decomp["totals"][comp], rel=1e-9)

    def test_every_transaction_retires_and_is_classified(self):
        result, _ = exp.run_traced(tiny_spec(trace=True))
        decomp = result.latency_decomposition
        txns = decomp["txns"]
        assert txns["started"] == txns["retired"] > 0
        assert txns["in_flight"] == 0
        assert "read_unclassified" not in decomp["classes"]
        retired = sum(e["count"] for e in decomp["classes"].values())
        assert retired == txns["retired"]
        # Histograms partition each class's retirements.
        for entry in decomp["classes"].values():
            assert sum(entry["latency_hist"].values()) == entry["count"]
            assert entry["count"] * 1 <= entry["latency_total"]


class TestQueueWaitBookkeeping:
    """PP queue-wait timing pairs every enqueue with its dequeue, including
    the messages an idle PP takes before their put completes."""

    #: SHA-256 of the canonical decomposition JSON of traced fast mp3d.
    DECOMPOSITION_SHA = {
        "flash": "1440e88d023b7a1ba8d401350800aebf"
                 "3d9a2d489f43f9f8e8844cc279b86bbf",
        "ideal": "d6e12e54fc87402efd792ae45b61a792"
                 "51316023e9dbedb4c463e1ab04ea1111",
    }

    @pytest.mark.parametrize("kind", ["flash", "ideal"])
    def test_no_enqueue_stamps_left_after_a_run(self, kind):
        spec = exp.normalize_spec("mp3d", kind=kind, trace=True,
                                  workload_overrides=exp.SMOKE_SIZES["mp3d"])
        result, tracer = exp.run_traced(spec)
        assert not tracer._pp_enqueue
        assert not tracer._pp_taken_early
        blob = json.dumps(result.latency_decomposition, sort_keys=True,
                          separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == self.DECOMPOSITION_SHA[kind]


class TestDeterminism:
    def test_trace_export_is_byte_identical_across_runs(self):
        spec = tiny_spec(trace=parse_trace_spec("sample=512"))
        first_result, first = exp.run_traced(spec)
        second_result, second = exp.run_traced(spec)
        assert first_result.to_json() == second_result.to_json()
        assert json.dumps(first.to_trace_events(), sort_keys=True) == \
            json.dumps(second.to_trace_events(), sort_keys=True)

    def test_no_raw_uids_in_export(self):
        _, tracer = exp.run_traced(tiny_spec(trace=True))
        for event in tracer.to_trace_events()["traceEvents"]:
            assert "uid" not in event.get("args", {})


class TestRingBufferAndFilters:
    def test_ring_buffer_bounds_spans_but_not_aggregates(self):
        full_result, full = exp.run_traced(tiny_spec(trace=True))
        small_result, small = exp.run_traced(
            tiny_spec(trace=parse_trace_spec("buf=64")))
        assert len(small.spans) == 64
        assert small.spans_dropped > 0
        assert full.spans_dropped == 0
        # Aggregates are exact regardless of how many spans were kept.
        small_decomp = dict(small_result.latency_decomposition)
        full_decomp = dict(full_result.latency_decomposition)
        del small_decomp["spans"], full_decomp["spans"]
        assert small_decomp == full_decomp

    def test_node_filter_limits_spans_not_totals(self):
        all_result, _ = exp.run_traced(tiny_spec(trace=True))
        one_result, one = exp.run_traced(
            tiny_spec(trace=parse_trace_spec("nodes=0")))
        pids = {event["pid"]
                for event in one.to_trace_events()["traceEvents"]
                if event["ph"] == "X"}
        assert pids == {0}
        assert one_result.latency_decomposition["totals"] == \
            all_result.latency_decomposition["totals"]

    def test_export_category_and_node_filters(self):
        _, tracer = exp.run_traced(tiny_spec(trace=True))
        only_pp = tracer.to_trace_events(categories=["pp"], nodes=[1])
        x_events = [e for e in only_pp["traceEvents"] if e["ph"] == "X"]
        assert x_events
        assert {e["cat"] for e in x_events} == {"pp"}
        assert {e["pid"] for e in x_events} == {1}


class TestTimeseries:
    def test_rows_and_hot_windows(self):
        result, tracer = exp.run_traced(
            tiny_spec(trace=parse_trace_spec("sample=256")))
        n = len(result.pp_occupancy)
        assert tracer.timeseries
        for ts, pp_occ, mem_occ, depths in tracer.timeseries:
            assert 0 < ts <= result.execution_time + 256
            assert len(pp_occ) == len(mem_occ) == len(depths) == n
        hot = timeseries.hot_windows(tracer, top=2)
        assert set(hot) == {"pp_occupancy", "memory_occupancy", "queue_depth"}
        for rows in hot.values():
            assert len(rows) <= 2
            values = [row["value"] for row in rows]
            assert values == sorted(values, reverse=True)

    def test_counter_events_in_export(self):
        _, tracer = exp.run_traced(
            tiny_spec(trace=parse_trace_spec("sample=256")))
        counters = [e for e in tracer.to_trace_events()["traceEvents"]
                    if e["ph"] == "C"]
        assert counters
        assert {e["name"] for e in counters} == \
            {"pp_occupancy", "memory_occupancy", "queue_depth"}


class TestExportValidation:
    def test_real_export_validates(self):
        _, tracer = exp.run_traced(tiny_spec(trace=True))
        payload = tracer.to_trace_events()
        assert validate_trace_events(payload) == len(payload["traceEvents"])

    @pytest.mark.parametrize("payload,message", [
        ([], "traceEvents"),
        ({"traceEvents": {}}, "must be a list"),
        ({"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]},
         "bad phase"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": "0",
                           "ts": 0, "dur": 1}]}, "non-integer tid"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                           "ts": 0}]}, "dur"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0, "tid": 0,
                           "ts": 0, "args": {"v": "high"}}]}, "numeric args"),
    ])
    def test_violations_rejected(self, payload, message):
        with pytest.raises(ValueError, match=message):
            validate_trace_events(payload)


class TestSerializationPaths:
    def test_decomposition_survives_json_round_trip(self):
        result, _ = exp.run_traced(tiny_spec(trace=True))
        restored = RunResult.from_json(result.to_json())
        assert restored.latency_decomposition == result.latency_decomposition
        assert restored.to_json() == result.to_json()

    def test_traced_run_caches_under_its_own_key(self, monkeypatch):
        from repro.harness import diskcache
        traced = exp.run_app("fft", n_procs=4, workload_overrides=TINY_FFT,
                             trace=True)
        assert traced.latency_decomposition is not None
        # A fresh "process" must serve the traced entry from disk intact.
        exp.clear_cache()
        monkeypatch.setattr(
            exp, "_execute",
            lambda _spec: pytest.fail("traced cache entry missed"))
        reloaded = exp.run_app("fft", n_procs=4, workload_overrides=TINY_FFT,
                               trace=True)
        assert reloaded.latency_decomposition == traced.latency_decomposition
        assert reloaded.to_json() == traced.to_json()

    def test_runfarm_wire_format_is_canonical_json(self, monkeypatch):
        from repro.harness import runfarm
        result = exp.run_app("fft", n_procs=4, workload_overrides=TINY_FFT)
        monkeypatch.setattr(exp, "run_spec", lambda _spec: result)
        payload = runfarm._worker({"app": "fft"})
        assert payload == result.to_json()
        assert RunResult.from_json(payload).to_json() == result.to_json()


class TestWatchdogIntegration:
    def test_diagnosis_attaches_in_flight_tail(self):
        env = Environment()
        tracer = Tracer()
        tracer.env = env
        env._tracer = tracer
        tracer.txn_issue(2, 0x1980, False, 0.0)
        tracer.txn_issue(0, 0x2000, True, 10.0)
        diagnosis = diagnose(env, "unit test")
        assert [t["node"] for t in diagnosis.trace_tail] == [2, 0]
        oldest = diagnosis.trace_tail[0]
        assert oldest["line"] == "0x1980" and oldest["kind"] == "read"
        assert oldest["tail"] == ["t=0 issue@node2"]
        json.dumps(diagnosis.to_dict())   # artifact format stays JSON-able
        assert "traced txn: node 2 read 0x1980" in diagnosis.render()

    def test_tail_labels_spans_by_track(self):
        tracer = Tracer()
        tracer.txn_issue(1, 0x80, True, 3.0)
        msg = SimpleNamespace(mtype="GETX", line_addr=0x80, requester=1)
        tracer.inbox_span(0, msg, 4.0, 6.5)
        tail = tracer.in_flight_tail()[0]["tail"]
        assert tail == ["t=3 issue@node1", "t=6.5 inbox:GETX@node0"]

    def test_untraced_diagnosis_has_no_tail(self):
        diagnosis = diagnose(Environment(), "unit test")
        assert diagnosis.trace_tail == []

    def test_line_filter_applies_before_the_limit(self):
        env = Environment()
        tracer = Tracer()
        tracer.env = env
        env._tracer = tracer
        for i in range(6):    # six in flight, oldest first
            tracer.txn_issue(i % 3, 0x1000 + i * 0x80, False, float(i))
        youngest = 0x1000 + 5 * 0x80
        tail = trace_tail(env, line_addr=youngest)
        assert [(t["node"], t["line"]) for t in tail] == [(2, "0x1280")]
        assert tracer.in_flight_tail(limit=4, line_addr=youngest) == tail
        # No transaction on the line: fall back to the oldest four.
        fallback = trace_tail(env, line_addr=0x9000)
        assert [t["line"] for t in fallback] == [
            "0x1000", "0x1080", "0x1100", "0x1180"]


class TestRenderDecomposition:
    def test_table_contents(self):
        result, _ = exp.run_traced(tiny_spec(trace=True))
        text = render_decomposition(result.latency_decomposition, result,
                                    title="tiny fft")
        assert "tiny fft" in text
        assert "remote_clean" in text
        for component in COMPONENTS:
            assert component in text
        assert "reconciliation:" in text
        # The reconciliation line shows identical traced/aggregate values.
        recon = next(line for line in text.splitlines()
                     if line.startswith("reconciliation:"))
        pp_traced = recon.split("PP ")[1].split(" traced")[0]
        pp_agg = recon.split("vs ")[1].split(" aggregate")[0]
        assert pp_traced == pp_agg


class TestTraceCLI:
    def test_summary_and_export(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert harness_main([
            "trace", "fft", "--fast", "--procs", "4", "--summary",
            "--sample", "512", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "latency decomposition" in out
        assert "reconciliation:" in out
        assert "hottest sampling windows:" in out
        payload = json.loads(out_file.read_text())
        assert validate_trace_events(payload) > 0

    def test_filter_restricts_export(self, tmp_path, capsys):
        out_file = tmp_path / "pp.json"
        assert harness_main([
            "trace", "fft", "--fast", "--procs", "4",
            "--filter", "pp", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        cats = {e["cat"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert cats == {"pp"}
