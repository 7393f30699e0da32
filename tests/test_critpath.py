"""Critical-path extraction, handler-cost scaling, and causal profiling.

Three contracts:

* **Exact reconciliation.** The extracted critical-path length equals
  execution time *exactly* (``==``, not approx) on every app/kind combo of
  the golden matrix — the walk tiles the run with contiguous pieces and
  terminates at exactly 0.0, so this is structural, not numeric luck.
* **Gated scaling hooks.** ``handler_scale`` unset leaves every cost and
  every serialized result byte-identical; set, it scales exactly the named
  handler and is rejected on the emulator backend.
* **Causal profiling.** ``run_whatif`` on the fast fft shape produces
  experiments whose measured speedup confirms the critical-path prediction
  (and the predicted lever ranking) within tolerance.
"""

import hashlib
import json

import pytest

from repro.common.errors import ConfigError
from repro.common.params import flash_config
from repro.harness import experiments as exp
from repro.harness.__main__ import main as harness_main
from repro.harness.whatif import render_whatif, run_whatif
from repro.magic.costmodel import TableCostModel
from repro.protocol.coherence import Action, Handler
from repro.stats.critpath import BUCKETS, render_critpath
from repro.stats.metrics import flatten_result
from repro.stats.report import RunResult

#: (app, kind, SHA-256 of the canonical JSON of its ``critpath`` block at
#: ``SMOKE_SIZES``): pins the walk's lock and barrier jumps, slack and
#: per-handler attribution bit for bit, beyond what the golden hashes of
#: untraced runs reach.
MATRIX = [
    ("barnes", "flash",
     "dff97ccf16052c95da7e2a9beeee92cc3499650e5e9bc4941cc7d0c13e0349f7"),
    ("barnes", "ideal",
     "a6848fb43eeff6fc178da47788c20216c23da3ac83f584b48e71554bb0e08e7d"),
    ("fft", "flash",
     "16c9cdd9efbdfb56fec2e338f256117d0ed67446383a8fe0910d50b4b9d94ee9"),
    ("fft", "ideal",
     "c6bd5c64a0d38fcf14e75478450481569d9108e1ba6403dd152d7c9e61766243"),
    ("lu", "flash",
     "1f1522379288173cef6a9af913210216213c76124bc5621c93807f3e8d8eb968"),
    ("lu", "ideal",
     "4b8feb9185bf1e6f14ed8dda3d6fff511cdce84425afa57eb85dd1e91ccb7ee8"),
    ("mp3d", "flash",
     "1d5921b4e693aa3b308918f6aa2806cd81e411c50729bbcbfd41b6c4df950810"),
    ("mp3d", "ideal",
     "ee14bc743eafe9278ac4dc4f39e5fbb872f844125c50c0526f71460c464ce049"),
    ("ocean", "flash",
     "930e5f05586c70c3a927f100f93e7343f51077c274278f320b4f7c5f4d60a999"),
    ("ocean", "ideal",
     "7d5941ec82f4b274fa13737a9cf530ed4d0c9c758d8c3af7db13ad328aa3faeb"),
    ("os", "flash",
     "95629bdd124c888bb3a9cde3f9313e992b4a8d5dc3be2e195f001801f3041b5f"),
    ("os", "ideal",
     "52ec7c15708db130ff3089b6f4465be1de73d67633c58c80dafef347d572bd5e"),
    ("radix", "flash",
     "0112f755fbff57396b01c0ba3de52b4d1cdab8c2d1ffffc127744c27d49f8d62"),
    ("radix", "ideal",
     "0ea8727dccf1e4bb1f70a9326b9cebf5a5fca458e73a3dff2bdaad6740ffb520"),
]


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
    exp.clear_cache()
    yield
    exp.clear_cache()


def traced(app, kind, **kwargs):
    return exp.run_app(app, kind=kind,
                       workload_overrides=exp.SMOKE_SIZES[app],
                       trace=True, **kwargs)


class TestExactReconciliation:
    """Critical-path length == execution time on the whole golden matrix."""

    @pytest.mark.parametrize("app,kind,sha", [
        pytest.param(app, kind, sha, id=f"{app}-{kind}")
        for app, kind, sha in MATRIX])
    def test_length_equals_execution_time_exactly(self, app, kind, sha):
        result = traced(app, kind)
        cp = result.critpath
        assert cp is not None
        text = json.dumps(cp, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == sha, (
            f"{app}/{kind}: critical path drifted from its recorded hash")
        # Exact, by construction: the backward walk tiles (0, T].
        assert cp["length"] == result.execution_time
        # The float cross-check: summed pieces telescope back to T.
        assert cp["pieces_sum"] == pytest.approx(result.execution_time,
                                                 rel=1e-9)
        buckets_sum = sum(cp["buckets"][b] for b in BUCKETS)
        assert buckets_sum == pytest.approx(cp["pieces_sum"], rel=1e-9)
        assert all(v >= 0.0 for v in cp["buckets"].values())
        assert all(v >= 0.0 for v in cp["classes"].values())
        assert cp["pieces"] > 0

    def test_flash_has_causal_levers_ideal_does_not(self):
        flash = traced("fft", "flash")
        ideal = traced("fft", "ideal")
        assert flash.critpath["levers"]
        for handler in flash.critpath["levers"]:
            entry = flash.critpath["handlers"][handler]
            assert entry["critical_cycles"] > 0.0
            assert entry["critical_cycles"] <= entry["total_cycles"] + 1e-9
            assert 0.0 < entry["share"] <= 1.0
        # The ideal machine's handlers are zero-width: nothing to scale.
        assert ideal.critpath["levers"] == []
        assert ideal.critpath["handlers"] == {}

    def test_slack_histograms_cover_handler_transactions(self):
        cp = traced("fft", "flash").critpath
        assert cp["slack"]
        for handler, entry in cp["slack"].items():
            assert entry["count"] == sum(entry["hist"].values())
            assert entry["mean"] >= 0.0

    def test_critpath_survives_json_round_trip(self):
        result = traced("fft", "flash")
        clone = RunResult.from_json(result.to_json())
        assert clone.critpath == result.critpath


class TestFlattenedRows:
    def test_flatten_emits_critpath_rows(self):
        flat = flatten_result(traced("fft", "flash"))
        assert flat["critpath/length"] > 0.0
        assert "critpath/bucket/cpu" in flat
        assert any(key.startswith("critpath/class/") for key in flat)
        assert any(key.startswith("critpath/handler/")
                   and key.endswith("/critical_cycles") for key in flat)

    def test_untraced_result_has_no_critpath_rows(self):
        result = exp.run_app("fft",
                             workload_overrides=exp.SMOKE_SIZES["fft"])
        assert result.critpath is None
        flat = flatten_result(result)
        assert not any(key.startswith("critpath/") for key in flat)


class TestHandlerScale:
    """The causal-profiling knob: byte-identical off, exact scaling on."""

    def test_unset_and_empty_are_byte_identical(self):
        base = exp.run_app("fft", workload_overrides=exp.SMOKE_SIZES["fft"])
        empty = exp.run_app("fft", workload_overrides=exp.SMOKE_SIZES["fft"],
                            config_overrides={"handler_scale": {}})
        assert empty.to_json() == base.to_json()

    def test_scaling_changes_execution_time(self):
        base = exp.run_app("fft", workload_overrides=exp.SMOKE_SIZES["fft"])
        slowed = exp.run_app(
            "fft", workload_overrides=exp.SMOKE_SIZES["fft"],
            config_overrides={
                "handler_scale": {Handler.GET_HOME_CLEAN: 2.0}})
        assert slowed.execution_time > base.execution_time

    def test_table_model_scales_exactly_the_named_handler(self):
        config = flash_config(4)
        plain = TableCostModel(config)
        scaled = TableCostModel(config.with_changes(
            handler_scale={Handler.GET_HOME_CLEAN: 2.0}))
        action = Action(Handler.GET_HOME_CLEAN, None)
        assert scaled.cost(action) == 2 * plain.cost(action)
        other = Action(Handler.MISS_FORWARD, None)
        assert scaled.cost(other) == plain.cost(other)
        # Dynamic (non-flat) handlers scale too.
        upgrade = Action(Handler.UPGRADE_HOME, None, n_invals=3)
        scaled_up = TableCostModel(config.with_changes(
            handler_scale={Handler.UPGRADE_HOME: 2.0}))
        assert scaled_up.cost(upgrade) == 2 * plain.cost(upgrade)

    def test_emulator_backend_rejects_handler_scale(self):
        with pytest.raises(ConfigError, match="handler_scale"):
            flash_config(4, pp_backend="emulator",
                         handler_scale={Handler.GET_HOME_CLEAN: 2.0})

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            flash_config(4, handler_scale={Handler.GET_HOME_CLEAN: 0.0})

    def test_scale_is_part_of_the_cache_key(self):
        from repro.harness.diskcache import canonical_key
        plain = exp.normalize_spec(
            "fft", workload_overrides=exp.SMOKE_SIZES["fft"])
        scaled = exp.normalize_spec(
            "fft", workload_overrides=exp.SMOKE_SIZES["fft"],
            config_overrides={"handler_scale": {Handler.GET_OWNER: 2.0}})
        assert canonical_key(plain) != canonical_key(scaled)


class TestWhatif:
    """Measured vs predicted speedup on the fast fft shape."""

    def test_prediction_within_tolerance(self):
        report = run_whatif("fft",
                            workload_overrides=exp.SMOKE_SIZES["fft"],
                            top=2, scales=(2.0,))
        assert len(report["experiments"]) == 2
        assert report["confirmed"] >= 1
        # The top predicted lever's measured slowdown is real and its
        # measured ranking confirms the predicted slack ranking.
        top = report["predicted_ranking"][0]
        top_exp = next(e for e in report["experiments"]
                       if e["handler"] == top)
        assert top_exp["measured_delta"] < 0.0   # doubling costs slows it
        assert top_exp["predicted_delta"] < 0.0
        assert report["ranking_confirmed"]

    def test_prediction_beats_naive_occupancy_account(self):
        report = run_whatif("fft",
                            workload_overrides=exp.SMOKE_SIZES["fft"],
                            top=1, scales=(2.0,))
        exp_rec = report["experiments"][0]
        measured = exp_rec["measured_delta"]
        assert abs(exp_rec["predicted_delta"] - measured) < \
            abs(exp_rec["naive_delta"] - measured)

    def test_ideal_kind_rejected(self):
        with pytest.raises(ValueError, match="ideal"):
            run_whatif("fft", kind="ideal",
                       workload_overrides=exp.SMOKE_SIZES["fft"])

    def test_unknown_handler_rejected(self):
        with pytest.raises(ValueError, match="unknown handler"):
            run_whatif("fft", workload_overrides=exp.SMOKE_SIZES["fft"],
                       handlers=["no_such_handler"], scales=(2.0,))

    def test_render_whatif(self):
        report = run_whatif("fft",
                            workload_overrides=exp.SMOKE_SIZES["fft"],
                            top=1, scales=(2.0,))
        text = render_whatif(report)
        assert "causal profile: fft/flash" in text
        assert "predicted" in text and "measured" in text


class TestCli:
    def test_whatif_cli_json_out(self, tmp_path, capsys):
        out = tmp_path / "whatif.json"
        rc = harness_main(["whatif", "fft", "--fast", "--top", "1",
                           "--scales", "2.0", "--json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["experiments"]
        assert payload["baseline_execution_time"] > 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_trace_summary_shows_criticality(self, capsys):
        rc = harness_main(["trace", "fft", "--fast", "--summary"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "critical path" in output
        assert "causal levers" in output
        assert "crit share" in output

    def test_compare_shows_criticality_delta(self, capsys):
        rc = harness_main(["compare", "fft", "--vs", "ideal", "--fast"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "critpath/length" in output

    def test_render_critpath_smoke(self):
        cp = traced("fft", "flash").critpath
        text = render_critpath(cp)
        assert "length" in text
        assert "top-" in text and "causal levers" in text
