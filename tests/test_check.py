"""Coherence model checker: oracle, invariants, shrinking, CLI.

The checker's own correctness is established two ways: clean protocols
pass under heavy contention (no false positives across protocol x machine
combinations), and each deliberately-seeded protocol mutation is
caught and shrunk to a small replayable reproducer (no false negatives
for the bug classes the oracle claims to cover).
"""

import json
import re

import pytest

from repro.apps.randmem import RandMemWorkload
from repro.check import (
    CheckSpec, iter_specs, load_reproducer, replay, run_check,
    save_reproducer, shrink,
)
from repro.check.oracle import CoherenceOracle
from repro.check.workload import _build_machine, _workload
from repro.common.errors import CoherenceViolation
from repro.common.params import flash_config
from repro.machine import Machine
from repro.protocol.coherence import Handler
from repro.protocol.messages import Message, MessageType as MT

MUTATIONS = ("drop_sharer", "stale_reply", "skip_inval", "no_ack")


class TestCleanMatrix:
    """A correct protocol never trips the checker."""

    @pytest.mark.parametrize("kind", ["flash", "ideal"])
    @pytest.mark.parametrize("protocol", ["base", "migratory", "transfer"])
    def test_clean_pass(self, kind, protocol):
        report = run_check(CheckSpec(seed=0, ops=150, nodes=4, kind=kind,
                                     protocol=protocol))
        assert report.ok, f"{kind}/{protocol}: {report.error}"
        assert report.checked_ops > 150          # every cpu contributes
        assert report.quiesce_checks >= 2        # mid-run barriers walked

    def test_clean_under_faults(self):
        report = run_check(CheckSpec(seed=1, ops=200, nodes=4,
                                     fault_rate=0.05))
        assert report.ok, report.error
        assert report.checked_ops > 200


class TestUpgradeEvictionRace:
    """A 16-node contended flash run once broke SWMR at an exclusive fill
    (race A): a fill evicted a shared line whose upgrade was in flight,
    and the stale replacement hint later dropped the new owner's shared
    copy from the directory.  The CPU now never evicts a line with an MSHR
    entry; both machines pass the same traffic."""

    SPEC = CheckSpec(seed=0, ops=1000, nodes=16, lines=64)

    def test_flash(self):
        report = run_check(self.SPEC)
        assert report.ok, report.error

    def test_ideal_twin_passes(self):
        report = run_check(self.SPEC.with_changes(kind="ideal"))
        assert report.ok, report.error


class TestOwnerHintAssertion:
    """Checked runs reject a replacement hint from the dirty owner the
    home's directory records (the directory entry's ``owner()``
    invariant): that hint is the trace race A leaves."""

    LINE = 0x200  # homed at node 0

    def _machine(self):
        machine = Machine(flash_config(n_procs=4))
        CoherenceOracle(machine).attach(machine)
        return machine

    @pytest.mark.parametrize("pending", [False, True])
    def test_hint_from_owner_raises(self, pending):
        machine = self._machine()
        engine = machine.nodes[0].engine
        machine.nodes[0].directory.set_dirty(self.LINE, owner=2)
        if pending:
            # A forwarded GET makes the line pending: the hint would defer.
            engine.process(Message(MT.REMOTE_GET, self.LINE, 3, 0, 3))
        with pytest.raises(CoherenceViolation, match="dirty owner"):
            engine.process(Message(MT.REMOTE_REPL_HINT, self.LINE, 2, 0, 2))

    def test_hint_from_sharer_passes(self):
        machine = self._machine()
        engine = machine.nodes[0].engine
        machine.nodes[0].directory.add_sharer(self.LINE, 2)
        actions = engine.process(
            Message(MT.REMOTE_REPL_HINT, self.LINE, 2, 0, 2))
        assert [a.handler for a in actions] == [Handler.HINT_REMOTE]


class TestObserverPurity:
    """Attaching the oracle must not change simulated behaviour."""

    def test_checked_run_timing_identical(self):
        for kind in ("flash", "ideal"):
            spec = CheckSpec(seed=2, ops=150, nodes=4, kind=kind)

            plain = _build_machine(spec)
            plain_result = plain.run(_workload(spec).build(plain.config))

            checked = _build_machine(spec)
            oracle = CoherenceOracle(checked)
            oracle.attach(checked)
            checked_result = checked.run(
                _workload(spec).build(checked.config))

            assert checked_result.to_dict() == plain_result.to_dict(), kind
            # One check per retiring memory op: each read op observes once
            # (hit, miss or merge; its k same-line words share the
            # observation) and each write op performs exactly once (at the
            # hit, or at the exclusive fill it queued behind).
            memory_ops = sum(
                op[0] in "rw"
                for stream in _workload(spec).build(checked.config)
                for op in stream)
            assert oracle.checked_ops == memory_ops, kind


class TestMutationsCaught:
    """Every seeded protocol bug is detected and shrinks to a small,
    replayable reproducer — the checker's self-test."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_detected_and_shrunk(self, mutation, tmp_path):
        spec = CheckSpec(seed=0, ops=400, nodes=4, mutation=mutation)
        report = run_check(spec)
        assert not report.ok, f"{mutation} escaped the checker"
        if mutation == "no_ack":
            assert report.failure_kind == "stall"   # writer wedges forever
        else:
            assert report.failure_kind == "violation"
            assert report.violation is not None

        best, attempts = shrink(report)
        assert not best.ok
        assert best.spec.ops <= spec.ops // 4, (
            f"{mutation}: shrunk reproducer still {best.spec.ops} ops")
        assert attempts > 0

        path = save_reproducer(best, spec, attempts, str(tmp_path))
        assert load_reproducer(path) == best.spec
        replayed = replay(path)
        assert not replayed.ok
        assert replayed.failure_kind == best.failure_kind

    def test_violation_carries_state_dump(self):
        report = run_check(CheckSpec(seed=0, ops=400, nodes=4,
                                     mutation="stale_reply"))
        assert report.failure_kind == "violation"
        dump = report.violation["dump"]
        assert "directory" in dump and "caches" in dump
        assert "shadow" in dump or "line" in dump


class TestQuiesceInvariants:
    def test_assert_quiesced_clean(self):
        spec = CheckSpec(seed=0, ops=100, nodes=4)
        machine = _build_machine(spec)
        machine.run(_workload(spec).build(machine.config))
        machine.assert_quiesced()   # must not raise

    def test_assert_quiesced_flags_planted_pending(self):
        spec = CheckSpec(seed=0, ops=50, nodes=4)
        machine = _build_machine(spec)
        machine.run(_workload(spec).build(machine.config))
        node = machine.nodes[0]
        line = next(iter(node.directory._entries), None)
        if line is None:   # node 0 saw no home traffic: plant an entry
            node.directory.entry(0)
            line = 0
        node.directory.entry(line).pending = True
        with pytest.raises(CoherenceViolation):
            machine.assert_quiesced()


class TestSpecPlumbing:
    def test_spec_roundtrip(self):
        spec = CheckSpec(seed=7, ops=99, nodes=8, protocol="migratory",
                         fault_rate=0.05, mutation="no_ack")
        assert CheckSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_loads_legacy_fusion_key(self):
        # Reproducers saved while the controllers had a fusion axis carry
        # a "fusion" field; it must still load (and is ignored).
        for fusion in (True, False):
            state = dict(CheckSpec(seed=3, ops=40).to_dict(), fusion=fusion)
            assert CheckSpec.from_dict(state) == CheckSpec(seed=3, ops=40)

    def test_iter_specs_skips_invalid_fault_combos(self):
        specs = list(iter_specs([0], ops=10, nodes=2, lines=2,
                                protocols=("base",), kinds=("flash", "ideal"),
                                fault_rates=(0.0, 0.1)))
        assert all(s.kind == "flash" for s in specs if s.fault_rate)
        assert {s.kind for s in specs} == {"flash", "ideal"}

    def test_validate_rejects_faults_on_ideal(self):
        with pytest.raises(ValueError):
            CheckSpec(kind="ideal", fault_rate=0.1).validate()


class TestRandMemWorkload:
    def test_deterministic_streams(self):
        from repro.common.params import flash_config

        config = flash_config(4, cache_size=4096)
        first = [list(s) for s in RandMemWorkload(seed=3, ops=60).build(config)]
        second = [list(s) for s in RandMemWorkload(seed=3, ops=60).build(config)]
        assert first == second
        assert len(first) == 4
        other = [list(s) for s in RandMemWorkload(seed=4, ops=60).build(config)]
        assert first != other

    def test_transfer_lane_emits_sends(self):
        from repro.common.params import flash_config

        config = flash_config(4, cache_size=4096)
        streams = RandMemWorkload(seed=0, ops=250,
                                  transfers=True).build(config)
        kinds = {op[0] for stream in streams for op in stream}
        assert {"r", "w", "b", "s", "v"} <= kinds


class TestCheckCLI:
    def test_clean_sweep_exits_zero(self, capsys):
        from repro.harness.__main__ import main

        code = main(["check", "--seed", "0", "--ops", "100",
                     "--protocols", "base", "--kinds", "flash", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["failed"] == 0
        assert payload["checked_ops"] > 0

    def test_text_summary_counts_ops(self, capsys):
        # The oracle makes one observation per read or write op, so the
        # summary counts ops; the JSON key stays ``checked_ops``.
        from repro.harness.__main__ import main

        assert main(["check", "--seed", "0", "--ops", "100",
                     "--protocols", "base", "--kinds", "flash"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^check: 1/1 passed, \d+ ops checked, \d+ quiesce"
                         r" walks$", out, re.MULTILINE), out
        assert "references checked" not in out

    def test_mutated_sweep_fails_with_artifact(self, capsys, tmp_path):
        from repro.harness.__main__ import main

        code = main(["check", "--seed", "0", "--ops", "400",
                     "--protocols", "base", "--kinds", "flash",
                     "--mutate", "skip_inval",
                     "--out-dir", str(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        (failing,) = [r for r in payload["reports"] if not r["ok"]]
        shrunk = failing["shrunk"]
        assert shrunk["spec"]["ops"] <= 100
        replayed = replay(shrunk["artifact"])
        assert not replayed.ok


class TestFaultsCLI:
    def test_raising_run_exits_nonzero(self, capsys, monkeypatch):
        from repro.harness import __main__ as harness_main

        calls = []

        def fake_run_app(app, **kwargs):
            calls.append(kwargs)
            if kwargs.get("faults") is not None:
                raise RuntimeError("injected wedge")

            class _Result:
                execution_time = 100.0
            return _Result()

        monkeypatch.setattr(harness_main, "run_app", fake_run_app)
        code = harness_main.main(["faults", "fft", "--rates", "0.5",
                                  "--fast", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        assert payload["failures"][0]["error_type"] == "RuntimeError"
        assert len(calls) == 2   # clean + one faulted

    def test_clean_sweep_exits_zero(self, capsys, monkeypatch):
        from repro.harness import __main__ as harness_main

        class _Result:
            execution_time = 100.0
            fault_counters = None

        monkeypatch.setattr(harness_main, "run_app",
                            lambda app, **kwargs: _Result())
        code = harness_main.main(["faults", "fft", "--rates", "0.1",
                                  "--fast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["failures"] == []
