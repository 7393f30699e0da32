"""The simulation watchdog: stall detection, diagnosis, and budgets.

The two failure shapes (see ``src/repro/sim/watchdog.py``):

* deadlock — a cyclic wait drains the event schedule while the workload is
  incomplete; caught by ``check_complete`` after ``env.run()`` returns;
* livelock — events keep firing but the progress counter never moves; caught
  by the event/virtual-time budget inside the instrumented run loop.

Either way the test suite gets a typed ``SimStalledError`` naming the
offending queues in seconds, instead of a pytest hang.
"""

import json
import time

import pytest

from repro.common.params import flash_config, ideal_config
from repro.harness import experiments as exp
from repro.machine import Machine
from repro.protocol.messages import Message, MessageType as MT
from repro.sim import (
    BoundedQueue, CountingResource, Environment, SimStalledError, Watchdog,
)
from repro.sim.watchdog import diagnose

TINY_FFT = {"points": 256}


def deadlocked_env():
    """Two bounded queues whose producers each fill their queue and then
    block forever: the schedule drains with both processes still waiting."""
    env = Environment()
    ping = BoundedQueue(env, 1, name="ping[0]")
    pong = BoundedQueue(env, 1, name="pong[1]")

    def stuffer(queue):
        yield queue.put("first")    # fits
        yield queue.put("second")   # blocks forever: nobody ever gets

    p1 = env.process(stuffer(ping), name="stuffer-ping")
    p2 = env.process(stuffer(pong), name="stuffer-pong")
    return env, env.all_of([p1, p2])


class TestDeadlockDetection:
    def test_cyclic_queue_wait_raises_with_queues_named(self):
        env, done = deadlocked_env()
        watchdog = Watchdog(env)
        start = time.monotonic()
        with pytest.raises(SimStalledError) as excinfo:
            watchdog.run(complete=done)
        # The acceptance bar: diagnosed in seconds, not a pytest hang.
        assert time.monotonic() - start < 5.0
        message = str(excinfo.value)
        assert "ping[0]" in message and "pong[1]" in message
        assert "deadlock" in message
        diagnosis = excinfo.value.diagnosis
        assert set(diagnosis.offending_queues) == {"ping[0]", "pong[1]"}
        ops = {(e["process"], e["queue"], e["op"])
               for e in diagnosis.wait_edges}
        assert ("stuffer-ping", "ping[0]", "put") in ops
        assert ("stuffer-pong", "pong[1]", "put") in ops

    def test_completed_run_passes_check_complete(self):
        env = Environment()
        queue = BoundedQueue(env, 4, name="q[0]")

        def producer():
            yield queue.put("x")

        def consumer():
            yield queue.get()

        done = env.all_of([env.process(producer(), name="p"),
                           env.process(consumer(), name="c")])
        watchdog = Watchdog(env)
        watchdog.run(complete=done)   # must not raise
        assert done.triggered

    def test_machine_with_mismatched_barrier_is_diagnosed(self):
        # Three of four processors arrive at a barrier the fourth never
        # reaches: the canonical workload-bug deadlock.
        config = ideal_config(n_procs=4, cache_size=64 * 1024)
        machine = Machine(config, watchdog=True)
        workload = [[("b", 0)], [("b", 0)], [("b", 0)], []]
        with pytest.raises(SimStalledError):
            machine.run(workload)

    def test_machine_without_watchdog_keeps_runtime_error(self):
        config = ideal_config(n_procs=4, cache_size=64 * 1024)
        machine = Machine(config)
        workload = [[("b", 0)], [("b", 0)], [("b", 0)], []]
        with pytest.raises(RuntimeError):
            machine.run(workload)


class TestLivelockDetection:
    def spinner_env(self):
        env = Environment()

        def spin():
            while True:
                yield env.timeout(1)

        env.process(spin(), name="spinner")
        return env

    def test_event_budget_catches_spin(self):
        env = self.spinner_env()
        Watchdog(env, event_budget=2000, check_interval=64)
        with pytest.raises(SimStalledError) as excinfo:
            env.run()
        assert "livelock" in str(excinfo.value)
        assert excinfo.value.diagnosis.events_dispatched >= 2000
        # The stall is raised at a tick, where the kernel count is exact.
        assert excinfo.value.diagnosis.events_dispatched == env.dispatches

    def test_time_budget_catches_spin(self):
        env = self.spinner_env()
        Watchdog(env, event_budget=None, time_budget=500.0, check_interval=64)
        with pytest.raises(SimStalledError) as excinfo:
            env.run()
        assert "simulated cycles" in str(excinfo.value)

    def test_progress_resets_budgets(self):
        env = self.spinner_env()
        # The counter advances while sim time < 3000, then freezes: the
        # budget must only fire after the freeze, not from run start.
        progress = lambda: min(int(env.now), 3000)
        Watchdog(env, event_budget=2000, check_interval=64,
                 progress_fn=progress)
        with pytest.raises(SimStalledError):
            env.run()
        assert env.now > 3000

    def test_until_still_bounds_a_watched_run(self):
        env = self.spinner_env()
        Watchdog(env, event_budget=10**9)
        env.run(until=100)
        assert env.now == 100


class TestDispatchCount:
    """The watchdog reads the kernel's one dispatch counter: attaching it
    changes neither the count nor, therefore, the work a run does."""

    @staticmethod
    def ticking_env():
        env = Environment()
        fired = []

        def tick(n):
            fired.append(n)
            if n < 40:
                env.call_later(10, tick, n + 1)

        env.call_soon(tick, 0)
        return env, fired

    def test_watched_count_matches_plain_across_runs(self):
        plain, _ = self.ticking_env()
        watched, fired = self.ticking_env()
        # An interval that divides none of the segment lengths below, so
        # ticks, early returns and drains all fall mid-interval.
        Watchdog(watched, event_budget=None, check_interval=7)
        for until in (55, 100, 333, None):
            plain.run(until=until)
            watched.run(until=until)
            assert watched.dispatches == plain.dispatches == len(fired)

    def test_events_dispatched_is_the_delta_since_attach(self):
        env, fired = self.ticking_env()
        env.run(until=95)
        before = env.dispatches
        assert before == 10
        watchdog = Watchdog(env, event_budget=None, check_interval=3)
        assert watchdog.events_dispatched == 0
        env.run(until=200)
        assert watchdog.events_dispatched == env.dispatches - before == 11
        env.run()
        assert watchdog.events_dispatched == len(fired) - before

    def test_watched_machine_dispatches_as_many_as_plain(self):
        config = flash_config(n_procs=4, cache_size=64 * 1024)
        workload = exp.app_workload("fft", **TINY_FFT)
        counts = []
        for watchdog in (None, True):
            machine = Machine(config, watchdog=watchdog)
            machine.run(workload.build(config))
            counts.append(machine.env.dispatches)
        assert counts[0] == counts[1] > 0
        assert machine.watchdog.events_dispatched == counts[1]


class TestDiagnosis:
    def test_snapshot_contents(self):
        env = Environment()
        queue = BoundedQueue(env, 2, name="net.in[3]")
        resource = CountingResource(env, 1, name="dbuf[3]")
        old = Message(MT.REMOTE_GET, 0x80, 1, 3, 1)
        new = Message(MT.REMOTE_GETX, 0xC0, 2, 3, 2)
        queue.put(new)
        queue.put(old)
        assert old.uid < new.uid  # constructed first = oldest
        resource.acquire()

        def blocked_acquirer():
            yield resource.acquire()

        env.process(blocked_acquirer(), name="holder[3]")
        env.run()
        diagnosis = diagnose(env, "unit test")
        by_name = {entry["name"]: entry for entry in diagnosis.queues}
        assert by_name["net.in[3]"]["depth"] == 2
        assert by_name["net.in[3]"]["peak_depth"] == 2
        assert by_name["dbuf[3]"]["blocked_acquirers"] == ["holder[3]"]
        assert {"process": "holder[3]", "queue": "dbuf[3]",
                "op": "acquire"} in diagnosis.wait_edges
        # Oldest in-flight message for node 3 is the lowest-uid one.
        (oldest,) = diagnosis.oldest_messages
        assert oldest["node"] == 3 and oldest["uid"] == old.uid
        # The dict form is JSON-serializable as-is (artifact format).
        json.dumps(diagnosis.to_dict())

    def test_stall_artifact_written(self, tmp_path):
        env, done = deadlocked_env()
        watchdog = Watchdog(env, stall_dir=str(tmp_path))
        with pytest.raises(SimStalledError) as excinfo:
            watchdog.run(complete=done)
        path = excinfo.value.diagnosis.artifact_path
        assert path is not None and str(tmp_path) in path
        payload = json.loads(open(path).read())
        assert payload["reason"].startswith("event schedule drained")
        assert {q["name"] for q in payload["queues"]} >= {"ping[0]", "pong[1]"}

    def test_stall_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STALL_DIR", str(tmp_path))
        env, done = deadlocked_env()
        watchdog = Watchdog(env)
        with pytest.raises(SimStalledError) as excinfo:
            watchdog.run(complete=done)
        assert excinfo.value.diagnosis.artifact_path is not None


class TestWatchedRunFidelity:
    """The instrumented loop must dispatch in exactly the fast loop's order:
    a run with a watchdog attached is byte-identical to one without."""

    def test_flash_run_identical_with_watchdog(self):
        spec = exp.normalize_spec("fft", n_procs=4,
                                  workload_overrides=TINY_FFT)
        plain = exp._execute(spec)
        config = flash_config(n_procs=4, cache_size=spec["cache_bytes"])
        workload = exp.app_workload("fft", **TINY_FFT)
        machine = Machine(config, watchdog=True)
        watched = machine.run(workload.build(config))
        assert watched.to_json() == plain.to_json()

    def test_watchdog_env_var_parser(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "off")
        assert exp._watchdog_from_env() is None
        monkeypatch.setenv("REPRO_WATCHDOG", "on")
        assert exp._watchdog_from_env() is True
        monkeypatch.setenv("REPRO_WATCHDOG",
                           "events=5000, time=2e6, interval=128")
        assert exp._watchdog_from_env() == {
            "event_budget": 5000, "time_budget": 2e6, "check_interval": 128}
        monkeypatch.setenv("REPRO_WATCHDOG", "bogus=1")
        with pytest.raises(ValueError):
            exp._watchdog_from_env()
