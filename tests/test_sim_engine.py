"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import (
    AllOf, AnyOf, Environment, Event, Process, SimulationError, Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestTimeout:
    def test_advances_clock(self, env):
        def proc():
            yield env.timeout(10)
            return env.now

        assert env.run_process(proc()) == 10

    def test_zero_delay(self, env):
        def proc():
            yield env.timeout(0)
            return env.now

        assert env.run_process(proc()) == 0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_call_later_negative_delay_rejected(self, env):
        env.run(until=10)
        with pytest.raises(SimulationError):
            env.call_later(-1, lambda: None)
        assert not env._ready

    def test_not_triggered_before_fire(self, env):
        t = env.timeout(5)
        assert not t.triggered
        env.run()
        assert t.triggered

    def test_carries_value(self, env):
        def proc():
            value = yield env.timeout(3, value="hello")
            return value

        assert env.run_process(proc()) == "hello"

    def test_fractional_delays(self, env):
        def proc():
            yield env.timeout(0.25)
            yield env.timeout(0.5)
            return env.now

        assert env.run_process(proc()) == 0.75


class TestEvent:
    def test_succeed_resumes_waiter(self, env):
        event = env.event()

        def waiter():
            value = yield event
            return value

        def firer():
            yield env.timeout(7)
            event.succeed(42)

        proc = env.process(waiter())
        env.process(firer())
        env.run()
        assert proc.value == 42
        assert env.now == 7

    def test_double_succeed_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_wait_on_already_fired_event(self, env):
        event = env.event()
        event.succeed("x")

        def proc():
            value = yield event
            return value

        assert env.run_process(proc()) == "x"

    def test_fail_raises_in_waiter(self, env):
        event = env.event()

        def waiter():
            try:
                yield event
            except ValueError:
                return "caught"
            return "missed"

        proc = env.process(waiter())
        event.fail(ValueError("boom"))
        env.run()
        assert proc.value == "caught"

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")


class TestProcess:
    def test_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        assert env.run_process(proc()) == "done"

    def test_process_waits_on_process(self, env):
        def inner():
            yield env.timeout(5)
            return 99

        def outer():
            value = yield env.process(inner())
            return (env.now, value)

        assert env.run_process(outer()) == (5, 99)

    def test_unhandled_process_error_surfaces(self, env):
        def bad():
            yield env.timeout(1)
            raise RuntimeError("die")

        env.process(bad())
        with pytest.raises(RuntimeError, match="die"):
            env.run()

    def test_observed_process_error_propagates_to_waiter(self, env):
        def bad():
            yield env.timeout(1)
            raise RuntimeError("die")

        def outer():
            try:
                yield env.process(bad())
            except RuntimeError:
                return "handled"

        assert env.run_process(outer()) == "handled"

    def test_yielding_non_event_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)


class TestComposites:
    def test_all_of_waits_for_all(self, env):
        def proc():
            values = yield env.all_of([env.timeout(3, "a"), env.timeout(9, "b")])
            return (env.now, values)

        assert env.run_process(proc()) == (9, ["a", "b"])

    def test_all_of_empty(self, env):
        def proc():
            values = yield env.all_of([])
            return values

        assert env.run_process(proc()) == []

    def test_any_of_returns_first(self, env):
        def proc():
            index, value = yield env.any_of(
                [env.timeout(9, "slow"), env.timeout(2, "fast")]
            )
            return (env.now, index, value)

        assert env.run_process(proc()) == (2, 1, "fast")

    def test_any_of_empty_rejected(self, env):
        with pytest.raises(SimulationError):
            env.any_of([])


class TestDeterminism:
    def test_same_time_fifo_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_clock(self, env):
        def proc():
            yield env.timeout(100)

        env.process(proc())
        assert env.run(until=30) == 30

    def test_run_returns_final_time(self, env):
        def proc():
            yield env.timeout(17)

        env.process(proc())
        assert env.run() == 17

    def test_run_until_advances_clock_past_drained_schedule(self, env):
        # Regression: when every event fires before `until`, the clock must
        # still advance to `until`, not stop at the last event time.
        def proc():
            yield env.timeout(17)

        env.process(proc())
        assert env.run(until=100) == 100
        assert env.now == 100

    def test_run_until_advances_clock_with_empty_schedule(self, env):
        assert env.run(until=42) == 42
        assert env.now == 42

    def test_run_until_resumable_after_drain(self, env):
        order = []

        def proc():
            yield env.timeout(5)
            order.append(env.now)

        env.process(proc())
        env.run(until=20)
        # New work scheduled after the horizon starts from the horizon time.
        def late():
            yield env.timeout(1)
            order.append(env.now)

        env.process(late())
        env.run()
        assert order == [5, 21]

    def test_same_time_heap_and_ready_interleave_in_schedule_order(self, env):
        # Zero-delay timeouts, event triggers, and already-fired waits at one
        # simulation time must fire in exactly the order they were scheduled,
        # even though they traverse different scheduler structures.
        order = []

        def proc():
            yield env.timeout(3)
            order.append("timeout-a")
            trigger = env.event()
            trigger.succeed(None)       # ready deque
            t = env.timeout(0)          # zero-delay fast path
            trigger.add_callback(lambda e: order.append("event"))
            t.add_callback(lambda e: order.append("timeout-0"))
            yield env.timeout(0)
            order.append("resume")

        env.process(proc())
        env.run()
        assert order == ["timeout-a", "event", "timeout-0", "resume"]

    def test_timeout_pool_recycles_only_unreferenced_timeouts(self, env):
        held = env.timeout(1)

        def proc():
            yield env.timeout(2)
            yield held
            assert held.triggered and held.value is None

        env.process(proc())
        env.run()
        # `held` is still referenced by this frame: it must not be in the pool.
        assert held not in env._timeout_pool
        # Pooled timeouts are re-armed, not stale.
        t = env.timeout(4)
        assert not t.triggered
        assert env.run() == env.now == 6


def _ticker(env, fired, last=20, period=10):
    """A callback chain that fires at 0, period, 2*period, ... and logs
    each dispatch in ``fired``."""
    def tick(n):
        fired.append(n)
        if n < last:
            env.call_later(period, tick, n + 1)

    env.call_soon(tick, 0)


class TestDispatchCount:
    """``Environment.dispatches`` counts every ready-queue entry the kernel
    dispatches, exactly, across any number of ``run`` calls."""

    def test_counts_accumulate_across_runs(self, env):
        fired = []
        _ticker(env, fired)
        assert env.dispatches == 0
        # Returns early: the next tick is due at 60, past ``until``.
        assert env.run(until=55) == 55
        assert env.dispatches == len(fired) == 6
        # The tick due exactly at ``until`` fires; the one at 110 waits.
        env.run(until=100)
        assert env.dispatches == len(fired) == 11
        # Drains: the schedule empties before ``until``.
        env.run(until=1000)
        assert env.dispatches == len(fired) == 21
        env.run()
        assert env.dispatches == 21

    def test_events_and_callbacks_count_alike(self, env):
        def proc():
            for _ in range(3):
                yield env.timeout(5)

        env.process(proc())
        env.run()
        # The first resume, three timeouts and the finished process event.
        assert env.dispatches == 5

    def test_read_only(self, env):
        with pytest.raises(AttributeError):
            env.dispatches = 7
