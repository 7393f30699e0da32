"""Event-kernel throughput microbenchmarks.

Reports events/second for a canonical mixed workload (future timeouts,
zero-delay timeouts, event triggers), in both execution models the kernel
supports:

* **coroutine dispatch** — generator processes resumed per event, the model
  the simulator's cold paths still use;
* **callback dispatch** — bare scheduled callbacks (``call_later`` /
  ``call_soon`` / ``Event.callbacks``), the model of the hot CPU / MAGIC /
  memory / network paths.

The same-time ready-deque fast path and timeout recycling in
``sim/engine.py`` lift coroutine dispatch well above the pre-optimization
scheduler (~435k ev/s on the reference container; ~665k after); retiring
the generator resume lifts the callback path further still.  Run with
``PYTHONPATH=src python -m pytest benchmarks/test_kernel_throughput.py -s``.
"""

import time

from _util import emit, once

from repro.sim.engine import Environment, Event

#: Canonical microbenchmark shape: every worker alternates a future timeout,
#: a zero-delay timeout, and an immediately-triggered event wait.
N_WORKERS = 200
N_STEPS = 500
EVENTS_PER_STEP = 3


def kernel_events_per_sec(repeats: int = 3) -> float:
    """Best-of-``repeats`` coroutine-dispatch throughput in events/second.

    Each step is three kernel events driven through generator resume: a
    future Timeout, a zero-delay Timeout, and a pre-triggered Event wait.
    This is the execution model the cold paths still use.
    """
    best = 0.0
    for _ in range(repeats):
        env = Environment()

        def worker(i):
            for step in range(N_STEPS):
                yield env.timeout((i % 7) + 1)
                yield env.timeout(0)
                event = env.event()
                event.succeed(step)
                yield event

        for i in range(N_WORKERS):
            env.process(worker(i))
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        best = max(best, N_WORKERS * N_STEPS * EVENTS_PER_STEP / elapsed)
    return best


class _CallbackWorker:
    """State-machine twin of the coroutine worker: the same three kernel
    events per step (future delay, zero-delay hop, triggered-event wait),
    expressed as scheduled callbacks instead of generator resumes — the
    execution model of the simulator's hot paths, including the pooled
    event draw and inlined ``succeed`` the hot queues use."""

    __slots__ = ("env", "delay", "step")

    def __init__(self, env, i):
        self.env = env
        self.delay = (i % 7) + 1
        self.step = 0
        env.call_later(self.delay, self._after_delay)

    def _after_delay(self) -> None:
        self.env.call_later(0.0, self._after_zero)

    def _after_zero(self) -> None:
        env = self.env
        pool = env._event_pool
        event = pool.pop() if pool else Event(env)
        event._ok = True
        event._value = self.step  # succeed(step), inlined
        event.callbacks.append(self._after_event)
        env._ready.append(event)

    def _after_event(self, _event) -> None:
        self.step += 1
        if self.step < N_STEPS:
            self.env.call_later(self.delay, self._after_delay)


def kernel_callback_events_per_sec(repeats: int = 3) -> float:
    """Best-of-``repeats`` callback-dispatch throughput in events/second:
    the identical event mix as :func:`kernel_events_per_sec`, driven through
    bare scheduled callbacks (no generator frames to resume)."""
    best = 0.0
    for _ in range(repeats):
        env = Environment()
        workers = [_CallbackWorker(env, i) for i in range(N_WORKERS)]
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        assert all(w.step == N_STEPS for w in workers)
        best = max(best, N_WORKERS * N_STEPS * EVENTS_PER_STEP / elapsed)
    return best


def test_kernel_throughput(benchmark):
    rate = once(benchmark, lambda: kernel_events_per_sec(repeats=2))
    emit("kernel_throughput",
         f"event kernel throughput (coroutine dispatch): {rate:,.0f} events/sec\n"
         f"(workload: {N_WORKERS} processes x {N_STEPS}"
         f" steps x {EVENTS_PER_STEP} events)")
    # Conservative floor: an order of magnitude below the reference machine,
    # so only a genuine kernel regression (not CI jitter) trips it.
    assert rate > 60_000, f"kernel throughput collapsed: {rate:,.0f} ev/s"


def test_callback_dispatch_throughput(benchmark):
    rate = once(benchmark, lambda: kernel_callback_events_per_sec(repeats=2))
    emit("callback_throughput",
         f"event kernel throughput (callback dispatch): {rate:,.0f} events/sec\n"
         f"(same workload shape as the coroutine benchmark)")
    assert rate > 60_000, f"callback throughput collapsed: {rate:,.0f} ev/s"


def test_callback_dispatch_beats_coroutine_dispatch():
    """The point of the callback core: the identical event mix is cheaper
    without generator frames to resume.  Single repeat each and a generous
    margin (no equality tolerance games) keeps this stable under CI noise."""
    coroutine = kernel_events_per_sec(repeats=1)
    callback = kernel_callback_events_per_sec(repeats=1)
    emit("dispatch_modes",
         f"dispatch modes: coroutine {coroutine:,.0f} ev/s,"
         f" callback {callback:,.0f} ev/s"
         f" ({callback / coroutine:.2f}x)")
    assert callback > coroutine, (
        f"callback dispatch ({callback:,.0f} ev/s) should outrun coroutine"
        f" dispatch ({coroutine:,.0f} ev/s) on the same event mix")
