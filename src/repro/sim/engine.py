"""Discrete-event simulation kernel.

A small, dependency-free event engine in the style of SimPy: simulation
*processes* are Python generators that ``yield`` events (timeouts, one-shot
events, other processes, or composites) and are resumed when those events
fire.  The engine provides deterministic execution: events scheduled for the
same simulation time fire in scheduling order.

This kernel is the substrate for every timed component in the FLASH
reproduction (processors, MAGIC units, memory controllers, the network).
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Subtask",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "NO_ARG",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


PENDING = object()

#: Sentinel for "call the queued callback with no argument".
_NO_ARG = object()
#: Public alias: callback-mode subsystems (queues, state machines) use it to
#: schedule argument-less continuations through the same tuple fast path.
NO_ARG = _NO_ARG

# Under mypyc the module's __file__ is the compiled extension; native code
# may hold references the interpreter-level refcount proof does not see, so
# the pools stay empty there (draws degrade to plain allocation).
_COMPILED = not __file__.endswith(".py")

# Timeout pooling relies on CPython reference-count semantics to prove that
# nobody else can observe the recycled object (see Environment.run).
_REFCOUNT_POOLING = sys.implementation.name == "cpython" and not _COMPILED
#: getrefcount(event) when the run loop's local + getrefcount's own argument
#: are the only remaining references.
_FREE_REFCOUNT = 2


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it, scheduling all registered callbacks at the current
    simulation time.  Waiting on an already-triggered event resumes the
    waiter immediately (at the current time).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._queue_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already fired and dispatched: run at current time.
            self.env._queue_callback(callback, self)
        else:
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` cycles in the future.

    Dead timeouts that provably have no remaining references are recycled by
    the run loop through :attr:`Environment._timeout_pool`, so the dominant
    ``yield env.timeout(d)`` pattern usually reuses an existing object
    instead of allocating a fresh one.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._pending_value = value
        env._schedule_at(env._now + delay, self)

    def _reinit(self, delay: float, value: Any) -> None:
        """Re-arm a recycled (fired, unreferenced) timeout."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.delay = delay
        self._pending_value = value
        # _schedule_at, inlined (this is the hot timeout path).  Routing on
        # ``when <= now`` (not ``delay == 0``) keeps the run loop's invariant
        # airtight: the calendar never receives an entry due at the current
        # time.
        env = self.env
        when = env._now + delay
        if when <= env._now:
            env._ready.append(self)
        else:
            buckets = env._buckets
            bucket = buckets.get(when)
            if bucket is None:
                pool = env._bucket_pool
                if pool:
                    bucket = pool.pop()
                    bucket.append(self)
                    buckets[when] = bucket
                else:
                    buckets[when] = [self]
                heapq.heappush(env._whens, when)
            else:
                bucket.append(self)

    def _dispatch(self) -> None:
        # Fused Event._dispatch: one call saved per fired timeout.
        if self._value is PENDING:
            self._value = self._pending_value
            self._ok = True
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)


class Process(Event):
    """Wraps a generator; fires (with the generator's return value) when the
    generator finishes.  The process is itself an event other processes can
    wait on."""

    __slots__ = ("_generator", "_send", "_resume", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self._generator = generator
        self._send = generator.send  # bound once; called every resume
        self._resume = self._on_event  # bound once; appended once per yield
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current time.
        env._queue_callback(self._resume_initial)

    def _resume_initial(self) -> None:
        self._step(None, None)

    def _on_event(self, event: Event) -> None:
        # Single-frame resume: runs once per yield in every process, so the
        # success path unpacks the event and advances the generator without
        # going through _step.  Failures take the cold _step path.
        if not event._ok:
            self._step(None, event._value)
            return
        try:
            target = self._send(event._value)
        except StopIteration as stop:
            if self._value is PENDING:
                self.succeed(stop.value)
            return
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            if self._value is PENDING:
                self.fail(error)
                return
            raise
        cls = target.__class__
        if cls is not Timeout and cls is not Event and not isinstance(target, Event):
            self._generator.throw(
                SimulationError(f"process {self.name!r} yielded non-event {target!r}")
            )
            return
        # target.add_callback(self._resume), inlined (hot resume path).
        callbacks = target.callbacks
        if callbacks is None:
            self.env._ready.append((self._resume, target))
        else:
            callbacks.append(self._resume)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            if not self.triggered:
                self.fail(error)
                return
            raise
        cls = target.__class__
        if cls is not Timeout and cls is not Event and not isinstance(target, Event):
            self._generator.throw(
                SimulationError(f"process {self.name!r} yielded non-event {target!r}")
            )
            return
        callbacks = target.callbacks
        if callbacks is None:
            self.env._ready.append((self._resume, target))
        else:
            callbacks.append(self._resume)


class Subtask:
    """Drives a generator without a :class:`Process` wrapper.

    Callback-core state machines use this for cold sub-flows that used to run
    via ``yield from`` inside a process (e.g. block transfers on the PP): the
    first step runs inline at :meth:`start` — exactly like ``yield from`` —
    each yielded event registers the resume at the same callbacks-list /
    ready-deque position ``Process._on_event`` would, and on completion
    ``done_cb`` runs inline where the enclosing generator would have
    continued.  No completion event is created, so a finished subtask adds no
    dispatch the process form would not have added (its process-end event
    carried no callbacks).
    """

    __slots__ = ("env", "_send", "_step_cb", "done_cb", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 done_cb: Optional[Callable[[], None]] = None,
                 name: str = "") -> None:
        self.env = env
        self._send = generator.send
        self._step_cb = self._step  # bound once; registered once per yield
        self.done_cb = done_cb
        self.name = name or getattr(generator, "__name__", "subtask")

    def start(self) -> None:
        self._advance(None)

    def _step(self, event: Event) -> None:
        self._advance(event._value)

    def _advance(self, value: Any) -> None:
        try:
            target = self._send(value)
        except StopIteration:
            done_cb = self.done_cb
            if done_cb is not None:
                done_cb()
            return
        # target.add_callback(self._step), inlined — identical registration
        # to the Process resume path.
        callbacks = target.callbacks
        if callbacks is None:
            self.env._ready.append((self._step_cb, target))
        else:
            callbacks.append(self._step_cb)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_pending_count", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending_count = len(self._events)
        if self._pending_count == 0:
            self.succeed([])
        else:
            for event in self._events:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Fires as soon as one child event fires; value is (index, value)."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self._events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(event: Event) -> None:
            if self.triggered:
                return
            if not event.ok:
                self.fail(event.value)
            else:
                self.succeed((index, event.value))

        return on_child


class Environment:
    """The simulation environment: clock plus scheduler.

    Scheduling is split across two structures:

    * ``_ready`` — a FIFO deque of work at the *current* simulation time
      (event triggers, process resumes, zero-delay timeouts).  This is the
      dominant traffic, and a deque append/popleft is O(1) where the old
      single-heap scheduler paid O(log n) tuple-comparison churn per event.
    * ``_buckets``/``_whens`` — a calendar of strictly-future timeouts:
      a dict mapping each distinct firing time to the list of events due
      then (in scheduling order), plus a heap of the distinct times.  Heap
      traffic is one push/pop per *timestamp* instead of per event, and the
      heap compares bare floats instead of ``(when, seq, event)`` tuples.

    No explicit sequence numbers are needed for determinism: same-time work
    fires in exactly the order it was scheduled because every structure is
    FIFO, the scheduling paths route anything due now to ``_ready``
    (so nothing ever joins a bucket at the current time), and the clock only
    advances when ``_ready`` is empty — hence a due bucket always predates
    (and fully fires before) anything in ``_ready``.  Observable behaviour,
    including every tie-break, is identical to the single-heap scheduler.
    """

    def __init__(self) -> None:
        self._now: float = 0
        self._buckets: dict = {}     # when -> [event, ...] in scheduling order
        self._whens: List[float] = []  # heap of distinct future times
        self._ready: deque = deque()  # events / (callback, arg) at current time
        self._timeout_pool: List[Timeout] = []
        # Drained calendar buckets recycled by the run loop: a new distinct
        # timestamp reuses a spent list instead of allocating one.  List
        # identity is invisible to simulation semantics.
        self._bucket_pool: List[list] = []
        # Dead plain Events recycled by the run loop (same refcount proof as
        # the timeout pool); drawn on by the queue/memory hot paths.
        self._event_pool: List[Event] = []
        # Robustness hooks (repro.sim.watchdog): every BoundedQueue /
        # CountingResource registers itself here for stall diagnosis, and an
        # attached watchdog routes run() through the instrumented loop.
        self._queues: List[Any] = []
        self._watchdog = None
        # Observability anchor (repro.stats.trace): the Machine parks its
        # Tracer here so stall diagnosis can attach the trace tail of the
        # oldest in-flight transactions.  The run loop never consults it.
        self._tracer = None

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling internals ------------------------------------------------

    def _schedule_at(self, when: float, event: Event) -> None:
        if when <= self._now:
            # Zero-delay fast path: current-time work never joins the calendar.
            self._ready.append(event)
        else:
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                pool = self._bucket_pool
                if pool:
                    bucket = pool.pop()
                    bucket.append(event)
                    buckets[when] = bucket
                else:
                    buckets[when] = [event]
                heapq.heappush(self._whens, when)
            else:
                bucket.append(event)

    def _queue_event(self, event: Event) -> None:
        """Schedule a just-triggered event's dispatch at the current time."""
        self._ready.append(event)

    def _queue_callback(self, callback: Callable[..., None], arg: Any = _NO_ARG) -> None:
        self._ready.append((callback, arg))

    # -- public API ----------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            # Timeout._reinit, inlined: one call saved per recycled timeout,
            # and this is the single hottest allocation site in a run.
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            # Pooled objects arrive with an empty callbacks list (see the
            # run-loop recycle sites), so only value/state need resetting.
            timeout = pool.pop()
            timeout._value = PENDING
            timeout._ok = True
            timeout.delay = delay
            timeout._pending_value = value
            when = self._now + delay
            if when <= self._now:
                self._ready.append(timeout)
            else:
                buckets = self._buckets
                bucket = buckets.get(when)
                if bucket is None:
                    bpool = self._bucket_pool
                    if bpool:
                        bucket = bpool.pop()
                        bucket.append(timeout)
                        buckets[when] = bucket
                    else:
                        buckets[when] = [timeout]
                    heapq.heappush(self._whens, when)
                else:
                    bucket.append(timeout)
            return timeout
        return Timeout(self, delay, value)

    def call_later(self, delay: float, callback: Callable[..., None],
                   arg: Any = _NO_ARG) -> None:
        """Schedule ``callback(arg)`` (or ``callback()`` with the default
        sentinel) ``delay`` cycles from now.

        This is the callback-core replacement for ``yield env.timeout(d)``:
        the continuation is stored as a bare ``(callback, arg)`` tuple —
        no Timeout object, no callbacks list, no pooling bookkeeping — and
        fires at exactly the position a Timeout scheduled at the same
        instant would have fired (ready deque for ``delay <= 0``, calendar
        bucket otherwise), so dispatch order is identical to the event form.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        entry = (callback, arg)
        when = self._now + delay
        if when <= self._now:
            self._ready.append(entry)
        else:
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                pool = self._bucket_pool
                if pool:
                    bucket = pool.pop()
                    bucket.append(entry)
                    buckets[when] = bucket
                else:
                    buckets[when] = [entry]
                heapq.heappush(self._whens, when)
            else:
                bucket.append(entry)

    def call_at(self, when: float, callback: Callable[..., None],
                arg: Any = _NO_ARG) -> None:
        """Schedule ``callback(arg)`` at the *absolute* instant ``when``.

        Takes the exact float key rather than ``now + delay`` (float
        addition is not associative).  No simulator component calls it;
        it stays because ``bench/layers.py`` wraps it by name.
        """
        if when < self._now:
            raise SimulationError(
                f"call_at into the past: {when} < now {self._now}")
        entry = (callback, arg)
        if when <= self._now:
            self._ready.append(entry)
        else:
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                pool = self._bucket_pool
                if pool:
                    bucket = pool.pop()
                    bucket.append(entry)
                    buckets[when] = bucket
                else:
                    buckets[when] = [entry]
                heapq.heappush(self._whens, when)
            else:
                bucket.append(entry)

    def call_soon(self, callback: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Schedule ``callback(arg)`` at the current simulation time — the
        callback-core replacement for the process-start hop (a new Process
        queues its first resume the same way)."""
        self._ready.append((callback, arg))

    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            # Recycled by the run loop once the refcount proved it dead;
            # pooled objects carry an empty callbacks list, so only the
            # trigger state needs resetting.
            event = pool.pop()
            event._value = PENDING
            event._ok = True
            return event
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def attach_watchdog(self, watchdog) -> None:
        """Route ``run()`` through the instrumented loop that ticks
        ``watchdog`` (see :class:`repro.sim.watchdog.Watchdog`); pass None
        to detach and return to the fast loop."""
        self._watchdog = watchdog

    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains or the clock reaches ``until``.

        Returns the final simulation time.  If the schedule drains before
        ``until``, the clock still advances to ``until`` (callers rely on
        ``now == until`` for rate and occupancy computations).
        """
        if self._watchdog is not None:
            return self._run_watched(until)
        ready = self._ready
        whens = self._whens
        buckets = self._buckets
        pool = self._timeout_pool
        event_pool = self._event_pool
        bucket_pool = self._bucket_pool
        heappop = heapq.heappop
        refcount = sys.getrefcount if _REFCOUNT_POOLING else None
        # Local bindings for names the dispatch loop reads per event: a
        # LOAD_FAST per iteration instead of a global/builtin lookup.
        cls_tuple = tuple
        cls_timeout = Timeout
        cls_event = Event
        no_arg = _NO_ARG
        pending = PENDING
        free_refcount = _FREE_REFCOUNT
        # A ready entry is either an Event itself or a ``(callback, arg)``
        # tuple for queued callbacks — the event-as-entry form saves a tuple
        # allocation and unpack on the dominant trigger path.
        #
        # Ordering needs no sequence numbers.  The scheduling paths route
        # anything due at the current time to the ready deque, so while the
        # clock stands still no calendar bucket can become due; and the clock
        # only advances once ``ready`` is empty, so everything in the due
        # bucket was scheduled before anything the bucket's own dispatches
        # push onto ``ready``.  Draining the bucket FIFO and then the deque
        # FIFO therefore reproduces global scheduling order exactly.
        while True:
            # Fast drain: fire current-time work back to back.  Dispatch is
            # inlined per concrete class (exact-type checks, so subclasses
            # with custom _dispatch still take the generic branch), and dead
            # Timeouts/Events are recycled into their pools when the
            # refcount proves nobody else can see them.
            while ready:
                event = ready.popleft()
                cls = event.__class__
                if cls is cls_tuple:
                    callback, arg = event
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    continue
                if cls is cls_timeout:
                    # Timeout._dispatch, inlined.
                    if event._value is pending:
                        event._value = event._pending_value
                        event._ok = True
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if (
                        refcount is not None
                        and refcount(event) == free_refcount
                    ):
                        # Pool invariant: a pooled object carries an empty
                        # callbacks list, so reuse spares consumers a fresh
                        # allocation per draw.
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                    continue
                if cls is cls_event:
                    # Event._dispatch, inlined.
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if (
                        refcount is not None
                        and refcount(event) == free_refcount
                    ):
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        event_pool.append(event)
                    continue
                # Processes and composites (a died-process error check
                # only applies here: plain Events and Timeouts can never
                # satisfy isinstance(event, Process)).
                if (
                    not event._ok
                    and not event.callbacks
                    and event._value is not pending
                    and isinstance(event, Process)
                ):
                    # A process died with nobody waiting on it: surface
                    # the error instead of silently swallowing it.
                    raise event._value
                event._dispatch()
            if not whens:
                break
            # Ready empty: advance the clock to the earliest future bucket
            # and fire its entries in scheduling order.  Entries are popped
            # off the (reversed) list so the run-loop local holds the only
            # reference left when a dead timeout reaches the recycle check.
            when = whens[0]
            if until is not None and when > until:
                self._now = until
                return until
            heappop(whens)
            self._now = when
            bucket = buckets.pop(when)
            bucket.reverse()
            while bucket:
                event = bucket.pop()
                cls = event.__class__
                if cls is cls_tuple:
                    # A call_later continuation: bare (callback, arg).
                    callback, arg = event
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                elif cls is cls_timeout:
                    # Timeout._dispatch, inlined.
                    if event._value is pending:
                        event._value = event._pending_value
                        event._ok = True
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if (
                        refcount is not None
                        and refcount(event) == free_refcount
                    ):
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                else:
                    event._dispatch()
            # The drained list is empty: recycle it for the next distinct
            # timestamp (the watched loop skips this, like the object pools).
            bucket_pool.append(bucket)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _run_watched(self, until: Optional[float] = None) -> float:
        """``run()`` with a watchdog attached: dispatches every event
        generically (no inlining, no object pooling) and ticks the watchdog
        every ``check_interval`` events.

        Dispatch *order* is identical to the fast loop — same ready-deque /
        calendar-bucket structure, same died-process check — so observable
        results are byte-identical; only wall-clock speed differs.  Pools
        are never refilled here, which is safe: ``timeout()``/queue draws
        degrade to plain allocation when the pools are empty.
        """
        ready = self._ready
        whens = self._whens
        buckets = self._buckets
        heappop = heapq.heappop
        watchdog = self._watchdog
        interval = watchdog.check_interval
        countdown = interval
        while True:
            while ready:
                countdown -= 1
                if countdown <= 0:
                    countdown = interval
                    watchdog.events_dispatched += interval
                    watchdog.check()
                event = ready.popleft()
                if event.__class__ is tuple:
                    callback, arg = event
                    if arg is _NO_ARG:
                        callback()
                    else:
                        callback(arg)
                    continue
                if (
                    not event._ok
                    and not event.callbacks
                    and event._value is not PENDING
                    and isinstance(event, Process)
                ):
                    raise event._value
                event._dispatch()
            if not whens:
                break
            when = whens[0]
            if until is not None and when > until:
                self._now = until
                return until
            heappop(whens)
            self._now = when
            bucket = buckets.pop(when)
            bucket.reverse()
            while bucket:
                countdown -= 1
                if countdown <= 0:
                    countdown = interval
                    watchdog.events_dispatched += interval
                    watchdog.check()
                event = bucket.pop()
                if event.__class__ is tuple:
                    callback, arg = event
                    if arg is _NO_ARG:
                        callback()
                    else:
                        callback(arg)
                else:
                    event._dispatch()
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator`` and run; returns its value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError("process did not finish before the run ended")
        if not proc.ok:
            raise proc.value
        return proc.value
