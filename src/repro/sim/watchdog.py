"""Stall detection and diagnosis for the simulation kernel.

A wedged simulation fails in one of two ways:

* **Livelock** — the schedule keeps firing events (retries, polling loops,
  ping-ponging messages) but no processor retires another reference.  The
  run loop would spin forever.
* **Deadlock** — a cyclic wait (e.g. two bounded queues whose producers each
  block on the other) drains the event schedule entirely while the workload
  is still incomplete.  ``env.run()`` returns, but the machine never
  finished.

:class:`Watchdog` covers both: attached to an :class:`Environment` it is
ticked by ``run()`` every ``check_interval`` dispatches and checks a
configurable event / virtual-time budget against a caller-supplied
forward-progress counter, and
:meth:`Watchdog.check_complete` turns a drained-but-unfinished run into the
same typed error.  Either path raises :class:`SimStalledError` carrying a
:class:`StallDiagnosis` — per-queue occupancy high-water marks, blocked
process wait edges, and the oldest in-flight message per node — instead of
hanging pytest forever.

There is one run loop, watched or not: the tick is a countdown inside
:meth:`repro.sim.engine.Environment.run` that an unwatched run never
reaches, so a watched run keeps the inlined dispatch and the object pools,
dispatches in exactly the same order, and gives byte-identical results.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .engine import Environment, Event, Process, SimulationError
from .queues import BoundedQueue, CountingResource

__all__ = ["Watchdog", "SimStalledError", "StallDiagnosis", "diagnose",
           "trace_tail"]

#: Default no-progress event budget.  Full app runs dispatch tens of events
#: per memory reference, so two million events without a single reference
#: retiring is far beyond any legitimate protocol excursion.
DEFAULT_EVENT_BUDGET = 2_000_000
#: How many dispatched events between watchdog checks.
DEFAULT_CHECK_INTERVAL = 4096

_NODE_PATTERN = re.compile(r"\[(\d+)\]")


class SimStalledError(SimulationError):
    """The simulation stopped making forward progress (livelock or
    deadlock).  ``diagnosis`` holds the structured machine state."""

    def __init__(self, diagnosis: "StallDiagnosis"):
        self.diagnosis = diagnosis
        super().__init__(diagnosis.render())


@dataclass
class StallDiagnosis:
    """Structured snapshot of a stalled simulation."""

    reason: str
    sim_time: float
    events_dispatched: int
    progress: Optional[int] = None
    #: One entry per registered BoundedQueue/CountingResource: occupancy,
    #: high-water marks, and the names of processes blocked on it.
    queues: List[Dict[str, Any]] = field(default_factory=list)
    #: ``{"process": name, "queue": name, "op": "put"|"get"|"acquire"}`` for
    #: every process blocked on a queue or resource.
    wait_edges: List[Dict[str, str]] = field(default_factory=list)
    #: Per node: the oldest (lowest-uid) message sitting in any of its
    #: queues — usually the transaction the machine is wedged on.
    oldest_messages: List[Dict[str, Any]] = field(default_factory=list)
    #: When the stalled run was traced (``env._tracer`` attached): the
    #: oldest in-flight transactions with their recent span tails.
    trace_tail: List[Dict[str, Any]] = field(default_factory=list)
    artifact_path: Optional[str] = None

    @property
    def offending_queues(self) -> List[str]:
        """Queues implicated in the stall: anything with a blocked process
        or undrained items."""
        names = []
        for entry in self.queues:
            if entry.get("blocked_putters") or entry.get("blocked_getters") \
                    or entry.get("blocked_acquirers") or entry.get("depth"):
                names.append(entry["name"])
        return names

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "sim_time": self.sim_time,
            "events_dispatched": self.events_dispatched,
            "progress": self.progress,
            "queues": self.queues,
            "wait_edges": self.wait_edges,
            "oldest_messages": self.oldest_messages,
            "trace_tail": self.trace_tail,
        }

    def render(self) -> str:
        lines = [
            f"simulation stalled at t={self.sim_time:g} "
            f"after {self.events_dispatched} events: {self.reason}",
        ]
        offending = self.offending_queues
        if offending:
            lines.append("offending queues: " + ", ".join(offending))
        for edge in self.wait_edges:
            lines.append(
                f"  blocked: {edge['process']} waiting to "
                f"{edge['op']} {edge['queue']}")
        for entry in self.oldest_messages:
            lines.append(
                f"  node {entry['node']}: oldest in-flight message "
                f"{entry['message']} (uid={entry['uid']}, in {entry['queue']})")
        for txn in self.trace_tail:
            lines.append(
                f"  traced txn: node {txn['node']} {txn['kind']} "
                f"{txn['line']} (age {txn['age']:g} cycles)")
            for label in txn.get("tail", ()):
                lines.append(f"    {label}")
        if self.artifact_path:
            lines.append(f"  full diagnosis written to {self.artifact_path}")
        return "\n".join(lines)


def _callback_owner_name(callback) -> Optional[str]:
    """Best-effort name for the agent behind a resume callback: a Process's
    name, a state machine's ``name`` attribute (callback core), or — for
    one-shot guard objects like the inbox arbiter — the name behind the
    continuation they schedule."""
    owner = getattr(callback, "__self__", None)
    if owner is None:
        inner = getattr(callback, "callback", None)
        if inner is not None:
            owner = getattr(inner, "__self__", inner)
        else:
            owner = callback
    name = getattr(owner, "name", None)
    return name if isinstance(name, str) and name else None


def _waiter_names(waiters) -> List[str]:
    """Names of the processes/state machines blocked on ``waiters``.

    A waiter deque entry is either a pending :class:`Event` (coroutine form —
    the blocked party's resume sits on its callbacks), a plain callable
    (callback core — the blocked party *is* the continuation), or ``None``
    (a fire-and-forget ``put_drop`` with nobody to name)."""
    names = []
    for waiter in waiters:
        if waiter is None:
            continue
        if isinstance(waiter, Event):
            for callback in waiter.callbacks or ():
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, Process):
                    names.append(owner.name)
                else:
                    name = _callback_owner_name(callback)
                    if name is not None:
                        names.append(name)
        else:
            name = _callback_owner_name(waiter)
            if name is not None:
                names.append(name)
    return names


def _queue_message(item: Any):
    """Extract the protocol message from a queue item (queues carry either
    bare messages or ``(message, ...)`` bundles)."""
    candidate = item[0] if isinstance(item, tuple) and item else item
    return candidate if hasattr(candidate, "uid") else None


def trace_tail(env: Environment, line_addr: Optional[int] = None,
               limit: int = 4) -> List[Dict[str, Any]]:
    """Recent span tails of the oldest in-flight transactions — the same
    view a traced stall attaches to :class:`StallDiagnosis`, reusable by
    any diagnostic (the coherence checker attaches it to
    :class:`~repro.common.errors.CoherenceViolation`).  ``line_addr``
    filters to one line's transactions (falling back to the unfiltered
    tail when none match, so a violation never loses its context); an
    untraced run returns ``[]``."""
    tracer = getattr(env, "_tracer", None)
    if tracer is None:
        return []
    if line_addr is not None:
        matching = tracer.in_flight_tail(limit=limit, line_addr=line_addr)
        if matching:
            return matching
    return tracer.in_flight_tail(limit=limit)


def diagnose(env: Environment, reason: str, events_dispatched: int = 0,
             progress: Optional[int] = None) -> StallDiagnosis:
    """Snapshot every registered queue/resource of ``env`` into a
    :class:`StallDiagnosis`."""
    diagnosis = StallDiagnosis(
        reason=reason, sim_time=env.now,
        events_dispatched=events_dispatched, progress=progress,
    )
    oldest_per_node: Dict[int, Dict[str, Any]] = {}
    for queue in getattr(env, "_queues", ()):
        if isinstance(queue, BoundedQueue):
            putters = _waiter_names(event for event, _item in queue._putters)
            getters = _waiter_names(queue._getters)
            entry = {
                "name": queue.name or repr(queue),
                "kind": "queue",
                "depth": len(queue),
                "capacity": queue.capacity,
                "peak_depth": queue.peak_depth,
                "total_puts": queue.total_puts,
                "full_stalls": queue.full_stalls,
                "blocked_putters": putters,
                "blocked_getters": getters,
            }
            for name, op in ((putters, "put"), (getters, "get")):
                for process_name in name:
                    diagnosis.wait_edges.append(
                        {"process": process_name, "queue": entry["name"],
                         "op": op})
            match = _NODE_PATTERN.search(queue.name or "")
            if match is not None:
                node = int(match.group(1))
                for item in queue._items:
                    message = _queue_message(item)
                    if message is None:
                        continue
                    seen = oldest_per_node.get(node)
                    if seen is None or message.uid < seen["uid"]:
                        oldest_per_node[node] = {
                            "node": node, "queue": entry["name"],
                            "uid": message.uid, "message": repr(message),
                        }
        elif isinstance(queue, CountingResource):
            acquirers = _waiter_names(queue._waiters)
            entry = {
                "name": queue.name or repr(queue),
                "kind": "resource",
                "in_use": queue.in_use,
                "count": queue.count,
                "peak_in_use": queue.peak_in_use,
                "acquire_stalls": queue.acquire_stalls,
                "blocked_acquirers": acquirers,
            }
            for process_name in acquirers:
                diagnosis.wait_edges.append(
                    {"process": process_name, "queue": entry["name"],
                     "op": "acquire"})
        else:  # pragma: no cover - future queue kinds
            continue
        diagnosis.queues.append(entry)
    diagnosis.oldest_messages = [
        oldest_per_node[node] for node in sorted(oldest_per_node)
    ]
    tracer = getattr(env, "_tracer", None)
    if tracer is not None:
        diagnosis.trace_tail = tracer.in_flight_tail()
    return diagnosis


class Watchdog:
    """No-forward-progress detector for one :class:`Environment`.

    Parameters
    ----------
    event_budget:
        Raise after this many dispatched events without progress (None
        disables the event budget).
    time_budget:
        Raise after this many simulated cycles without progress (None
        disables the virtual-time budget).
    check_interval:
        Dispatched events between checks; smaller catches stalls sooner at
        slightly more overhead.
    progress_fn:
        Zero-argument callable returning a monotonically-increasing counter
        (e.g. total references retired).  Any change resets both budgets.
        With no ``progress_fn`` the budgets are absolute run limits.
    stall_dir:
        Directory for the JSON stall-diagnosis artifact (defaults to the
        ``REPRO_STALL_DIR`` environment variable; unset means no artifact).

    Constructing a watchdog attaches it to the environment: subsequent
    ``env.run()`` calls use the instrumented (order-identical) loop.
    """

    def __init__(
        self,
        env: Environment,
        event_budget: Optional[int] = DEFAULT_EVENT_BUDGET,
        time_budget: Optional[float] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        progress_fn: Optional[Callable[[], int]] = None,
        stall_dir: Optional[str] = None,
    ):
        if event_budget is not None and event_budget < 1:
            raise SimulationError(f"event_budget must be >= 1, got {event_budget}")
        if time_budget is not None and time_budget <= 0:
            raise SimulationError(f"time_budget must be > 0, got {time_budget}")
        self.env = env
        self.event_budget = event_budget
        self.time_budget = time_budget
        self.check_interval = max(1, int(check_interval))
        self.progress_fn = progress_fn
        self.stall_dir = stall_dir
        self._dispatches_at_attach = env.dispatches
        self._last_progress: Optional[int] = None
        self._events_at_progress = 0
        self._time_at_progress = env.now
        env.attach_watchdog(self)

    @property
    def events_dispatched(self) -> int:
        """Events the kernel dispatched since this watchdog attached (read
        from :attr:`Environment.dispatches`, so exact at every tick)."""
        return self.env.dispatches - self._dispatches_at_attach

    def check(self) -> None:
        """Called by the run loop every ``check_interval`` events; raises
        :class:`SimStalledError` when a budget is exhausted without forward
        progress."""
        if self.progress_fn is not None:
            progress = self.progress_fn()
            if progress != self._last_progress:
                self._last_progress = progress
                self._events_at_progress = self.events_dispatched
                self._time_at_progress = self.env.now
                return
        if (
            self.event_budget is not None
            and self.events_dispatched - self._events_at_progress
            >= self.event_budget
        ):
            raise self.stalled(
                f"no forward progress in {self.event_budget} dispatched "
                "events (livelock?)")
        if (
            self.time_budget is not None
            and self.env.now - self._time_at_progress >= self.time_budget
        ):
            raise self.stalled(
                f"no forward progress in {self.time_budget:g} simulated "
                "cycles (livelock?)")

    def check_complete(self, event: Optional[Event],
                       what: str = "the workload") -> None:
        """After ``env.run()`` returns, raise if ``event`` (the completion
        event) never fired: the schedule drained with processes still
        blocked — a deadlock."""
        if event is not None and not event.triggered:
            raise self.stalled(
                f"event schedule drained before {what} completed "
                "(cyclic wait / deadlock)")

    def run(self, until: Optional[float] = None,
            complete: Optional[Event] = None) -> float:
        """Convenience: ``env.run(until)`` followed by
        :meth:`check_complete`."""
        result = self.env.run(until=until)
        self.check_complete(complete)
        return result

    def stalled(self, reason: str) -> SimStalledError:
        """Build the full diagnosis (and artifact, if configured) for a
        detected stall; returns the exception for the caller to raise."""
        diagnosis = diagnose(
            self.env, reason, events_dispatched=self.events_dispatched,
            progress=self._last_progress)
        diagnosis.artifact_path = self._dump(diagnosis)
        return SimStalledError(diagnosis)

    def _dump(self, diagnosis: StallDiagnosis) -> Optional[str]:
        directory = self.stall_dir or os.environ.get("REPRO_STALL_DIR")
        if not directory:
            return None
        try:
            os.makedirs(directory, exist_ok=True)
            base = f"stall-{os.getpid()}"
            path = os.path.join(directory, f"{base}.json")
            suffix = 0
            while os.path.exists(path):
                suffix += 1
                path = os.path.join(directory, f"{base}-{suffix}.json")
            with open(path, "w") as fh:
                json.dump(diagnosis.to_dict(), fh, indent=2, sort_keys=True)
            tracer = getattr(self.env, "_tracer", None)
            if tracer is not None:
                # A traced stall also dumps the Chrome trace next to the
                # diagnosis, so "why is it wedged" opens in a timeline.
                trace_path = path[:-5] + "-trace.json"
                with open(trace_path, "w") as fh:
                    json.dump(tracer.to_trace_events(), fh)
            return path
        except OSError:  # diagnosis must never mask the stall itself
            return None
