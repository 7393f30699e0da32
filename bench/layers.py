"""Outside-in host-time attribution for the traced benchmark run.

Each layer is a ``src/repro`` module, and its boundary is its public entry
points.  :class:`Recorder` replaces those methods on their *classes* before
any machine is built, so bound methods that constructors capture (the
simulator prebinds many of its callbacks) are wrapped too.  Every wrapped
call counts one call, charges its duration minus the wrapped calls nested in
it (kept on an online stack) to its layer's self time, and records a span.
:meth:`Recorder.uninstall` puts the original methods back.

What no public entry point reaches (the event-kernel dispatch loop, the CPU
hit loop, the private MAGIC / ideal / network stages) stays in the self time
of ``sim.run``, the layer around ``Environment.run``.  Splitting it needs
spans inside the program, which this module deliberately does not add.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import deque
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "SPAN_BUFFER", "Recorder"]

#: layer -> [(module, class, public methods)].  ``apps.generate`` has no
#: method of its own: the traced run materialises the op streams through
#: :meth:`Recorder.call` so their generation is priced apart from the run.
LAYERS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "machine.build": [("repro.machine", "Machine", ("__init__",))],
    "apps.generate": [],
    "machine.run": [("repro.machine", "Machine", ("run",))],
    "sim.run": [("repro.sim.engine", "Environment", ("run",))],
    "sim.sched": [("repro.sim.engine", "Environment", (
        "call_later", "call_at", "call_soon", "timeout", "event",
        "process"))],
    "sim.queues": [
        ("repro.sim.queues", "BoundedQueue", (
            "put", "put_cb", "put_drop", "try_put", "get", "get_cb")),
        ("repro.sim.queues", "CountingResource", (
            "acquire", "acquire_cb", "release")),
    ],
    "processor": [("repro.processor.cpu", "CPU", (
        "deliver", "external_invalidate", "external_downgrade"))],
    "caches": [
        ("repro.caches.setassoc", "SetAssocCache", (
            "fill", "invalidate", "set_state", "rmw_touch")),
        ("repro.caches.mshr", "MSHRFile", (
            "allocate", "complete", "merge_write")),
    ],
    "magic": [("repro.magic.chip", "MagicChip", (
        "pi_submit", "pi_submit_cb", "pi_submit_drop"))],
    "ideal": [("repro.ideal.controller", "IdealController", (
        "pi_submit", "pi_submit_cb", "pi_submit_drop"))],
    "magic.costmodel": [("repro.magic.costmodel", "TableCostModel",
                         ("cost",))],
    "protocol": [("repro.protocol.coherence", "NodeProtocolEngine", (
        "process", "replay_stable"))],
    "protocol.directory": [("repro.protocol.directory", "Directory", (
        "add_sharer", "remove_sharer", "clear_sharers", "set_dirty",
        "clear_dirty"))],
    "memory": [("repro.memory.controller", "MemoryController", (
        "submit", "submit_cb", "submit_drop"))],
    "network": [("repro.network.mesh", "NetworkPort", (
        "send", "send_cb", "send_drop"))],
    "stats.result": [("repro.stats.report", "RunResult", ("__init__",))],
    "stats.trace": [("repro.stats.trace", "Tracer", (
        "txn_issue", "txn_retire", "classify", "cpu_wait", "barrier_arrive",
        "lock_release", "inbox_span", "pp_enqueue", "pp_dequeue", "pp_span",
        "pi_out_span", "deferred", "memory_span", "net_span", "sample"))],
    "stats.metrics": [
        ("repro.stats.metrics", "Family", ("labels",)),
        ("repro.stats.metrics", "Counter", ("inc",)),
        ("repro.stats.metrics", "Cycles", ("add",)),
        ("repro.stats.metrics", "Log2Histogram", ("observe",)),
    ],
    "check.quiesce": [("repro.machine", "Machine", ("assert_quiesced",))],
}

LAYER_NAMES = tuple(LAYERS)

#: Capacity of the ring of nested spans; outermost spans are always kept.
SPAN_BUFFER = 20_000


class Recorder:
    """Per-layer call counts, self time and a bounded span buffer.

    A span is ``(layer, start, end, span_id, parent_id)`` in
    ``time.perf_counter`` seconds; ``parent_id`` 0 marks an outermost call.
    """

    def __init__(self, buffer_spans: int = SPAN_BUFFER):
        #: layer -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0] for name in LAYER_NAMES}
        self.top: List[Tuple] = []
        self.ring: deque = deque(maxlen=buffer_spans)
        self._frames: List[List[float]] = []    # [child seconds, span id]
        self._ids = itertools.count(1)
        self._saved: List[Tuple[type, str, Callable]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stat = self.stats[layer]
        frames = self._frames
        ids = self._ids
        top = self.top
        ring = self.ring
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            frames.append([0.0, sid])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                frame = frames.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if frames:
                    parent = frames[-1]
                    parent[0] += dur
                    ring.append((layer, t0, t1, sid, parent[1]))
                else:
                    top.append((layer, t0, t1, sid, 0))

        return wrapper

    def call(self, layer: str, fn: Callable, *args):
        """Run ``fn(*args)`` as one call of ``layer``."""
        return self._wrap(layer, fn)(*args)

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def spans_dropped(self) -> int:
        calls = sum(int(stat[0]) for stat in self.stats.values())
        return calls - len(self.top) - len(self.ring)

    def trace_events(self) -> Dict:
        """The span buffer as Chrome ``trace_event`` JSON, in microseconds
        from the earliest span."""
        spans = sorted(self.top + list(self.ring), key=lambda s: (s[1], s[3]))
        origin = spans[0][1] if spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": "simulator host"}}]
        for layer, t0, t1, sid, parent in spans:
            events.append({
                "name": layer, "cat": "layer", "ph": "X",
                "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": 0, "tid": 0, "args": {"id": sid, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"generator": "bench/layers.py",
                              "spans_dropped": self.spans_dropped()}}
