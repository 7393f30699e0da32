"""Transaction-level tracing and latency decomposition.

The paper's central quantities — PP occupancy, memory occupancy, network
latency (Tables 4.1/4.2, the Section 4.3 hot-spot study) — are end-of-run
aggregates.  :class:`Tracer` records *where inside each miss* that time went:
every component hooks the tracer with a ``tracer is None``-gated call, so a
traced run produces per-transaction lifecycle spans (issue → inbox → queue
wait → PP handler → memory → outbox → network hops → retire) and an untraced
run executes exactly the seed code path (the golden-hash matrix stays
byte-identical).

Three consumers sit on top:

* **Latency decomposition** — per read-miss-class (and write) sums of the
  queue-wait / PP / memory / network cycles charged to each transaction,
  with log2 latency histograms.  Component totals mirror the aggregate
  counters exactly: every ``stats.pp_busy +=`` site emits a matching
  ``pp_span``, every served memory request a ``memory_span`` of
  ``busy_cycles_per_access``, so the machine-wide sums reconcile with
  ``RunResult.pp_occupancy`` / ``memory_occupancy`` to float rounding.
* **Chrome ``trace_event`` export** — :meth:`Tracer.to_trace_events` emits
  complete ("X") events (pid = node, tid = component) plus counter ("C")
  events from the windowed time series, loadable in ``chrome://tracing`` or
  Perfetto.  Raw message uids never appear in the export (the uid counter is
  process-global, so uids differ between two runs in one process; everything
  exported is a pure function of the run).
* **Stall diagnosis** — :meth:`Tracer.in_flight_tail` summarizes the oldest
  in-flight transactions (with their recent span tails) for the watchdog's
  :class:`~repro.sim.watchdog.StallDiagnosis`.

Transactions are keyed ``(requester, line_addr)``: the MSHR file allows one
outstanding miss per line per node, and every protocol message carries both
fields, so no transaction id needs threading through
:class:`~repro.protocol.messages.Message`.  Span memory is ring-buffer
bounded (``REPRO_TRACE=on`` or ``buf=N,nodes=...,sample=T``); aggregates are
exact regardless of buffer size.  The buffer is a :class:`SpanRing` of
columns, about 34 B per kept span.  The critical-path raw data is stored by
column too and is kept for every miss: a :class:`RetiredMisses` record costs
about 80 B plus 8 B per PP handler, a :class:`WaitSegments` entry about
26 B.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..protocol.coherence import MissClass

__all__ = [
    "Tracer", "parse_trace_spec", "validate_trace_events",
    "render_decomposition", "COMPONENTS", "DEFAULT_BUFFER_SPANS",
    "WAIT_KINDS", "WaitSegments", "RetiredMisses", "Interner", "SpanRing",
]

#: Latency components, in presentation order.
COMPONENTS = ("queue", "pp", "memory", "network")

#: Default ring-buffer capacity (spans); aggregates are unaffected by it.
DEFAULT_BUFFER_SPANS = 200_000

#: Decomposition rows beyond the read-miss classes.
WRITE_CLASS = "write"

#: Chrome trace_event tids per node (one "thread" per pipeline stage).
_TRACK_IDS = {
    "cpu": 0, "inbox": 1, "pp": 2, "memory": 3, "net": 4, "pi": 5,
}

#: Recent span labels kept per in-flight transaction for stall diagnosis.
_TAIL_SPANS = 6


def parse_trace_spec(raw: Optional[str]):
    """Parse a ``REPRO_TRACE``-style value: unset/off-ish disables (None);
    ``on`` uses defaults; otherwise ``buf=N,nodes=0+3,sample=T`` tunes the
    ring buffer, the span node filter (``+``-separated ids or ``a-b``
    ranges), and the time-series sampling interval (cycles)."""
    if raw is None:
        return None
    raw = raw.strip().lower()
    if raw in ("", "0", "off", "no", "false"):
        return None
    if raw in ("1", "on", "yes", "true", "default"):
        return {"buf": DEFAULT_BUFFER_SPANS, "nodes": None, "sample": None}
    spec: Dict[str, Any] = {"buf": DEFAULT_BUFFER_SPANS, "nodes": None,
                            "sample": None}
    for part in raw.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "buf":
            spec["buf"] = int(value)
        elif key == "nodes":
            spec["nodes"] = parse_nodes(value)
        elif key == "sample":
            spec["sample"] = float(value)
        else:
            raise ValueError(
                f"REPRO_TRACE: unknown key {key!r} "
                "(expected buf, nodes, sample)")
    return spec


def parse_nodes(text: str) -> List[int]:
    """``"0+3+7"`` or ``"0-3"`` (inclusive range) -> sorted node ids."""
    nodes = set()
    for token in text.split("+"):
        token = token.strip()
        if not token:
            continue
        lo, dash, hi = token.partition("-")
        if dash:
            nodes.update(range(int(lo), int(hi) + 1))
        else:
            nodes.add(int(token))
    if not nodes:
        raise ValueError(f"REPRO_TRACE: empty node filter {text!r}")
    return sorted(nodes)


class Interner(dict):
    """Small-int codes for the values a run repeats (span labels, miss
    classes, handler sequences): ``interner[value]`` numbers each distinct
    value on first sight, ``interner.by_code[code]`` reads it back.  The
    lookup is a plain dict subscript; only a new value reaches Python."""

    __slots__ = ("by_code",)

    def __init__(self):
        super().__init__()
        self.by_code: List[Any] = []

    def __missing__(self, value) -> int:
        code = self[value] = len(self.by_code)
        self.by_code.append(value)
        return code


class SpanRing:
    """The span buffer: ``(t0, dur, node, track, name, (mtype, line,
    requester))`` tuples, oldest first, stored by column.

    ``t0``, ``dur`` and the line address sit in 8-byte ``array`` columns,
    node and requester in ``array('h')`` columns (-1 for a None
    requester).  A run draws ``(track, name, mtype)`` from a few hundred
    combinations, so each span keeps one ``array('I')`` code into an
    :class:`Interner` of them.  A buffered span costs about 34 B.  The
    columns grow on demand up to ``maxlen`` (falsy: unbounded) and are
    never preallocated; once full, each append overwrites the oldest span
    and counts it in ``dropped``.  Iteration rebuilds the tuples, so the
    ring reads like a ``deque(maxlen=maxlen)`` of them (timestamps come
    back as floats).
    """

    __slots__ = ("maxlen", "dropped", "_head", "_t0", "_dur", "_line",
                 "_node", "_requester", "_label", "_labels")

    def __init__(self, maxlen: Optional[int] = None):
        self.maxlen = maxlen or None
        self.dropped = 0
        self._head = 0          # slot of the oldest span once the ring is full
        self._t0 = array("d")
        self._dur = array("d")
        self._line = array("q")
        self._node = array("h")
        self._requester = array("h")
        self._label = array("I")
        self._labels = Interner()

    def __len__(self) -> int:
        return len(self._t0)

    def append(self, t0: float, dur: float, node: int, track: str, name: str,
               mtype: Optional[str], line: int,
               requester: Optional[int]) -> None:
        label = self._labels[track, name, mtype]
        if requester is None:
            requester = -1
        t0s = self._t0
        if len(t0s) != self.maxlen:
            t0s.append(t0)
            self._dur.append(dur)
            self._line.append(line)
            self._node.append(node)
            self._requester.append(requester)
            self._label.append(label)
            return
        i = self._head
        t0s[i] = t0
        self._dur[i] = dur
        self._line[i] = line
        self._node[i] = node
        self._requester[i] = requester
        self._label[i] = label
        i += 1
        self._head = 0 if i == self.maxlen else i
        self.dropped += 1

    def __iter__(self) -> Iterator[Tuple]:
        t0s, durs, lines = self._t0, self._dur, self._line
        nodes, requesters, codes = self._node, self._requester, self._label
        labels = self._labels.by_code
        head = self._head
        for i in chain(range(head, len(t0s)), range(head)):
            track, name, mtype = labels[codes[i]]
            requester = requesters[i]
            yield (t0s[i], durs[i], nodes[i], track, name,
                   (mtype, lines[i], None if requester < 0 else requester))


#: CPU wait-segment kinds, in code order: "r" read stall, "w" write stall
#: or fence, "b" barrier, "l"/"u" lock/unlock, "v" recv, "i" pacing idle.
WAIT_KINDS = ("r", "w", "b", "l", "u", "v", "i")
_WAIT_CODES = {kind: code for code, kind in enumerate(WAIT_KINDS)}


class WaitSegments:
    """One node's CPU wait segments ``(t0, t1, kind, arg)``, in end-time
    order, stored by column: the bounds in ``array('d')`` columns, the kind
    as a one-byte index into :data:`WAIT_KINDS`, and ``arg`` (the barrier,
    lock or transfer id; None for stalls) as a reference, about 26 B per
    segment.  Indexing rebuilds the tuples."""

    __slots__ = ("t0", "t1", "kind", "arg")

    def __init__(self):
        self.t0 = array("d")
        self.t1 = array("d")
        self.kind = array("b")
        self.arg: List[Any] = []

    def __len__(self) -> int:
        return len(self.t1)

    def append(self, t0: float, t1: float, kind: str, arg=None) -> None:
        self.t0.append(t0)
        self.t1.append(t1)
        self.kind.append(_WAIT_CODES[kind])
        self.arg.append(arg)

    def __getitem__(self, i: int) -> Tuple:
        return (self.t0[i], self.t1[i], WAIT_KINDS[self.kind[i]], self.arg[i])


class RetiredMisses:
    """One node's retired-miss records ``(retire, start, line, cls,
    is_write, comp, handlers, handler_cycles)``, in retire-time order,
    stored by column.

    Retire and start times sit in ``array('d')``, the line in
    ``array('q')``, and ``comp`` (component cycles in :data:`COMPONENTS`
    order) four to a record in one ``array('d')``.  The miss class and the
    handler sequence (the handlers that charged PP cycles, in first-charge
    order) are codes into :class:`Interner` tables the tracer shares across
    nodes; each record's handler cycles sit in one flat ``array('d')``
    between ``offsets[i]`` and ``offsets[i + 1]``.  A record costs about
    80 B plus 8 B per handler.  Indexing rebuilds the tuples.
    """

    __slots__ = ("retire", "start", "line", "cls", "is_write", "comp", "seq",
                 "cycles", "offsets", "classes", "seqs")

    def __init__(self, classes: Interner, seqs: Interner):
        self.retire = array("d")
        self.start = array("d")
        self.line = array("q")
        self.cls = array("B")
        self.is_write = array("b")
        self.comp = array("d")
        self.seq = array("I")
        self.cycles = array("d")
        self.offsets = array("I", (0,))
        self.classes = classes
        self.seqs = seqs

    def __len__(self) -> int:
        return len(self.retire)

    def append(self, retire: float, start: float, line: int, cls: str,
               is_write: bool, comp: Sequence[float],
               handlers: Tuple[str, ...], cycles: Iterable[float]) -> None:
        self.retire.append(retire)
        self.start.append(start)
        self.line.append(line)
        self.cls.append(self.classes[cls])
        self.is_write.append(is_write)
        self.comp.extend(comp)
        self.seq.append(self.seqs[handlers])
        self.cycles.extend(cycles)
        self.offsets.append(len(self.cycles))

    def class_of(self, i: int) -> str:
        return self.classes.by_code[self.cls[i]]

    def comp_of(self, i: int) -> array:
        """Component cycles of record ``i``, in :data:`COMPONENTS` order."""
        return self.comp[4 * i:4 * i + 4]

    def handlers_of(self, i: int) -> Tuple[str, ...]:
        return self.seqs.by_code[self.seq[i]]

    def cycles_of(self, i: int) -> array:
        """Record ``i``'s handler cycles, in :meth:`handlers_of` order."""
        return self.cycles[self.offsets[i]:self.offsets[i + 1]]

    def __getitem__(self, i: int) -> Tuple:
        return (self.retire[i], self.start[i], self.line[i], self.class_of(i),
                bool(self.is_write[i]), tuple(self.comp_of(i)),
                self.handlers_of(i), tuple(self.cycles_of(i)))


class _Txn:
    """One in-flight miss transaction.  Component cycles sit in one slot
    per :data:`COMPONENTS` entry, so the hooks charge them directly."""

    __slots__ = ("node", "line", "is_write", "start", "cls", "queue", "pp",
                 "memory", "network", "tail", "handlers")

    def __init__(self, node: int, line: int, is_write: bool, start: float):
        self.node = node
        self.line = line
        self.is_write = is_write
        self.start = start
        self.cls: Optional[str] = None   # read-miss class, set by the home
        self.queue = self.pp = self.memory = self.network = 0.0
        self.tail: deque = deque(maxlen=_TAIL_SPANS)
        self.handlers: Dict[str, float] = {}   # per-handler PP cycles

    def comp(self) -> Tuple[float, float, float, float]:
        """Component cycles in :data:`COMPONENTS` order."""
        return (self.queue, self.pp, self.memory, self.network)


class _ClassAgg:
    """Aggregate decomposition for one miss class."""

    __slots__ = ("count", "latency", "comp", "hist")

    def __init__(self):
        self.count = 0
        self.latency = 0.0
        self.comp = {c: 0.0 for c in COMPONENTS}
        self.hist: Dict[int, int] = {}   # upper-power-of-two latency buckets


def _hist_bucket(latency: float) -> int:
    n = max(1, int(latency))
    return 1 << (n - 1).bit_length()


class Tracer:
    """Per-run trace collector.  One instance per :class:`~repro.machine.Machine`;
    the machine attaches it to every component (``component.tracer = self``)
    and to ``env._tracer`` for watchdog pickup.

    All hook methods are only ever reached behind a ``tracer is not None``
    check at the call site, so a machine built without a tracer pays nothing.
    The per-message hooks look their transaction up, charge it, extend its
    tail and append to the span ring inline: they run once per pipeline
    stage of every message.
    """

    def __init__(self, buffer_spans: int = DEFAULT_BUFFER_SPANS,
                 nodes: Optional[Iterable[int]] = None,
                 sample_interval: Optional[float] = None):
        self.env = None                     # attached by the Machine
        self.buffer_spans = buffer_spans
        self.node_filter = frozenset(nodes) if nodes is not None else None
        self.sample_interval = sample_interval
        #: Ring buffer of (t0, dur, node, track, name, args) spans.
        self.spans = SpanRing(buffer_spans)
        self._active: Dict[Tuple[int, int], _Txn] = {}
        self._classes: Dict[str, _ClassAgg] = {}
        self._miss_names: Dict[str, str] = {}   # class -> "miss:<class>"
        #: Component cycles charged to transactions no longer (or never)
        #: tracked: transfer handlers, writebacks, evictions, MDC traffic.
        self.untracked = {c: 0.0 for c in COMPONENTS}
        #: Machine-wide component cycles (tracked + untracked + in-flight);
        #: this is what reconciles against the aggregate occupancies.
        self.totals = {c: 0.0 for c in COMPONENTS}
        self.txns_started = 0
        self.txns_retired = 0
        self._pp_enqueue: Dict[int, float] = {}   # message uid -> enqueue ts
        self._pp_taken_early: Set[int] = set()   # dequeued before enqueue
        #: (t, [pp_occ per node], [mem_occ per node], [queue depth per node])
        self.timeseries: List[Tuple] = []
        #: LatencyMonitor (repro.stats.latency), attached by the Machine for
        #: open-loop runs: retiring transactions hand their component
        #: decompositions over so tail exemplars decompose per request.
        self.loadlat = None
        # -- critical-path raw data (repro.stats.critpath) -------------------
        #: Set by Machine._attach_tracer; barrier release = n_procs arrivals.
        self.n_procs = 0
        #: node -> its CPU wait segments (:class:`WaitSegments`), in
        #: end-time order.
        self.cpu_segments: Dict[int, WaitSegments] = {}
        #: node -> its retired-transaction records (:class:`RetiredMisses`),
        #: in retire-time order.
        self.retired: Dict[int, RetiredMisses] = {}
        #: Miss-class and handler-sequence codes, shared by every node's
        #: retired records.
        self._class_codes = Interner()
        self._handler_seqs = Interner()
        self._barrier_arrivals: Dict[Any, List[Tuple[float, int]]] = {}
        #: [(release_t, last_arriving_node, barrier_id)] per completed episode.
        self.barrier_episodes: List[Tuple[float, int, Any]] = []
        #: lock_id -> [(release_t, releasing_node)] in time order.
        self.lock_releases: Dict[Any, List[Tuple[float, int]]] = {}
        #: handler -> machine-wide PP cycles (critical or not).
        self.pp_handler_totals: Dict[str, float] = {}

    @classmethod
    def from_spec(cls, spec) -> "Tracer":
        """Build from ``parse_trace_spec`` output (or ``True`` for defaults)."""
        if spec is True or spec is None:
            return cls()
        return cls(buffer_spans=spec.get("buf", DEFAULT_BUFFER_SPANS),
                   nodes=spec.get("nodes"),
                   sample_interval=spec.get("sample"))

    @property
    def spans_dropped(self) -> int:
        """Spans the ring overwrote (aggregates still count them)."""
        return self.spans.dropped

    # -- transaction lifecycle (CPU side) ---------------------------------------

    def txn_issue(self, node: int, line: int, is_write: bool, ts: float) -> None:
        self.txns_started += 1
        txn = _Txn(node, line, is_write, ts)
        txn.tail.append((ts, None, "issue", node))
        self._active[(node, line)] = txn
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(ts, 0.0, node, "cpu",
                              "issue:GETX" if is_write else "issue:GET",
                              None, line, node)

    def txn_retire(self, node: int, line: int, ts: float) -> None:
        txn = self._active.pop((node, line), None)
        if txn is None:
            return   # e.g. a replayed grant for an already-retired miss
        self.txns_retired += 1
        cls = txn.cls if txn.cls is not None else (
            WRITE_CLASS if txn.is_write else "read_unclassified")
        comp = txn.comp()
        records = self.retired.get(node)
        if records is None:
            records = self.retired[node] = RetiredMisses(
                self._class_codes, self._handler_seqs)
        records.append(ts, txn.start, line, cls, txn.is_write, comp,
                       tuple(txn.handlers), txn.handlers.values())
        agg = self._classes.get(cls)
        if agg is None:
            agg = self._classes[cls] = _ClassAgg()
            self._miss_names[cls] = f"miss:{cls}"
        latency = ts - txn.start
        agg.count += 1
        agg.latency += latency
        bucket = _hist_bucket(latency)
        agg.hist[bucket] = agg.hist.get(bucket, 0) + 1
        totals = agg.comp
        for key, value in zip(COMPONENTS, comp):
            totals[key] += value
        if self.loadlat is not None:
            self.loadlat.txn_components(node, dict(zip(COMPONENTS, comp)))
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(txn.start, latency, node, "cpu",
                              self._miss_names[cls], None, line, node)

    def classify(self, requester: int, line: int, cls: str) -> None:
        """The home classified a read miss (Table 4.1 classes); writes keep
        their own row.  A NAK-replayed request may classify again — the
        latest classification wins, matching what actually served the miss."""
        txn = self._active.get((requester, line))
        if txn is not None and not txn.is_write:
            txn.cls = cls

    # -- CPU wait segments (critical-path raw data) -------------------------------

    def cpu_wait(self, node: int, kind: str, t0: float, t1: float,
                 arg=None) -> None:
        """One CPU wait interval: the node was not executing references in
        [t0, t1].  Recorded at the moment the wait *ends*, so per-node lists
        stay ordered by end time (the critical-path walk bisects on them)."""
        if t1 <= t0:
            return
        segments = self.cpu_segments.get(node)
        if segments is None:
            segments = self.cpu_segments[node] = WaitSegments()
        segments.append(t0, t1, kind, arg)

    def barrier_arrive(self, node: int, bid, ts: float) -> None:
        """A node reached a barrier; the ``n_procs``-th arrival releases it
        at the same timestamp (sense-reversal — see processor/sync.py), so
        that arrival closes the episode."""
        arrivals = self._barrier_arrivals.setdefault(bid, [])
        arrivals.append((ts, node))
        if self.n_procs and len(arrivals) >= self.n_procs:
            self.barrier_episodes.append((ts, node, bid))
            del self._barrier_arrivals[bid]

    def lock_release(self, node: int, lock_id, ts: float) -> None:
        self.lock_releases.setdefault(lock_id, []).append((ts, node))

    # -- MAGIC / ideal controller -------------------------------------------------

    def inbox_span(self, node: int, msg, t0: float, t1: float) -> None:
        requester = msg.requester
        line = msg.line_addr
        mtype = msg.mtype
        txn = self._active.get((requester, line))
        if txn is not None:
            txn.tail.append((t1, "inbox", mtype, node))
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(t0, t1 - t0, node, "inbox", mtype, mtype, line,
                              requester)

    def pp_enqueue(self, uid: int, ts: float) -> None:
        # A put to an idle PP hands the message straight to its waiting
        # get, whose callback (``pp_dequeue``) fires before the put's: the
        # message never waited, so there is nothing to time.
        if uid in self._pp_taken_early:
            self._pp_taken_early.remove(uid)
            return
        self._pp_enqueue[uid] = ts

    def pp_dequeue(self, node: int, msg, ts: float) -> None:
        t0 = self._pp_enqueue.pop(msg.uid, None)
        if t0 is None:
            self._pp_taken_early.add(msg.uid)
            return
        if ts <= t0:
            return
        requester = msg.requester
        line = msg.line_addr
        wait = ts - t0
        self.totals["queue"] += wait
        txn = self._active.get((requester, line))
        if txn is not None:
            txn.queue += wait
            txn.tail.append((ts, "pp", "queue_wait", node))
        else:
            self.untracked["queue"] += wait
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(t0, wait, node, "pp", "queue_wait", msg.mtype,
                              line, requester)

    def pp_span(self, node: int, handler: str, msg, t0: float, t1: float) -> None:
        """Mirrors one ``stats.pp_busy +=`` site exactly."""
        requester = msg.requester
        line = msg.line_addr
        cycles = t1 - t0
        txn = self._active.get((requester, line))
        if cycles > 0.0:
            self.totals["pp"] += cycles
            handler_totals = self.pp_handler_totals
            handler_totals[handler] = handler_totals.get(handler, 0.0) + cycles
            if txn is not None:
                txn.pp += cycles
                handlers = txn.handlers
                handlers[handler] = handlers.get(handler, 0.0) + cycles
            else:
                self.untracked["pp"] += cycles
        if txn is not None:
            txn.tail.append((t1, "pp", handler, node))
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(t0, cycles, node, "pp", handler, msg.mtype,
                              line, requester)

    def pi_out_span(self, node: int, msg, t0: float, t1: float) -> None:
        requester = msg.requester
        line = msg.line_addr
        mtype = msg.mtype
        txn = self._active.get((requester, line))
        if txn is not None:
            txn.tail.append((t1, "pi", mtype, node))
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(t0, t1 - t0, node, "pi", mtype, mtype, line,
                              requester)

    def deferred(self, node: int, msg) -> None:
        ts = self.env._now if self.env is not None else 0.0
        txn = self._active.get((msg.requester, msg.line_addr))
        if txn is not None:
            txn.tail.append((ts, "pp", "deferred", node))
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(ts, 0.0, node, "pp", "deferred", msg.mtype,
                              msg.line_addr, msg.requester)

    # -- memory ------------------------------------------------------------------

    def memory_span(self, node: int, request, t0: float, t1: float,
                    busy: float) -> None:
        """One served request: ``busy`` mirrors the controller's
        ``busy_cycles += busy_cycles_per_access``; time between submit and
        service start is queue wait."""
        ctx = request.trace_ctx
        txn = self._active.get(ctx)
        if busy > 0.0:
            self.totals["memory"] += busy
            if txn is not None:
                txn.memory += busy
            else:
                self.untracked["memory"] += busy
        wait = t0 - request.trace_submit
        if wait > 0.0:
            self.totals["queue"] += wait
            if txn is not None:
                txn.queue += wait
            else:
                self.untracked["queue"] += wait
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(t0, t1 - t0, node, "memory",
                              "read" if request.is_read else "write", None,
                              request.line_addr,
                              ctx[0] if ctx is not None else None)

    # -- network -----------------------------------------------------------------

    def net_span(self, node: int, name: str, msg, t0: float, t1: float,
                 charge: bool = True) -> None:
        requester = msg.requester
        line = msg.line_addr
        cycles = t1 - t0
        txn = self._active.get((requester, line))
        if charge and cycles > 0.0:
            self.totals["network"] += cycles
            if txn is not None:
                txn.network += cycles
            else:
                self.untracked["network"] += cycles
        if txn is not None:
            txn.tail.append((t1, "net", name, node))
        if self.node_filter is None or node in self.node_filter:
            self.spans.append(t0, cycles, node, "net", name, msg.mtype, line,
                              requester)

    # -- time series ---------------------------------------------------------------

    def sample(self, ts: float, pp_occ: Sequence[float],
               mem_occ: Sequence[float], depths: Sequence[int]) -> None:
        self.timeseries.append((ts, list(pp_occ), list(mem_occ), list(depths)))

    # -- outputs -------------------------------------------------------------------

    def decomposition(self) -> Dict[str, Any]:
        """JSON-able latency decomposition: per-class counts, mean latency,
        component sums, log2 histograms, plus the untracked / in-flight
        remainders and machine-wide totals."""
        classes: Dict[str, Any] = {}
        for cls in sorted(self._classes):
            agg = self._classes[cls]
            classes[cls] = {
                "count": agg.count,
                "latency_total": agg.latency,
                "latency_mean": agg.latency / agg.count if agg.count else 0.0,
                "components": {c: agg.comp[c] for c in COMPONENTS},
                "latency_hist": {str(k): v
                                 for k, v in sorted(agg.hist.items())},
            }
        in_flight = {c: 0.0 for c in COMPONENTS}
        for txn in self._active.values():
            for key, value in zip(COMPONENTS, txn.comp()):
                in_flight[key] += value
        return {
            "classes": classes,
            "untracked": dict(self.untracked),
            "in_flight": in_flight,
            "totals": dict(self.totals),
            "txns": {"started": self.txns_started,
                     "retired": self.txns_retired,
                     "in_flight": len(self._active)},
            "spans": {"recorded": len(self.spans),
                      "dropped": self.spans_dropped},
        }

    def in_flight_tail(self, limit: int = 4,
                       line_addr: Optional[int] = None
                       ) -> List[Dict[str, Any]]:
        """The oldest in-flight transactions with their recent span tails —
        attached to :class:`~repro.sim.watchdog.StallDiagnosis` when a traced
        run stalls.  ``line_addr`` keeps only that line's transactions; the
        filter applies before the ``limit`` oldest are taken."""
        now = self.env._now if self.env is not None else 0.0
        txns = self._active.values()
        if line_addr is not None:
            txns = [txn for txn in txns if txn.line == line_addr]
        oldest = sorted(txns, key=lambda t: (t.start, t.node))
        return [
            {
                "node": txn.node,
                "line": f"{txn.line:#x}",
                "kind": "write" if txn.is_write else "read",
                "class": txn.cls,
                "age": now - txn.start,
                "tail": [f"t={ts:g} {name}@node{node}" if track is None
                         else f"t={ts:g} {track}:{name}@node{node}"
                         for ts, track, name, node in txn.tail],
            }
            for txn in oldest[:limit]
        ]

    def to_trace_events(self, categories: Optional[Iterable[str]] = None,
                        nodes: Optional[Iterable[int]] = None
                        ) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON (the ``{"traceEvents": [...]}`` dict
        form): one process per node, one thread per pipeline stage, counter
        tracks from the time series.  Deterministic for a given run — no
        wall-clock, no process-global ids."""
        cat_filter = frozenset(categories) if categories else None
        node_filter = frozenset(nodes) if nodes else None
        events: List[Dict[str, Any]] = []
        seen: set = set()
        for t0, dur, node, track, name, args in self.spans:
            if cat_filter is not None and track not in cat_filter:
                continue
            if node_filter is not None and node not in node_filter:
                continue
            seen.add((node, track))
            event = {
                "name": name, "cat": track, "ph": "X",
                "ts": t0, "dur": dur,
                "pid": node, "tid": _TRACK_IDS[track],
            }
            if args is not None:
                mtype, line, requester = args
                arg_map: Dict[str, Any] = {"line": f"{line:#x}"}
                if mtype is not None:
                    arg_map["type"] = mtype
                if requester is not None:
                    arg_map["requester"] = requester
                event["args"] = arg_map
            events.append(event)
        for ts, pp_occ, mem_occ, depths in self.timeseries:
            for node, value in enumerate(pp_occ):
                if node_filter is not None and node not in node_filter:
                    continue
                events.append({"name": "pp_occupancy", "ph": "C", "ts": ts,
                               "pid": node, "tid": 0,
                               "args": {"busy": value}})
                events.append({"name": "memory_occupancy", "ph": "C",
                               "ts": ts, "pid": node, "tid": 0,
                               "args": {"busy": mem_occ[node]}})
                events.append({"name": "queue_depth", "ph": "C", "ts": ts,
                               "pid": node, "tid": 0,
                               "args": {"depth": depths[node]}})
                seen.add((node, "cpu"))
        metadata: List[Dict[str, Any]] = []
        for node in sorted({node for node, _ in seen}):
            metadata.append({"name": "process_name", "ph": "M", "pid": node,
                             "tid": 0, "args": {"name": f"node {node}"}})
        for node, track in sorted(seen):
            metadata.append({"name": "thread_name", "ph": "M", "pid": node,
                             "tid": _TRACK_IDS[track],
                             "args": {"name": track}})
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ns",
            "otherData": {"generator": "repro.stats.trace",
                          "clock": "10ns system cycles"},
        }


# ---------------------------------------------------------------------------
# trace_event schema validation (CI smoke; keeps the export loadable)
# ---------------------------------------------------------------------------

_VALID_PHASES = frozenset("XBEiICM")


def validate_trace_events(payload: Any) -> int:
    """Validate the dict/JSON form against the Chrome ``trace_event``
    contract this module emits (the subset every viewer accepts).  Returns
    the event count; raises ``ValueError`` on the first violation."""
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("payload must be a dict with a 'traceEvents' list")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where}: bad phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing/non-string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: missing/non-integer {key}")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"{where}: missing/non-numeric ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise ValueError(f"{where}: X event needs dur >= 0")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                raise ValueError(f"{where}: C event needs numeric args")
    return len(events)


# ---------------------------------------------------------------------------
# Summary rendering (``python -m repro.harness trace --summary``)
# ---------------------------------------------------------------------------


def render_decomposition(decomposition: Dict[str, Any],
                         result=None, title: str = "latency decomposition"
                         ) -> str:
    """Per-class latency-decomposition table.  With ``result`` (a
    :class:`~repro.stats.report.RunResult`) appended reconciliation lines
    compare the traced component totals against the run's aggregate PP and
    memory occupancies — they match to float rounding by construction."""
    classes = decomposition["classes"]
    order = [cls for cls in MissClass.ALL if cls in classes]
    order += [cls for cls in sorted(classes) if cls not in order]
    lines = [title, "=" * len(title)]
    header = (f"{'class':<14} {'count':>7} {'avg lat':>9} "
              + " ".join(f"{c:>9}" for c in COMPONENTS))
    lines.append(header)
    lines.append("-" * len(header))
    totals_row = {c: 0.0 for c in COMPONENTS}
    for cls in order:
        entry = classes[cls]
        comp = entry["components"]
        for key in COMPONENTS:
            totals_row[key] += comp[key]
        count = entry["count"] or 1
        lines.append(
            f"{cls:<14} {entry['count']:>7} {entry['latency_mean']:>9.1f} "
            + " ".join(f"{comp[c] / count:>9.1f}" for c in COMPONENTS))
    untracked = decomposition["untracked"]
    in_flight = decomposition["in_flight"]
    lines.append("-" * len(header))
    lines.append(f"{'tracked sum':<14} {'':>7} {'':>9} "
                 + " ".join(f"{totals_row[c]:>9.0f}" for c in COMPONENTS))
    lines.append(f"{'untracked':<14} {'':>7} {'':>9} "
                 + " ".join(f"{untracked[c]:>9.0f}" for c in COMPONENTS))
    if any(in_flight[c] for c in COMPONENTS):
        lines.append(f"{'in flight':<14} {'':>7} {'':>9} "
                     + " ".join(f"{in_flight[c]:>9.0f}" for c in COMPONENTS))
    totals = decomposition["totals"]
    lines.append(f"{'total':<14} {'':>7} {'':>9} "
                 + " ".join(f"{totals[c]:>9.0f}" for c in COMPONENTS))
    txns = decomposition["txns"]
    spans = decomposition["spans"]
    lines.append("")
    lines.append(
        f"transactions: {txns['started']} issued, {txns['retired']} retired, "
        f"{txns['in_flight']} in flight; spans: {spans['recorded']} kept, "
        f"{spans['dropped']} dropped (ring buffer)")
    if result is not None:
        elapsed = result.execution_time
        agg_pp = sum(result.pp_occupancy) * elapsed
        agg_mem = sum(result.memory_occupancy) * elapsed
        lines.append(
            f"reconciliation: PP {totals['pp']:.0f} traced vs "
            f"{agg_pp:.0f} aggregate; memory {totals['memory']:.0f} traced "
            f"vs {agg_mem:.0f} aggregate")
    return "\n".join(lines)
