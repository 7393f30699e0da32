"""Critical-path extraction and criticality attribution.

The PR 4 tracer answers *where* cycles go (the per-miss-class latency
decomposition); this module answers *which* cycles mattered.  Occupancy off
the critical path is free — a handler can burn thousands of PP cycles under
a read miss that retires long before the barrier the program is actually
waiting on, and speeding it up would change nothing.  Following the
criticality literature (Criticality Aware Multiprocessors, the
phase-priority directory-coherence work — see PAPERS.md), we extract the
one chain of waits that determines end-to-end execution time and attribute
its length by subsystem, miss class, and handler.

The extraction is a **backward walk over recorded wait intervals**, not a
forward DAG traversal: the tracer's raw data
(:attr:`~repro.stats.trace.Tracer.cpu_segments`,
:attr:`~repro.stats.trace.Tracer.retired`, barrier episodes, lock releases)
gives, for every node, a time-ordered list of the intervals in which its
CPU was *not* executing references, plus what ended each wait.  Starting
from the last-finishing node at ``T = execution_time`` the walk repeatedly
asks "what was this node doing just before ``t``?":

* a gap between wait segments is **cpu** work (references + cache busy +
  the uncharged flush/contention slices) — consume it and keep walking;
* a **barrier** wait was ended by the *last arriving* node — jump to that
  node at the release time and continue on its timeline (the classic
  critical-path edge: everyone else's wait was slack);
* a **lock** wait was ended by the previous holder's release — jump to the
  releasing node (cycle-guarded; on a revisit the wait resolves locally);
* a **read/write/sync** stall resolves against the node's own retired
  transactions: the latest-retiring miss overlapping the interval explains
  it, and its per-component / per-handler cycle decomposition is credited
  as *critical* in proportion to the explained span;
* **recv** waits bucket as ``xfer``, open-loop pacing waits as ``idle``.

Every consumed interval is contiguous with the previous one and the walk
only ever moves ``t`` to a recorded float boundary, terminating at exactly
``0.0`` — so the reported path length equals ``execution_time`` **exactly**
(not to rounding): the buckets tile the run.  ``pieces_sum`` (a
``math.fsum`` over the pieces) is the approximate cross-check.

The result is a plain JSON-able dict stored as ``RunResult.critpath`` and
flattened into ``critpath/...`` metric rows; ``harness whatif`` uses the
per-handler ``critical_cycles`` as the predicted speedup from scaling that
handler (Coz-style causal profiling closes the loop by measuring it).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .trace import COMPONENTS, WAIT_KINDS, _hist_bucket

__all__ = ["extract_critical_path", "render_critpath", "BUCKETS"]

#: Top-level wall-time buckets, in presentation order; they tile the run.
BUCKETS = ("cpu", "read", "write", "sync", "xfer", "idle")

#: Wait-segment kind -> bucket for segments resolved on the local timeline.
_KIND_BUCKET = {"r": "read", "w": "write", "b": "sync", "l": "sync",
                "u": "sync", "v": "xfer", "i": "idle"}

#: Number of handlers named in the "top causal levers" footer.
TOP_LEVERS = 3


class _Walk:
    """Mutable state of one backward walk (split out for testability)."""

    def __init__(self, tracer, execution_time: float):
        self.tracer = tracer
        self.T = execution_time
        self.pieces: List[float] = []
        self.buckets = {b: 0.0 for b in BUCKETS}
        self.classes: Dict[str, float] = {}
        self.residual = {"read": 0.0, "write": 0.0, "sync": 0.0}
        self.components: Dict[str, float] = {}
        self.handler_critical: Dict[str, float] = {}
        self.handler_txns: Dict[str, int] = {}
        self.jumps = {"barrier": 0, "lock": 0, "fallback": 0}
        self._credited: set = set()   # (node, index) of credited records
        # Per-node column stores, read in place: the walk bisects on their
        # retire-time and segment-end columns.
        self.segs = tracer.cpu_segments
        self.recs = tracer.retired
        self.episodes = {(bid, rel): last
                         for rel, last, bid in tracer.barrier_episodes}
        self.releases = {lock: ([t for t, _ in evs], [n for _, n in evs])
                         for lock, evs in tracer.lock_releases.items()}

    # -- pieces -----------------------------------------------------------------

    def _consume(self, bucket: str, duration: float) -> None:
        if duration <= 0.0:
            return
        self.pieces.append(duration)
        self.buckets[bucket] += duration

    # -- transaction resolution ---------------------------------------------------

    def _resolve_txns(self, node: int, t0: float, t1: float,
                      residual: str) -> None:
        """Explain the stall interval ``[t0, t1]`` on ``node`` by the node's
        own retired misses, latest-retiring first; credit their component /
        handler decompositions as critical in proportion to the explained
        span.  Unexplained remainder lands in ``residual[residual]``."""
        self._consume(_KIND_BUCKET_RESIDUAL[residual], t1 - t0)
        recs = self.recs.get(node)
        t = t1
        while t > t0:
            i = -1
            if recs:
                starts = recs.start
                i = bisect_right(recs.retire, t) - 1
                # The latest retire at or before t whose start < t
                # overlaps (.., t].
                while i >= 0 and not starts[i] < t:
                    i -= 1
            if i < 0:
                self.residual[residual] += t - t0
                break
            start = starts[i]
            lo = max(t0, start)
            explained = t - lo
            cls = recs.class_of(i)
            self.classes[cls] = self.classes.get(cls, 0.0) + explained
            duration = recs.retire[i] - start
            frac = min(1.0, explained / duration) if duration > 0.0 else 1.0
            for key, value in zip(COMPONENTS, recs.comp_of(i)):
                if value:
                    self.components[key] = (
                        self.components.get(key, 0.0) + value * frac)
            handlers = recs.handlers_of(i)
            if handlers:
                first = (node, i) not in self._credited
                self._credited.add((node, i))
                for handler, spent in zip(handlers, recs.cycles_of(i)):
                    self.handler_critical[handler] = (
                        self.handler_critical.get(handler, 0.0)
                        + spent * frac)
                    if first:
                        self.handler_txns[handler] = (
                            self.handler_txns.get(handler, 0) + 1)
            t = lo

    # -- the walk ---------------------------------------------------------------

    def run(self, start_node: int) -> float:
        """Walk backward from ``(start_node, T)``; returns the final ``t``
        (exactly ``0.0`` when the path tiles the whole run)."""
        node = start_node
        t = self.T
        visited: set = set()
        while t > 0.0:
            segs = self.segs.get(node)
            if not segs:
                self._consume("cpu", t)
                return 0.0
            i = bisect_right(segs.t1, t) - 1
            if i < 0:
                self._consume("cpu", t)
                return 0.0
            s0, s1, kind, arg = segs[i]
            if s1 < t:
                self._consume("cpu", t - s1)
                t = s1
                continue
            # Segment ends exactly at t: resolve what ended the wait.
            if kind == "b":
                last = self.episodes.get((arg, s1))
                key = (node, "b", arg, s1)
                if last is not None and last != node and key not in visited:
                    visited.add(key)
                    self.jumps["barrier"] += 1
                    node = last
                    continue
                self._resolve_txns(node, s0, s1, "sync")
            elif kind == "l":
                releaser = self._lock_releaser(arg, s1, node)
                key = (node, "l", arg, s1)
                if releaser is not None and key not in visited:
                    visited.add(key)
                    self.jumps["lock"] += 1
                    node = releaser
                    continue
                if releaser is None:
                    self.jumps["fallback"] += 1
                self._resolve_txns(node, s0, s1, "sync")
            elif kind == "u":
                self._resolve_txns(node, s0, s1, "sync")
            elif kind == "r":
                self._resolve_txns(node, s0, s1, "read")
            elif kind == "w":
                self._resolve_txns(node, s0, s1, "write")
            else:   # "v" recv -> xfer, "i" pacing -> idle
                self._consume(_KIND_BUCKET[kind], s1 - s0)
            t = s0
        return t

    def _lock_releaser(self, lock, ts: float, node: int) -> Optional[int]:
        entry = self.releases.get(lock)
        if entry is None:
            return None
        times, nodes = entry
        i = bisect_left(times, ts)
        while i < len(times) and times[i] == ts:
            if nodes[i] != node:
                return nodes[i]
            i += 1
        return None


#: Residual kinds map onto the same top-level buckets.
_KIND_BUCKET_RESIDUAL = {"read": "read", "write": "write", "sync": "sync"}


def extract_critical_path(tracer, execution_time: float,
                          finish_times: Sequence[float]) -> Dict[str, Any]:
    """Extract the run's critical path from the tracer's raw wait data.

    Returns a JSON-able dict: exact ``length`` (== ``execution_time`` by
    construction), the :data:`BUCKETS` tiling, per-miss-class / component /
    handler critical-cycle attributions, per-handler slack histograms, and
    the top causal levers.  ``finish_times`` are the per-node CPU finish
    times (the walk starts at the argmax).
    """
    start_node = max(range(len(finish_times)),
                     key=lambda n: (finish_times[n], -n)) \
        if finish_times else 0
    walk = _Walk(tracer, execution_time)
    t_final = walk.run(start_node)
    length = execution_time - t_final

    handlers: Dict[str, Any] = {}
    totals = tracer.pp_handler_totals
    for handler in sorted(set(totals) | set(walk.handler_critical)):
        critical = walk.handler_critical.get(handler, 0.0)
        handlers[handler] = {
            "critical_cycles": critical,
            "total_cycles": totals.get(handler, 0.0),
            "share": critical / execution_time if execution_time else 0.0,
            "critical_txns": walk.handler_txns.get(handler, 0),
        }
    levers = sorted(
        (h for h, entry in handlers.items() if entry["total_cycles"] > 0.0),
        key=lambda h: (-handlers[h]["critical_cycles"], h))[:TOP_LEVERS]

    return {
        "length": length,
        "start_node": start_node,
        "pieces": len(walk.pieces),
        "pieces_sum": math.fsum(walk.pieces),
        "buckets": walk.buckets,
        "classes": dict(sorted(walk.classes.items())),
        "residual": walk.residual,
        "components": dict(sorted(walk.components.items())),
        "handlers": handlers,
        "levers": levers,
        "slack": _slack_histograms(tracer, execution_time),
        "jumps": walk.jumps,
    }


def _slack_histograms(tracer, execution_time: float) -> Dict[str, Any]:
    """Per-handler slack histograms over *all* retired transactions that
    invoked the handler.  Slack is measured to the retiring node's next
    barrier release (else end of run) — an upper bound on how much later
    the miss could have retired without moving that synchronization point;
    small slack marks the requests the criticality literature would
    prioritize.  Log2 buckets match the tracer's latency histograms."""
    barrier = WAIT_KINDS.index("b")
    barrier_ends: Dict[int, List[float]] = {}
    for node, segs in tracer.cpu_segments.items():
        ends = [t1 for t1, kind in zip(segs.t1, segs.kind) if kind == barrier]
        if ends:
            barrier_ends[node] = ends
    slack: Dict[str, Any] = {}
    for node, recs in tracer.retired.items():
        ends = barrier_ends.get(node)
        seqs = recs.seqs.by_code
        for retire, seq in zip(recs.retire, recs.seq):
            handlers = seqs[seq]
            if not handlers:
                continue
            if ends:
                i = bisect_left(ends, retire)
                horizon = ends[i] if i < len(ends) else execution_time
            else:
                horizon = execution_time
            value = max(0.0, horizon - retire)
            bucket = str(_hist_bucket(value)) if value > 0.0 else "0"
            for handler in handlers:
                entry = slack.get(handler)
                if entry is None:
                    entry = slack[handler] = {"count": 0, "sum": 0.0,
                                              "hist": {}}
                entry["count"] += 1
                entry["sum"] += value
                entry["hist"][bucket] = entry["hist"].get(bucket, 0) + 1
    for entry in slack.values():
        entry["mean"] = entry["sum"] / entry["count"] if entry["count"] else 0.0
        entry["hist"] = dict(sorted(entry["hist"].items(),
                                    key=lambda kv: int(kv[0])))
    return slack


# ---------------------------------------------------------------------------
# Summary rendering (appended to ``trace --summary``)
# ---------------------------------------------------------------------------


def render_critpath(critpath: Dict[str, Any],
                    title: str = "critical path") -> str:
    """Human-readable criticality summary: the bucket tiling, the
    per-handler criticality-share table, and the top-causal-levers footer."""
    length = critpath["length"]
    lines = [title, "=" * len(title)]
    lines.append(
        f"length {length:.0f} cycles (== execution time; {critpath['pieces']}"
        f" pieces, {critpath['jumps']['barrier']} barrier +"
        f" {critpath['jumps']['lock']} lock jumps)")
    total = length or 1.0
    lines.append("")
    header = f"{'bucket':<8} {'cycles':>12} {'share':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for bucket in BUCKETS:
        cycles = critpath["buckets"].get(bucket, 0.0)
        if cycles <= 0.0 and bucket in ("xfer", "idle"):
            continue
        lines.append(f"{bucket:<8} {cycles:>12.0f} {cycles / total:>7.1%}")
    handlers = critpath.get("handlers") or {}
    ranked = sorted(handlers.items(),
                    key=lambda kv: (-kv[1]["critical_cycles"], kv[0]))
    rows = [(h, e) for h, e in ranked
            if e["critical_cycles"] > 0.0 or e["total_cycles"] > 0.0]
    if rows:
        slack = critpath.get("slack") or {}
        lines.append("")
        header = (f"{'handler':<22} {'critical':>10} {'total':>10} "
                  f"{'crit share':>10} {'crit txns':>9} {'mean slack':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        for handler, entry in rows:
            mean_slack = slack.get(handler, {}).get("mean", 0.0)
            lines.append(
                f"{handler:<22} {entry['critical_cycles']:>10.0f} "
                f"{entry['total_cycles']:>10.0f} {entry['share']:>9.1%} "
                f"{entry['critical_txns']:>9} {mean_slack:>10.0f}")
    levers = critpath.get("levers") or []
    lines.append("")
    if levers:
        parts = [f"{h} ({handlers[h]['critical_cycles']:.0f} critical cycles)"
                 for h in levers]
        lines.append(f"top-{len(levers)} causal levers: " + ", ".join(parts))
    else:
        lines.append("top causal levers: none (no PP handler cycles on the"
                     " critical path)")
    return "\n".join(lines)
