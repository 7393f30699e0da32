"""Directory / cache / MSHR cross-state invariant walks.

Two strengths of the same walk over every node's directory entries, cache
tag arrays, and MSHR files:

* :func:`check_invariants` (``strict=False``) — the **quiesce-point** walk,
  run at barrier completions while fire-and-forget traffic (writebacks,
  replacement hints, sharing writebacks, ownership transfers) may still be
  in flight.  It tolerates ``pending`` directory entries and asserts only
  the directions that hold at any handler boundary: at most one modified
  copy per line machine-wide, a modified copy implies dirty-at-home (or a
  pending three-hop), a shared copy implies a recorded sharer (or a
  transient the entry's ``pending``/``dirty`` flags explain), per-entry
  directory consistency, exact link-store accounting, and empty MSHRs
  (every participant fenced before the barrier).
* :func:`check_invariants` (``strict=True``) — the **end-of-run** walk,
  after the event schedule has fully drained.  Everything above, plus: no
  pending or deferred directory state anywhere, and a dirty entry's owner
  must actually hold the line modified.

Violations raise :class:`~repro.common.errors.CoherenceViolation` carrying
a minimal state dump for the offending line and, when the run is traced,
the tracer's recent span tail (see :func:`repro.sim.watchdog.trace_tail`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..caches.setassoc import CacheState
from ..common.errors import CoherenceViolation
from ..sim.watchdog import trace_tail

__all__ = ["check_invariants", "line_dump"]


def line_dump(machine, line_addr: Optional[int],
              home: Optional[int] = None) -> Dict[str, Any]:
    """Minimal machine-readable snapshot of one line's global state: the
    directory entry at its home, every cache's state for the line, and any
    MSHR entries outstanding on it."""
    dump: Dict[str, Any] = {}
    if line_addr is None:
        return dump
    dump["line"] = f"{line_addr:#x}"
    for node in machine.nodes:
        entry = node.directory._entries.get(line_addr)
        if entry is not None:
            dump["home"] = node.node_id
            dump["directory"] = {
                "dirty": entry.dirty, "owner": entry.owner,
                "pending": entry.pending,
                "sharers": node.directory.sharers(line_addr),
                "deferred": len(entry.deferred or ()),
            }
            break
    cache_states = {}
    mshrs = {}
    for node in machine.nodes:
        state = node.cpu.cache.state_of(line_addr)
        if state != CacheState.INVALID:
            cache_states[node.node_id] = state
        entry = node.cpu.mshrs.entries.get(line_addr)
        if entry is not None:
            mshrs[node.node_id] = entry.describe()
    dump["caches"] = cache_states
    if mshrs:
        dump["mshrs"] = mshrs
    return dump


def _violation(machine, reason: str, line_addr: Optional[int] = None,
               extra: Optional[Dict[str, Any]] = None) -> CoherenceViolation:
    dump = line_dump(machine, line_addr)
    if extra:
        dump.update(extra)
    return CoherenceViolation(reason, dump=dump,
                              trace_tail=trace_tail(machine.env, line_addr))


def check_invariants(machine, strict: bool = False,
                     where: str = "quiesce") -> int:
    """Walk the whole machine's coherence state; raise
    :class:`CoherenceViolation` on the first inconsistency.  Returns the
    number of directory entries examined."""
    entries_seen = 0
    # Home side: per-entry consistency, pending/deferred policy, and exact
    # link-store reconciliation (allocated - freed == links live on sharer
    # lists; anything else is a leak the counters would silently absorb).
    for node in machine.nodes:
        directory = node.directory
        live_links = 0
        for line_addr, entry in directory._entries.items():
            entries_seen += 1
            directory.check_invariants(line_addr)
            live_links += len(directory.sharers(line_addr))
            if strict and entry.pending:
                raise _violation(
                    machine, f"[{where}] directory entry still pending after "
                    f"the run drained (home {node.node_id})", line_addr)
            if strict and entry.deferred:
                raise _violation(
                    machine, f"[{where}] {len(entry.deferred)} deferred "
                    f"request(s) orphaned at home {node.node_id}", line_addr)
            if strict and entry.dirty:
                owner_state = machine.nodes[entry.owner].cpu.cache_state_of(
                    line_addr)
                if owner_state != CacheState.DIRTY:
                    raise _violation(
                        machine, f"[{where}] directory says node "
                        f"{entry.owner} owns the line dirty but its cache "
                        f"holds it {owner_state!r}", line_addr)
        links = directory.links
        if links.total_allocated - links.total_freed != links.used:
            raise _violation(
                machine, f"[{where}] link-store counters disagree at node "
                f"{node.node_id}: allocated {links.total_allocated} - freed "
                f"{links.total_freed} != used {links.used}", None,
                extra={"node": node.node_id})
        if links.used != live_links:
            raise _violation(
                machine, f"[{where}] link-store leak at node {node.node_id}: "
                f"{links.used} link(s) allocated but only {live_links} "
                "reachable from sharer lists", None,
                extra={"node": node.node_id,
                       "allocated": links.total_allocated,
                       "freed": links.total_freed})
    # Cache side: every resident copy must be explicable by its home entry.
    # Index entries once (a line's entry lives only at its home node).
    entry_at: Dict[int, tuple] = {}
    for node in machine.nodes:
        for line_addr, entry in node.directory._entries.items():
            entry_at[line_addr] = (node.node_id, entry, node.directory)
    modified_holder: Dict[int, int] = {}
    for node in machine.nodes:
        for line_addr, state in node.cpu.cache.resident_lines():
            located = entry_at.get(line_addr)
            if located is None:
                raise _violation(
                    machine, f"[{where}] node {node.node_id} caches a line "
                    "no directory has ever seen", line_addr)
            home, entry, directory = located
            if state == CacheState.DIRTY:
                other = modified_holder.get(line_addr)
                if other is not None:
                    raise _violation(
                        machine, f"[{where}] two modified copies: nodes "
                        f"{other} and {node.node_id} (SWMR broken)", line_addr)
                modified_holder[line_addr] = node.node_id
                owned_here = entry.dirty and entry.owner == node.node_id
                if not owned_here and not (entry.pending and not strict):
                    raise _violation(
                        machine, f"[{where}] node {node.node_id} holds the "
                        f"line modified but home {home} records dirty="
                        f"{entry.dirty} owner={entry.owner}", line_addr)
            elif state == CacheState.SHARED:
                recorded = node.node_id in directory.sharers(line_addr)
                excused = not strict and (entry.pending or entry.dirty)
                if not recorded and not excused:
                    raise _violation(
                        machine, f"[{where}] node {node.node_id} holds a "
                        f"shared copy that home {home} does not record "
                        "(sharer list not a superset)", line_addr)
    # MSHR side: at a barrier every participant has fenced; after a drained
    # run every miss has retired.  Either way nothing may be outstanding.
    for node in machine.nodes:
        for line_addr, entry in node.cpu.mshrs.entries.items():
            raise _violation(
                machine, f"[{where}] node {node.node_id} still has an MSHR "
                "outstanding", line_addr,
                extra={"mshr": entry.describe()})
    return entries_seen
