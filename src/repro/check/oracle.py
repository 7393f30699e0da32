"""SWMR + per-location sequential-consistency oracle.

The simulator is data-less — caches track states, not contents — so the
oracle runs a *shadow value model* beside the protocol: every performed
write mints a fresh per-line version token (monotone in perform order, so a
token pins exactly which write a read observed), and the oracle propagates
tokens along the same paths the protocol claims data moves:

* ``mem[line]`` — the version the home memory holds,
* ``copy[(node, line)]`` — the version a processor cache holds,
* ``msgval[uid]`` — the version carried by an in-flight data reply,

stamped from the protocol engine's returned :class:`Action` lists (the
semantic layer every controller and cost backend shares) and
consumed by the processor-interface hooks the CPU exposes.

On top of the propagation the oracle asserts, at every retiring access:

* **per-location SC** — the versions each processor observes for a line
  never go backwards (a legal total order per line exists iff every
  processor's observation sequence is a monotone walk of the perform
  order, given SWMR below);
* **SWMR** — at the instant a write performs, no other cache holds the
  line in any valid state (all invalidation acks are collected before an
  exclusive grant is delivered, so a surviving copy is a protocol bug);
* **no conflicting fill** — a shared (PUT) fill while another cache holds
  the line modified means the home replied with stale memory data.

Attaching the oracle is free when unused: every hook sits behind an
``is None`` test on attributes that default to ``None``, and checked runs
are timing-identical to unchecked ones (the oracle only observes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..caches.setassoc import CacheState
from ..common.errors import CoherenceViolation
from ..protocol.coherence import Action, Handler
from ..protocol.messages import MessageType as MT
from ..sim.watchdog import trace_tail
from .invariants import check_invariants, line_dump

__all__ = ["CoherenceOracle"]

#: Reply types that grant exclusive ownership.
_EXCLUSIVE_REPLIES = (MT.PUTX, MT.UPGRADE_ACK)


class CoherenceOracle:
    """Shadow value model + consistency checks for one machine."""

    def __init__(self, machine):
        self.machine = machine
        #: line -> version held by home memory (absent = initial, version 0).
        self.mem: Dict[int, int] = {}
        #: (node, line) -> version that node's cache holds.
        self.copy: Dict[Tuple[int, int], int] = {}
        #: message uid -> version an in-flight data reply carries.
        self.msgval: Dict[int, int] = {}
        #: (node, line) -> version stashed when a protocol invalidation
        #: popped the copy inside a handler, before the handler's actions
        #: (which tell us where the data went) are visible.
        self._invalidated: Dict[Tuple[int, int], int] = {}
        #: (node, line) -> version of the most recent fill (reads that
        #: consumed a fill whose line did not stay resident observe this).
        self.last_fill: Dict[Tuple[int, int], int] = {}
        #: (node, line) -> count of writes queued behind an outstanding
        #: miss; they perform, minting versions, at the exclusive fill.
        self.queued: Dict[Tuple[int, int], int] = {}
        #: (node, line) -> last version observed there (monotonicity).
        self.last_read: Dict[Tuple[int, int], int] = {}
        #: line -> perform-order version counter.
        self.seq: Dict[int, int] = {}
        #: (line, version) -> writer node, for violation dumps.
        self.writer_of: Dict[Tuple[int, int], int] = {}
        self.checked_ops = 0
        self.quiesce_checks = 0

    # -- wiring ------------------------------------------------------------------

    def attach(self, machine) -> None:
        """Hook every node's engine and CPU, and wrap the barrier so each
        completed episode runs the quiesce-point invariant walk."""
        for node in machine.nodes:
            node.engine.checker = self
            cpu = node.cpu
            cpu.oracle = self
            cpu._loop_cb = cpu._loop_checked
        sync = machine.sync
        inner_barrier = sync.barrier
        oracle = self

        def barrier_checked(barrier_id, participants=0):
            before = sync.barrier_episodes
            event = inner_barrier(barrier_id, participants)
            if sync.barrier_episodes > before:
                oracle.on_quiesce()
            return event

        sync.barrier = barrier_checked

    # -- violation plumbing ------------------------------------------------------

    def _fail(self, reason: str, line: Optional[int] = None,
              extra: Optional[dict] = None) -> None:
        dump = line_dump(self.machine, line)
        if line is not None:
            dump["shadow"] = self.describe_line(line)
        if extra:
            dump.update(extra)
        raise CoherenceViolation(
            reason, dump=dump,
            trace_tail=trace_tail(self.machine.env, line))

    def describe_line(self, line: int) -> dict:
        """Shadow state of one line, for dumps."""
        return {
            "mem": self.mem.get(line, 0),
            "copies": {n: v for (n, l), v in self.copy.items() if l == line},
            "queued": {n: c for (n, l), c in self.queued.items() if l == line},
            "last_writer": self.writer_of.get((line, self.seq.get(line, 0))),
        }

    # -- write perform -----------------------------------------------------------

    def _perform_write(self, node: int, line: int) -> int:
        version = self.seq.get(line, 0) + 1
        self.seq[line] = version
        self.writer_of[(line, version)] = node
        self.copy[(node, line)] = version
        self.checked_ops += 1
        return version

    def _assert_swmr(self, node: int, line: int, what: str) -> None:
        for other in self.machine.nodes:
            if other.node_id == node:
                continue
            state = other.cpu.cache.state_of(line)
            if state != CacheState.INVALID:
                self._fail(
                    f"SWMR violated at {what}: node {node} performs a write "
                    f"while node {other.node_id} still holds the line "
                    f"{state!r}", line,
                    extra={"writer": node, "survivor": other.node_id})

    # -- CPU-side hooks (retiring references) ------------------------------------

    def on_read(self, node: int, line: int) -> None:
        """A read retired at ``node``; pin and order the version it saw."""
        key = (node, line)
        version = self.copy.get(key)
        if version is None:
            version = self.last_fill.get(key, 0)
        prior = self.last_read.get(key)
        if prior is not None and version < prior:
            self._fail(
                f"per-location SC violated: node {node} read version "
                f"{version} (written by node "
                f"{self.writer_of.get((line, version), 'init')}) after "
                f"having observed version {prior}", line,
                extra={"reader": node, "saw": version, "had_seen": prior})
        self.last_read[key] = version
        self.checked_ops += 1

    def on_write_hit(self, node: int, line: int) -> None:
        """A write retired against a modified line: performs immediately."""
        self._assert_swmr(node, line, "a write hit on an exclusive line")
        version = self._perform_write(node, line)
        self.last_read[(node, line)] = version

    def on_write_queued(self, node: int, line: int) -> None:
        """A write missed (or merged into an outstanding miss): it performs
        when the exclusive fill arrives."""
        key = (node, line)
        self.queued[key] = self.queued.get(key, 0) + 1

    def on_fill(self, node: int, message, entry, shared: bool) -> None:
        """A reply crossed the processor bus at ``node``.  Consume the
        carried version, install the copy, and perform any queued writes
        when the grant is exclusive."""
        line = message.line_addr
        key = (node, line)
        version = self.msgval.pop(message.uid, None)
        if version is None:
            # An UPGRADE_ACK carries no data: the requester's existing copy
            # (or, degenerately, memory) is what it writes over.
            version = self.copy.get(key, self.mem.get(line, 0))
        self.last_fill[key] = version
        if shared:
            # A shared fill while someone holds the line modified means the
            # home replied around a dirty owner (stale data).
            for other in self.machine.nodes:
                if other.node_id == node:
                    continue
                if other.cpu.cache.state_of(line) == CacheState.DIRTY:
                    self._fail(
                        f"stale shared fill: node {node} received a PUT for "
                        f"a line node {other.node_id} holds modified", line,
                        extra={"reader": node, "owner": other.node_id})
            if entry.invalidate_on_fill:
                self.copy.pop(key, None)
            else:
                self.copy[key] = version
            return
        # Exclusive fill: all invalidation acks are in, so nobody else may
        # hold a copy; then the queued writes perform in program order.
        self._assert_swmr(node, line, "an exclusive fill")
        self.copy[key] = version
        pending = self.queued.pop(key, 0)
        if entry.needs_upgrade and message.mtype == MT.PUT:
            # Cannot happen (shared fills return above); defensive.
            pending = 0
        last = version
        for _ in range(pending):
            last = self._perform_write(node, line)
        if pending:
            self.last_read[key] = last
            # Reads merged into this miss observe the line *after* the
            # queued writes applied; the copy can be invalidated again (a
            # same-cycle replay at the home) before their wake callbacks
            # run, so the fill record must carry the post-write version.
            self.last_fill[key] = last
        if entry.invalidate_on_fill:
            self.copy.pop(key, None)

    def on_invalidate(self, node: int, line: int, prior: str) -> None:
        """A protocol invalidation popped ``node``'s copy; stash the version
        so the handler's actions can route it (a GETX against a dirty line
        forwards the invalidated copy to the new owner)."""
        version = self.copy.pop((node, line), None)
        if version is not None:
            self._invalidated[(node, line)] = version

    def on_evict(self, node: int, line: int, mtype: str, message) -> None:
        """The CPU evicted a line: a dirty victim's version rides the
        WRITEBACK home; a clean victim just drops its copy."""
        version = self.copy.pop((node, line), None)
        if mtype == MT.WRITEBACK and version is not None:
            self.msgval[message.uid] = version

    # -- quiesce points ----------------------------------------------------------

    def on_quiesce(self) -> None:
        """Barrier completed with every participant fenced: run the
        pending-tolerant invariant walk."""
        self.quiesce_checks += 1
        check_invariants(self.machine, strict=False, where="quiesce")

    # -- engine-side hook (value propagation along handler actions) --------------

    def on_actions(self, engine, actions: List[Action]) -> None:
        for action in actions:
            if action.checked:
                continue  # already stamped eagerly by a replay cascade
            action.checked = True
            stamp = _STAMPS.get(action.handler)
            if stamp is not None:
                stamp(self, engine, action)

    # -- per-handler stamping ----------------------------------------------------

    def _reply_of(self, engine, action: Action, line: int):
        """The data/grant reply an exclusive-granting home handler
        produced: delivered locally, sent remotely, or parked in the
        engine's pending-write table until the acks arrive."""
        if action.cpu_deliver is not None:
            return action.cpu_deliver
        for message in action.sends:
            if message.mtype in _EXCLUSIVE_REPLIES or message.mtype == MT.PUT:
                return message
        pending = engine._pending_writes.get(line)
        if pending is not None:
            return pending.reply
        return None

    def _stamp(self, message, version: int) -> None:
        if message is not None:
            self.msgval[message.uid] = version

    def _get_home_clean(self, engine, action: Action) -> None:
        line = action.message.line_addr
        self._stamp(self._reply_of(engine, action, line),
                    self.mem.get(line, 0))

    def _get_home_dirty_local(self, engine, action: Action) -> None:
        # Home's own cache was downgraded (copy survives); memory absorbs.
        line = action.message.line_addr
        version = self.copy.get((engine.node_id, line), self.mem.get(line, 0))
        self.mem[line] = version
        self._stamp(self._reply_of(engine, action, line), version)

    def _getx_home_dirty_local(self, engine, action: Action) -> None:
        # Home's own cache was invalidated inside the handler; the stash
        # holds the version, memory absorbs it, the new owner receives it.
        line = action.message.line_addr
        version = self._invalidated.pop((engine.node_id, line), None)
        if version is None:
            version = self.mem.get(line, 0)
        self.mem[line] = version
        self._stamp(self._reply_of(engine, action, line), version)

    def _getx_home_clean(self, engine, action: Action) -> None:
        line = action.message.line_addr
        self._stamp(self._reply_of(engine, action, line),
                    self.mem.get(line, 0))

    def _get_owner(self, engine, action: Action) -> None:
        # Forwarded GET at the owner: NAK if the line left; otherwise the
        # downgraded copy rides both the sharing writeback and the reply.
        if action.sends and action.sends[0].mtype == MT.NAK:
            return
        line = action.message.line_addr
        version = self.copy.get((engine.node_id, line), self.mem.get(line, 0))
        for message in action.sends:
            self._stamp(message, version)

    def _getx_owner(self, engine, action: Action) -> None:
        if action.sends and action.sends[0].mtype == MT.NAK:
            return
        line = action.message.line_addr
        version = self._invalidated.pop((engine.node_id, line), None)
        if version is None:
            version = self.mem.get(line, 0)
        for message in action.sends:
            if message.mtype == MT.PUTX:
                self._stamp(message, version)

    def _absorb_writeback(self, engine, action: Action) -> None:
        line = action.message.line_addr
        version = self.msgval.pop(action.message.uid, None)
        if version is not None:
            self.mem[line] = version

    def _forward_writeback(self, engine, action: Action) -> None:
        # Requester-side relay of a WRITEBACK/hint to a remote home: the
        # version moves from the incoming to the outgoing message.
        version = self.msgval.pop(action.message.uid, None)
        if version is not None and action.sends:
            self.msgval[action.sends[0].uid] = version


_STAMPS = {
    Handler.GET_HOME_CLEAN: CoherenceOracle._get_home_clean,
    Handler.GET_HOME_DIRTY_LOCAL: CoherenceOracle._get_home_dirty_local,
    Handler.GETX_HOME_DIRTY_LOCAL: CoherenceOracle._getx_home_dirty_local,
    Handler.GETX_HOME_CLEAN: CoherenceOracle._getx_home_clean,
    Handler.GET_OWNER: CoherenceOracle._get_owner,
    Handler.GETX_OWNER: CoherenceOracle._getx_owner,
    Handler.SHARING_WB: CoherenceOracle._absorb_writeback,
    Handler.WRITEBACK_LOCAL: CoherenceOracle._absorb_writeback,
    Handler.WRITEBACK_REMOTE: CoherenceOracle._absorb_writeback,
    Handler.WRITEBACK_FORWARD: CoherenceOracle._forward_writeback,
}
