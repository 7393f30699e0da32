"""A migratory-data protocol variant — flexibility in action.

The paper's central argument for MAGIC is that a *programmable* controller
"permits experimentation with new protocols" (Section 1) and that "one can
always exploit the flexibility of MAGIC to implement a coherency protocol
that uses the [machine] more efficiently" (Section 5.2).  This module is
that experiment: a drop-in protocol variant implementing the classic
migratory-sharing optimization (Cox & Fowler / Stenström et al., 1993).

Migratory data — lines that each processor reads and then writes in turn
(MP3D's space cells, locks' protected data) — cost two transactions per
hand-off under the base protocol: a 3-hop GET that downgrades the owner to
SHARED, then an UPGRADE that invalidates it again.  The migratory protocol
*detects* the pattern at the directory and, on the next read miss to such a
line, hands ownership over directly: the forwarded GET invalidates the old
owner and the reply grants the line dirty, eliminating the upgrade entirely.

Detection (per line, at the home):

* a read miss by node A followed by A's upgrade marks one migratory step;
* two consecutive steps by different nodes classify the line migratory;
* a read miss that is *not* followed by an upgrade (a genuinely shared
  read) declassifies it.

Everything else reuses the base engine — the point is precisely that a new
protocol is a small amount of new handler code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..caches.setassoc import CacheState
from .coherence import Action, Handler, NodeProtocolEngine
from .messages import Message, MessageType as MT

__all__ = ["MigratoryProtocolEngine"]


class _LineHistory:
    """Per-line migratory-pattern detector state."""

    __slots__ = ("last_reader", "last_was_promoted", "migratory", "steps",
                 "grants_since_probe")

    def __init__(self) -> None:
        self.last_reader: Optional[int] = None
        self.last_was_promoted = False
        self.migratory = False
        self.steps = 0
        # Exclusive grants hide read-only consumers, so every Nth grant is
        # served as a normal shared read (a *probe*) to re-test the pattern.
        self.grants_since_probe = 0


class MigratoryProtocolEngine(NodeProtocolEngine):
    """Base protocol plus migratory detection and exclusive hand-off."""

    #: serve one shared-read probe per this many exclusive grants
    PROBE_PERIOD = 8

    def __init__(self, *args, probe_period: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._history: Dict[int, _LineHistory] = {}
        self.probe_period = probe_period or self.PROBE_PERIOD
        # Statistics for the flexibility experiment.
        self.migratory_grants = 0      # reads answered with exclusive data
        self.upgrades_saved = 0        # upgrades that never had to happen
        self.declassified = 0          # lines that stopped being migratory
        self.probes = 0                # grants downgraded to shared probes

    # -- pattern detection --------------------------------------------------------

    def _hist(self, line_addr: int) -> _LineHistory:
        history = self._history.get(line_addr)
        if history is None:
            history = _LineHistory()
            self._history[line_addr] = history
        return history

    def _note_read(self, line_addr: int, reader: int) -> None:
        history = self._hist(line_addr)
        if history.last_reader is not None and not history.last_was_promoted:
            # The previous reader never wrote: the line is plainly shared.
            if history.migratory:
                self.declassified += 1
            history.migratory = False
            history.steps = 0
        history.last_reader = reader
        history.last_was_promoted = False

    def _note_promotion(self, line_addr: int, writer: int) -> None:
        """The reader upgraded: one migratory step completes."""
        history = self._hist(line_addr)
        if history.last_reader == writer:
            history.last_was_promoted = True
            history.steps += 1
            if history.steps >= 2:
                history.migratory = True

    # -- overridden transitions --------------------------------------------------------

    def _home_read(self, msg: Message, entry) -> Action:
        line = msg.line_addr
        history = self._hist(line)
        if (
            history.migratory
            and entry.dirty
            and entry.owner != msg.requester
        ):
            if history.grants_since_probe + 1 >= self.probe_period:
                # Probe: serve as a plain shared read so a stopped pattern
                # can be observed and the line declassified.
                history.grants_since_probe = 0
                self.probes += 1
            else:
                history.grants_since_probe += 1
                return self._migratory_read(msg, entry)
        self._note_read(line, msg.requester)
        return super()._home_read(msg, entry)

    def _migratory_read(self, msg: Message, entry) -> Action:
        """Serve a read miss on a migratory line with an exclusive grant."""
        line = msg.line_addr
        local = msg.requester == self.node_id
        self.migratory_grants += 1
        self.upgrades_saved += 1
        cls = self._classify_read(msg, entry.dirty, entry.owner)
        self.miss_classes[cls] += 1
        if self.tracer is not None:
            self.tracer.classify(msg.requester, line, cls)
        # Record the hand-off as a completed migratory step.
        history = self._hist(line)
        history.last_reader = msg.requester
        history.last_was_promoted = True
        if entry.owner == self.node_id:
            # Dirty in the home's own cache: invalidate it and grant dirty.
            self._cache_invalidate(line)
            addrs = self.directory.clear_dirty(line)
            addrs += self.directory.set_dirty(line, msg.requester)
            reply = msg.reply(MT.PUTX, n_invals=0)
            action = Action(
                Handler.GETX_HOME_DIRTY_LOCAL, msg, dir_addrs=addrs,
                cache_retrieve=True, cache_touched=True, writes_memory=True,
                memory_stale=True, miss_class=cls,
            )
            if local:
                self._note_write_issued(line)
                action.cpu_deliver = self._complete_write_data(line, reply)
            else:
                action.sends = [reply]
            return action
        # Dirty in a third node: forward as a GETX so the owner invalidates
        # itself and passes ownership straight to the reader.
        entry.pending = True
        forward = Message(MT.FORWARD_GETX, line, self.node_id, entry.owner,
                          msg.requester, is_write=True)
        handler = (Handler.GETX_LOCAL_FORWARD if local
                   else Handler.GETX_HOME_FORWARD)
        return Action(
            handler, msg, dir_addrs=[self.directory.header_addr(line)],
            memory_stale=True, sends=[forward], miss_class=cls,
        )

    def _home_write(self, msg: Message, entry) -> Action:
        # An upgrade from the last reader is the migratory signature.
        if msg.mtype in (MT.UPGRADE, MT.REMOTE_UPGRADE, MT.GETX,
                         MT.REMOTE_GETX):
            self._note_promotion(msg.line_addr, msg.requester)
        return super()._home_write(msg, entry)

    # -- introspection --------------------------------------------------------------------

    def migratory_lines(self) -> List[int]:
        return [line for line, h in self._history.items() if h.migratory]
