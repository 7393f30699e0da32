"""The cache-coherence protocol engine.

This module holds the *semantics* of the dynamic-pointer-allocation directory
protocol: given a message arriving at a node, what directory transitions
occur, which messages go out, and which handler (for PP costing) ran.  It is
deliberately free of timing — the FLASH MAGIC model and the ideal controller
both execute these transitions, applying their own latencies around them.

Serialization model: each node processes one message at a time (FLASH's
single protocol processor).  The home directory defers conflicting requests
on a line with a three-hop transaction in flight (``pending``) and replays
them when the transaction completes, standing in for FLASH's NAK/retry corner
cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..caches.setassoc import CacheState
from ..common.errors import ProtocolError
from .directory import Directory
from .messages import Message, MessageType as MT

__all__ = ["Handler", "Action", "NodeProtocolEngine", "MissClass"]


class MissClass:
    """The five read-miss categories of Table 4.1."""

    LOCAL_CLEAN = "local_clean"
    LOCAL_DIRTY_REMOTE = "local_dirty_remote"
    REMOTE_CLEAN = "remote_clean"
    REMOTE_DIRTY_HOME = "remote_dirty_home"
    REMOTE_DIRTY_REMOTE = "remote_dirty_remote"

    ALL = (
        LOCAL_CLEAN,
        LOCAL_DIRTY_REMOTE,
        REMOTE_CLEAN,
        REMOTE_DIRTY_HOME,
        REMOTE_DIRTY_REMOTE,
    )


class Handler:
    """Handler identities, used for PP cost lookup and emulator dispatch."""

    MISS_FORWARD = "miss_forward"              # requester sends request to home
    GET_HOME_CLEAN = "get_home_clean"          # Table 3.4: 11
    GET_HOME_DIRTY_LOCAL = "get_home_dirty_local"    # retrieve from own cache
    GET_HOME_FORWARD = "get_home_forward"      # home forwards to dirty third node
    GET_LOCAL_FORWARD = "get_local_forward"    # home==requester forwards to owner
    GET_OWNER = "get_owner"                    # forwarded GET at the owner
    GETX_HOME_CLEAN = "getx_home_clean"        # Table 3.4: 14 (+13/inval)
    GETX_HOME_DIRTY_LOCAL = "getx_home_dirty_local"
    GETX_HOME_FORWARD = "getx_home_forward"
    GETX_LOCAL_FORWARD = "getx_local_forward"
    GETX_OWNER = "getx_owner"                  # forwarded GETX at the owner
    UPGRADE_HOME = "upgrade_home"
    SHARING_WB = "sharing_wb"                  # home absorbs 3-hop read data
    OWNERSHIP_XFER = "ownership_xfer"          # home records new owner
    REPLY_TO_PROC = "reply_to_proc"            # Table 3.4: 2
    INVAL_RECEIVE = "inval_receive"
    ACK_RECEIVE = "ack_receive"
    WRITEBACK_LOCAL = "writeback_local"        # Table 3.4: 10
    WRITEBACK_REMOTE = "writeback_remote"      # Table 3.4: 8
    WRITEBACK_FORWARD = "writeback_forward"    # requester side of a remote WB
    HINT_LOCAL = "hint_local"                  # Table 3.4: 7
    HINT_REMOTE = "hint_remote"                # Table 3.4: 17 or 23+14N
    HINT_FORWARD = "hint_forward"
    NAK_HOME = "nak_home"                      # forward missed; retry request
    DEFERRED = "deferred"                      # request queued behind pending
    RETRY_BOUNCE = "retry_bounce"              # fault-injected drop: re-send


@dataclass(slots=True)
class Action:
    """What one handler invocation did; the timing layer executes this."""

    handler: str
    message: Message
    dir_addrs: List[int] = field(default_factory=list)
    n_invals: int = 0                     # invalidations issued by this handler
    list_position: Optional[int] = None   # for replacement-hint costing
    needs_memory_data: bool = False       # outgoing reply needs local memory data
    memory_stale: bool = False            # memory copy stale: speculation useless
    writes_memory: bool = False           # handler writes a line to memory
    cache_retrieve: bool = False          # data pulled from local processor cache
    cache_touched: bool = False           # local processor cache state changed
    sends: List[Message] = field(default_factory=list)
    cpu_deliver: Optional[Message] = None  # reply handed to the local processor
    miss_class: Optional[str] = None      # set when a read miss is classified
    deferred: bool = False
    #: Extra cycles the timing layer waits before emitting ``sends`` — only
    #: ever nonzero for fault-injected retry backoff (repro.faults).
    send_delay: float = 0.0
    #: The coherence checker already stamped this action.  Replay cascades
    #: must hand each handler's actions to the checker *before* the next
    #: deferred handler for the same line runs (its value propagation may
    #: read state the earlier handler moved), so inner call sites notify
    #: eagerly and the outer ``process``/``replay_stable`` hooks skip
    #: anything flagged here.
    checked: bool = False


@dataclass(slots=True)
class _PendingWrite:
    """Requester-side invalidation-ack collection for one write miss."""

    need: Optional[int] = None   # unknown until the PUTX/UPGRADE_ACK arrives
    got: int = 0
    data_done: bool = False
    reply: Optional[Message] = None

    @property
    def complete(self) -> bool:
        return self.data_done and self.need is not None and self.got >= self.need


class NodeProtocolEngine:
    """Protocol state and transitions for one node."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        directory: Directory,
        memory_bytes_per_node: int,
        cache_state_of: Callable[[int], str],
        cache_invalidate: Callable[[int], str],
        cache_downgrade: Callable[[int], None],
    ):
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.directory = directory
        self.memory_bytes_per_node = memory_bytes_per_node
        self._cache_state_of = cache_state_of
        self._cache_invalidate = cache_invalidate
        self._cache_downgrade = cache_downgrade
        self._pending_writes: Dict[int, _PendingWrite] = {}
        # Optional per-node performance monitor (repro.stats.monitor); fed
        # with every classified miss when attached.
        self.monitor = None
        # Optional fault injector (repro.faults), attached by the Machine;
        # consulted only when a BOUNCE arrives, so clean runs never touch it.
        self.faults = None
        # Optional tracer (repro.stats.trace), attached by the Machine; told
        # the class of every classified read miss so the latency
        # decomposition can bucket transactions like Table 4.1 does.
        self.tracer = None
        # Optional coherence oracle (repro.check), attached by the model
        # checker; shown every handler's returned actions so the shadow
        # value model can track where data moved.
        self.checker = None
        # Test-only protocol mutation (repro.check self-test): a named,
        # deliberately-injected bug — None in every real run.
        self.mutation = None
        # Counters.
        self.miss_classes: Dict[str, int] = {cls: 0 for cls in MissClass.ALL}
        self.messages_processed = 0
        self.deferred_count = 0
        # Message-type dispatch, built once per node (``process`` runs once
        # per protocol message).
        self._dispatch = self._build_dispatch()

    # -- helpers ---------------------------------------------------------------

    def home_of(self, line_addr: int) -> int:
        return line_addr // self.memory_bytes_per_node

    def _is_home(self, line_addr: int) -> bool:
        return self.home_of(line_addr) == self.node_id

    def _classify_read(self, msg: Message, dirty: bool, owner: Optional[int]) -> str:
        local = msg.requester == self.node_id
        if not dirty:
            return MissClass.LOCAL_CLEAN if local else MissClass.REMOTE_CLEAN
        if local:
            return MissClass.LOCAL_DIRTY_REMOTE
        if owner == self.node_id:
            return MissClass.REMOTE_DIRTY_HOME
        return MissClass.REMOTE_DIRTY_REMOTE

    # -- entry point -------------------------------------------------------------

    def _build_dispatch(self) -> Dict[str, Callable[[Message], List[Action]]]:
        return {
            MT.GET: self._cpu_request,
            MT.GETX: self._cpu_request,
            MT.UPGRADE: self._cpu_request,
            MT.WRITEBACK: self._cpu_writeback,
            MT.REPL_HINT: self._cpu_hint,
            MT.REMOTE_GET: self._home_request,
            MT.REMOTE_GETX: self._home_request,
            MT.REMOTE_UPGRADE: self._home_request,
            MT.REMOTE_WRITEBACK: self._home_writeback,
            MT.REMOTE_REPL_HINT: self._home_hint,
            MT.FORWARD_GET: self._owner_forward,
            MT.FORWARD_GETX: self._owner_forward,
            MT.PUT: self._requester_reply,
            MT.PUTX: self._requester_reply,
            MT.UPGRADE_ACK: self._requester_reply,
            MT.INVAL: self._inval,
            MT.INVAL_ACK: self._inval_ack,
            MT.SHARING_WRITEBACK: self._sharing_writeback,
            MT.OWNERSHIP_TRANSFER: self._ownership_transfer,
            MT.NAK: self._nak,
            MT.BOUNCE: self._bounce_retry,
        }

    def process(self, msg: Message) -> List[Action]:
        """Process one message; returns the handler actions that ran (the
        first for ``msg`` itself, the rest for any replayed deferred
        messages)."""
        self.messages_processed += 1
        try:
            fn = self._dispatch[msg.mtype]
        except KeyError:
            raise ProtocolError(f"node {self.node_id}: unknown message {msg}")
        actions = fn(msg)
        if self.checker is not None:
            self.checker.on_actions(self, actions)
        return actions

    # -- processor-side requests ---------------------------------------------------

    def _cpu_request(self, msg: Message) -> List[Action]:
        if self._is_home(msg.line_addr):
            return self._home_request(msg)
        remote = {MT.GET: MT.REMOTE_GET, MT.GETX: MT.REMOTE_GETX,
                  MT.UPGRADE: MT.REMOTE_UPGRADE}[msg.mtype]
        out = Message(remote, msg.line_addr, self.node_id,
                      self.home_of(msg.line_addr), msg.requester,
                      is_write=msg.mtype != MT.GET)
        return [Action(Handler.MISS_FORWARD, msg, sends=[out])]

    def _cpu_writeback(self, msg: Message) -> List[Action]:
        if self._is_home(msg.line_addr):
            return self._home_writeback(msg)
        out = Message(MT.REMOTE_WRITEBACK, msg.line_addr, self.node_id,
                      self.home_of(msg.line_addr), msg.requester)
        return [Action(Handler.WRITEBACK_FORWARD, msg, sends=[out])]

    def _cpu_hint(self, msg: Message) -> List[Action]:
        if self._is_home(msg.line_addr):
            return self._home_hint(msg)
        out = Message(MT.REMOTE_REPL_HINT, msg.line_addr, self.node_id,
                      self.home_of(msg.line_addr), msg.requester)
        return [Action(Handler.HINT_FORWARD, msg, sends=[out])]

    # -- home-side request processing ---------------------------------------------

    def _home_request(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        entry = self.directory.entry(line)
        stale_local_owner = (
            entry.dirty
            and entry.owner == self.node_id
            and self._cache_state_of(line) != CacheState.DIRTY
        )
        if (
            entry.pending
            or (entry.dirty and entry.owner == msg.requester)
            or stale_local_owner
        ):
            # A three-hop transaction is in flight, the recorded owner is
            # re-requesting, or the home's own processor has a writeback
            # sitting in the PI queue: defer until the state settles.
            entry.defer(msg)
            self.deferred_count += 1
            if self.tracer is not None:
                self.tracer.deferred(self.node_id, msg)
            return [Action(Handler.DEFERRED, msg, deferred=True)]
        is_read = msg.mtype in (MT.GET, MT.REMOTE_GET)
        if is_read:
            action = self._home_read(msg, entry)
        else:
            action = self._home_write(msg, entry)
        return [action]

    def _home_read(self, msg: Message, entry) -> Action:
        line = msg.line_addr
        local = msg.requester == self.node_id
        cls = self._classify_read(msg, entry.dirty, entry.owner)
        self.miss_classes[cls] += 1
        if self.monitor is not None:
            self.monitor.note_miss(cls, line, msg.requester)
        if self.tracer is not None:
            self.tracer.classify(msg.requester, line, cls)
        if not entry.dirty:
            # Clean (or uncached): data comes from local memory.
            if self.mutation == "drop_sharer" and msg.requester != self.node_id:
                # Seeded bug (repro.check self-test): grant the copy without
                # recording the sharer, so a later write never invalidates it.
                addrs = [self.directory.header_addr(line)]
            else:
                added, addrs = self.directory.add_sharer(line, msg.requester)
            reply = msg.reply(MT.PUT)
            action = Action(
                Handler.GET_HOME_CLEAN, msg, dir_addrs=addrs,
                needs_memory_data=True, miss_class=cls,
            )
            if local:
                action.cpu_deliver = reply
            else:
                action.sends = [reply]
            return action
        if entry.owner == self.node_id:
            # Dirty in the home node's own processor cache: retrieve it.
            self._cache_downgrade(line)
            addrs = self.directory.clear_dirty(line)
            for node in (self.node_id, msg.requester):
                _, more = self.directory.add_sharer(line, node)
                addrs.extend(more)
            reply = msg.reply(MT.PUT)
            action = Action(
                Handler.GET_HOME_DIRTY_LOCAL, msg, dir_addrs=addrs,
                cache_retrieve=True, cache_touched=True, writes_memory=True,
                memory_stale=True, miss_class=cls,
            )
            if local:
                action.cpu_deliver = reply
            else:
                action.sends = [reply]
            return action
        # Dirty in a remote cache: forward and go pending.
        if self.mutation == "stale_reply":
            # Seeded bug (repro.check self-test): reply straight from memory
            # as if the line were clean, ignoring the dirty remote owner.
            reply = msg.reply(MT.PUT)
            action = Action(Handler.GET_HOME_CLEAN, msg,
                            needs_memory_data=True, miss_class=cls)
            if local:
                action.cpu_deliver = reply
            else:
                action.sends = [reply]
            return action
        entry.pending = True
        forward = Message(MT.FORWARD_GET, line, self.node_id, entry.owner,
                          msg.requester, is_write=False)
        handler = Handler.GET_LOCAL_FORWARD if local else Handler.GET_HOME_FORWARD
        return Action(
            handler, msg, dir_addrs=[self.directory.header_addr(line)],
            memory_stale=True, sends=[forward], miss_class=cls,
        )

    def _home_write(self, msg: Message, entry) -> Action:
        line = msg.line_addr
        local = msg.requester == self.node_id
        if self.monitor is not None:
            self.monitor.note_write(line, msg.requester)
        is_upgrade = msg.mtype in (MT.UPGRADE, MT.REMOTE_UPGRADE)
        if entry.dirty:
            # Dirty somewhere else (owner==requester was deferred above).
            if entry.owner == self.node_id:
                # Dirty in home's own cache: pull + invalidate it, reply exclusive.
                self._cache_invalidate(line)
                addrs = self.directory.clear_dirty(line)
                addrs += self.directory.set_dirty(line, msg.requester)
                reply = msg.reply(MT.PUTX, n_invals=0)
                action = Action(
                    Handler.GETX_HOME_DIRTY_LOCAL, msg, dir_addrs=addrs,
                    cache_retrieve=True, cache_touched=True, writes_memory=True,
                    memory_stale=True,
                )
                if local:
                    self._note_write_issued(line)
                    action.cpu_deliver = self._complete_write_data(line, reply)
                else:
                    action.sends = [reply]
                return action
            entry.pending = True
            forward = Message(MT.FORWARD_GETX, line, self.node_id, entry.owner,
                              msg.requester, is_write=True)
            handler = Handler.GETX_LOCAL_FORWARD if local else Handler.GETX_HOME_FORWARD
            return Action(
                handler, msg, dir_addrs=[self.directory.header_addr(line)],
                memory_stale=True, sends=[forward],
            )
        # Clean: invalidate any sharers other than the requester.
        sharers, addrs = self.directory.clear_sharers(line)
        requester_had_copy = msg.requester in sharers
        to_invalidate = [n for n in sharers if n != msg.requester]
        sends: List[Message] = []
        cache_touched = False
        n_invals = 0
        skipped_inval = False
        for node in to_invalidate:
            if (self.mutation == "skip_inval" and not skipped_inval
                    and node != self.node_id):
                # Seeded bug (repro.check self-test): silently drop one
                # invalidation — and don't count it, so the requester's ack
                # collection still completes and the stale copy survives.
                skipped_inval = True
                continue
            n_invals += 1
            if node == self.node_id:
                # The home's own processor holds a copy: invalidate in place
                # and ack the requester directly.
                self._cache_invalidate(line)
                cache_touched = True
                sends.append(Message(MT.INVAL_ACK, line, self.node_id,
                                     msg.requester, msg.requester, is_write=True))
            else:
                sends.append(Message(MT.INVAL, line, self.node_id, node,
                                     msg.requester, is_write=True))
        addrs += self.directory.set_dirty(line, msg.requester)
        if is_upgrade and requester_had_copy:
            reply = msg.reply(MT.UPGRADE_ACK, n_invals=n_invals)
            handler = Handler.UPGRADE_HOME
            needs_memory = False
        else:
            # A genuine write miss — or an upgrade whose copy was invalidated
            # in flight, which must be granted data like a GETX.
            reply = msg.reply(MT.PUTX, n_invals=n_invals)
            handler = Handler.GETX_HOME_CLEAN
            needs_memory = True
        action = Action(
            handler, msg, dir_addrs=addrs, n_invals=n_invals,
            needs_memory_data=needs_memory, cache_touched=cache_touched,
            sends=sends,
        )
        if local:
            self._note_write_issued(line)
            done = self._complete_write_data(line, reply)
            if done is not None:
                action.cpu_deliver = done
            # else: acks still outstanding; reply is held until they arrive.
        else:
            action.sends = sends + [reply]
        return action

    # -- home-side writebacks and hints ----------------------------------------------

    def _home_writeback(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        entry = self.directory.entry(line)
        if not entry.dirty or entry.owner != msg.requester:
            raise ProtocolError(
                f"node {self.node_id}: unexpected writeback {msg}; "
                f"dirty={entry.dirty} owner={entry.owner}"
            )
        addrs = self.directory.clear_dirty(line)
        local = msg.requester == self.node_id
        handler = Handler.WRITEBACK_LOCAL if local else Handler.WRITEBACK_REMOTE
        action = Action(handler, msg, dir_addrs=addrs, writes_memory=True)
        # If the owner wrote back while a forward was in flight the entry is
        # pending; the NAK from the owner will replay the stalled request.
        if entry.pending:
            return [action]
        return self._checked([action]) + self._replay(line)

    def _home_hint(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        entry = self.directory.entry(line)
        if (
            self.checker is not None
            and entry.dirty
            and entry.owner == msg.requester
        ):
            # The owner holds the line exclusively, so it cannot have
            # evicted a shared copy since the grant: the hint is stale.
            self.checker.on_owner_hint(self.node_id, msg)
        if entry.pending:
            entry.defer(msg)
            self.deferred_count += 1
            return [Action(Handler.DEFERRED, msg, deferred=True)]
        position, addrs = self.directory.remove_sharer(line, msg.requester)
        local = msg.requester == self.node_id
        handler = Handler.HINT_LOCAL if local else Handler.HINT_REMOTE
        return [Action(handler, msg, dir_addrs=addrs, list_position=position)]

    # -- owner-side forwarded requests ---------------------------------------------

    def _owner_forward(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        home = self.home_of(line)
        state = self._cache_state_of(line)
        if state != CacheState.DIRTY:
            # The line was written back (writeback in flight to home): NAK so
            # the home can retry the request after the writeback lands.
            nak = Message(MT.NAK, line, self.node_id, home, msg.requester,
                          is_write=msg.mtype == MT.FORWARD_GETX)
            return [Action(Handler.GET_OWNER if msg.mtype == MT.FORWARD_GET
                           else Handler.GETX_OWNER, msg, sends=[nak])]
        if msg.mtype == MT.FORWARD_GET:
            self._cache_downgrade(line)
            reply = Message(MT.PUT, line, self.node_id, msg.requester,
                            msg.requester, is_write=False)
            sharing = Message(MT.SHARING_WRITEBACK, line, self.node_id, home,
                              msg.requester)
            # The sharing writeback is composed first; when home == requester
            # this makes the home absorb the directory update before the
            # data reply, as the handler code does.
            return [Action(Handler.GET_OWNER, msg, cache_retrieve=True,
                           cache_touched=True, sends=[sharing, reply])]
        self._cache_invalidate(line)
        reply = Message(MT.PUTX, line, self.node_id, msg.requester,
                        msg.requester, is_write=True, n_invals=0)
        transfer = Message(MT.OWNERSHIP_TRANSFER, line, self.node_id, home,
                           msg.requester, is_write=True)
        return [Action(Handler.GETX_OWNER, msg, cache_retrieve=True,
                       cache_touched=True, sends=[reply, transfer])]

    # -- home-side three-hop completions ----------------------------------------------

    def _sharing_writeback(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        entry = self.directory.entry(line)
        if not entry.pending:
            raise ProtocolError(f"node {self.node_id}: stray sharing WB {msg}")
        addrs = self.directory.clear_dirty(line)
        for node in (msg.src, msg.requester):
            _, more = self.directory.add_sharer(line, node)
            addrs.extend(more)
        entry.pending = False
        action = Action(Handler.SHARING_WB, msg, dir_addrs=addrs,
                        writes_memory=True)
        return self._checked([action]) + self._replay(line)

    def _ownership_transfer(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        entry = self.directory.entry(line)
        if not entry.pending:
            raise ProtocolError(f"node {self.node_id}: stray ownership transfer {msg}")
        addrs = self.directory.clear_dirty(line)
        addrs += self.directory.set_dirty(line, msg.requester)
        entry.pending = False
        action = Action(Handler.OWNERSHIP_XFER, msg, dir_addrs=addrs)
        return self._checked([action]) + self._replay(line)

    def _nak(self, msg: Message) -> List[Action]:
        line = msg.line_addr
        entry = self.directory.entry(line)
        if not entry.pending:
            raise ProtocolError(f"node {self.node_id}: stray NAK {msg}")
        entry.pending = False
        action = Action(Handler.NAK_HOME, msg)
        # Retry the original request (the writeback that beat the forward has
        # already been absorbed, so this normally hits memory).
        retry_type = MT.REMOTE_GETX if msg.is_write else MT.REMOTE_GET
        if msg.requester == self.node_id:
            retry_type = MT.GETX if msg.is_write else MT.GET
        retry = Message(retry_type, line, msg.requester, self.node_id,
                        msg.requester, is_write=msg.is_write)
        head = self._checked([action])
        retried = self._checked(self._home_request(retry))
        return head + retried + self._replay(line)

    def _bounce_retry(self, msg: Message) -> List[Action]:
        """A fault-injected drop (repro.faults) bounced one of our requests
        back: re-send the *same* message object — its uid must survive so
        the injector's per-message drop count bounds the retries — after an
        exponential backoff charged by the timing layer."""
        original = msg.orig
        if original is None:
            raise ProtocolError(f"node {self.node_id}: BOUNCE without original: {msg}")
        action = Action(Handler.RETRY_BOUNCE, msg, sends=[original])
        if self.faults is not None:
            action.send_delay = self.faults.retry_backoff(original)
        return [action]

    # -- requester-side replies ----------------------------------------------------

    def _requester_reply(self, msg: Message) -> List[Action]:
        if msg.mtype == MT.PUT:
            return [Action(Handler.REPLY_TO_PROC, msg, cpu_deliver=msg)]
        # Exclusive replies may need to wait for invalidation acks.
        self._note_write_issued(msg.line_addr)
        pw = self._pending_writes[msg.line_addr]
        pw.need = msg.n_invals
        pw.data_done = True
        pw.reply = msg
        action = Action(Handler.REPLY_TO_PROC, msg)
        if pw.complete:
            del self._pending_writes[msg.line_addr]
            action.cpu_deliver = msg
        return [action]

    def _inval(self, msg: Message) -> List[Action]:
        self._cache_invalidate(msg.line_addr)
        if self.mutation == "no_ack":
            # Seeded bug (repro.check self-test): invalidate but never ack,
            # wedging the writer's ack collection — a deadlock the watchdog
            # / drained-schedule check must convert into a typed failure.
            return [Action(Handler.INVAL_RECEIVE, msg, cache_touched=True)]
        ack = Message(MT.INVAL_ACK, msg.line_addr, self.node_id, msg.requester,
                      msg.requester, is_write=True)
        return [Action(Handler.INVAL_RECEIVE, msg, cache_touched=True,
                       sends=[ack])]

    def _inval_ack(self, msg: Message) -> List[Action]:
        self._note_write_issued(msg.line_addr)
        pw = self._pending_writes[msg.line_addr]
        pw.got += 1
        action = Action(Handler.ACK_RECEIVE, msg)
        if pw.complete:
            del self._pending_writes[msg.line_addr]
            action.cpu_deliver = pw.reply
        return [action]

    # -- pending-write bookkeeping ---------------------------------------------------

    def _note_write_issued(self, line_addr: int) -> None:
        if line_addr not in self._pending_writes:
            self._pending_writes[line_addr] = _PendingWrite()

    def _complete_write_data(self, line_addr: int, reply: Message) -> Optional[Message]:
        """A local write miss got its data; returns the CPU reply if all acks
        have already arrived, else None (the final ack will deliver it)."""
        pw = self._pending_writes[line_addr]
        pw.need = reply.n_invals
        pw.data_done = True
        pw.reply = reply
        if pw.complete:
            del self._pending_writes[line_addr]
            return reply
        return None

    # -- deferred replay ---------------------------------------------------------------

    def replay_stable(self, line_addr: int) -> List[Action]:
        """Replay deferred messages after an external settling event (the
        local processor received its ownership grant, making the directory's
        owner entry consistent with the cache again)."""
        if not self._is_home(line_addr):
            return []
        entry = self.directory.entry(line_addr)
        if entry.pending:
            return []
        actions = self._replay(line_addr)
        if self.checker is not None and actions:
            self.checker.on_actions(self, actions)
        return actions

    def _checked(self, actions: List[Action]) -> List[Action]:
        """Hand actions to the coherence checker *now*, before any further
        handler runs for the same line.  Used by the replay cascades; the
        ``checked`` flag keeps the outer batch hooks from re-stamping."""
        if self.checker is not None and actions:
            self.checker.on_actions(self, actions)
        return actions

    def _replay(self, line_addr: int) -> List[Action]:
        """Replay deferred messages for a line until it goes pending again (or
        a message re-defers, indicating no progress is possible yet)."""
        entry = self.directory.entry(line_addr)
        actions: List[Action] = []
        while entry.deferred and not entry.pending:
            msg = entry.deferred.popleft()
            if msg.mtype in (MT.REPL_HINT, MT.REMOTE_REPL_HINT):
                result = self._home_hint(msg)
            else:
                result = self._home_request(msg)
            self._checked(result)
            actions.extend(result)
            if result and result[0].deferred:
                break  # the popped message re-deferred itself: stop for now
        return actions
