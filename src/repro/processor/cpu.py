"""The compute processor model.

Section 3.2: an aggressive 400-MIPS processor (up to 4 instructions, hence up
to 4 memory references, per 10 ns system cycle) with blocking reads and
non-blocking writes, up to 4 outstanding misses, write-merging into an
outstanding miss to the same line, and a stall when a write maps to the same
cache index as — but a different tag than — an outstanding miss.

The processor consumes an *operation stream* from a workload generator:

    ('r', addr)        read one word
    ('r', addr, k)     k spatially-local reads within the word's line
    ('w', addr)        write one word
    ('w', addr, k)     k spatially-local writes within the word's line
    ('c', cycles)      compute for N cycles without touching memory
    ('b', barrier_id)  global barrier
    ('l', lock_id)     acquire lock
    ('u', lock_id)     release lock
    ('s', dst, addr, nbytes)  post a block-transfer send (non-blocking)
    ('v', src)         wait for a block transfer from node src to arrive
    ('q', cls, t)      open-loop request begin: wait until intended arrival
                       time t (no-op if already past), then mark a request
                       of class cls open on this node
    ('e',)             open-loop request end: drain outstanding misses
                       (release fence), then mark the open request complete

The k-reference forms model code that walks every word of a line (16 8-byte
words per 128-byte line): one cache access decides hit/miss, the remaining
k-1 references are same-line hits charged only issue time.

Cache hits and compute are batched locally and charged to the simulator in
bounded quanta; misses, interventions and synchronization are fully
event-accurate.  Time is charged to the Figure 4.1 categories (Busy, Cont,
Read, Write, Sync).

The execution loop runs in callback/state-machine form on the event kernel:
:meth:`CPU._loop` consumes consecutive hitting references and compute ops in
plain Python and only materializes a continuation — a bound method scheduled
as a bare callback — on a miss, an MSHR hit, a sync op, a block transfer, or
quantum expiry.  The kernel sees misses, not references, and no generator
frame exists at all between them.  Dispatch order (and therefore every
simulated result) is identical to the original coroutine form; see DESIGN.md
"Performance engineering".  It is the one hit/miss path: model-checked runs
(:mod:`repro.check`) execute it too, reporting each retiring reference to
the attached oracle behind an ``is not None`` test.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..caches.mshr import MSHRFile
from ..caches.setassoc import _EMPTY_SET, CacheState, SetAssocCache
from ..common.errors import WorkloadError
from ..common.params import MachineConfig
from ..common.units import CACHE_LINE_BYTES, line_address
from ..protocol.messages import Message, MessageType as MT
from ..sim.engine import Environment, Event
from ..stats.breakdown import CpuTimes
from .sync import SyncDomain

__all__ = ["CPU", "CYCLES_PER_REFERENCE"]

#: Each reference is one instruction slot of the 4-issue 400-MIPS processor.
CYCLES_PER_REFERENCE = 0.25

#: ``addr & _LINE_MASK == line_address(addr)`` for non-negative addresses
#: (CACHE_LINE_BYTES is a power of two) — the branch-free form the hit-run
#: inner loop uses.
_LINE_MASK = -CACHE_LINE_BYTES


class CPU:
    """One compute processor plus its secondary cache and MSHRs."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        config: MachineConfig,
        controller,  # MagicChip or IdealController
        sync: SyncDomain,
        times: Optional[CpuTimes] = None,
    ):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.controller = controller
        self.sync = sync
        self.times = times if times is not None else CpuTimes()
        self.name = f"cpu[{node_id}]"
        self.cache = SetAssocCache(config.proc_cache, name=f"L2[{node_id}]")
        self.mshrs = MSHRFile(config.proc_cache.mshrs, self.cache)
        self.cache_busy_until = 0.0
        self.quantum = config.cpu_hit_quantum
        self.lat = config.latencies
        # Reference counters (cache.stats counts only primary misses).
        self.total_reads = 0
        self.total_writes = 0
        self.read_merges = 0
        # Fills not kept because every way of their set held a line with an
        # outstanding upgrade (see ``deliver``).
        self.unkept_fills = 0
        controller.set_cpu_deliver(self.deliver)
        controller.set_cache_busy(self.note_cache_busy)
        self.transfers = getattr(controller, "transfers", None)
        self.tracer = None  # Tracer (repro.stats.trace), attached by the Machine
        # LatencyMonitor (repro.stats.latency), attached by the Machine for
        # open-loop runs; every hook below is gated on ``is not None``.
        self.loadlat = None
        # CoherenceOracle (repro.check), attached by the model checker; when
        # set, ``_loop`` and the wake-up, deliver, invalidate and evict hooks
        # below feed the shadow value model, each behind ``is not None``.
        self.oracle = None
        self._done = Event(env)
        # Execution state machine: one logical thread, so everything the old
        # generator kept in frame locals lives in instance fields between
        # continuations.
        self._ops = None
        self._batched = 0.0
        self._after_flush = None       # continuation parked across a flush
        self._fence_cont = None        # continuation parked across a fence
        self._pending_entry = None     # MSHR entry a merged read waits on
        self._miss_line = 0
        self._miss_state = CacheState.INVALID
        self._miss_waiter: Optional[Event] = None
        self._stall_start = 0.0
        self._sync_info: Optional[Tuple] = None   # (kind, arg) for the tracer
        self._op: Optional[Tuple] = None
        self._op_arg = 0
        # Bound once; scheduled thousands of times.
        self._loop_cb = self._loop
        self._flush_tail_cb = self._flush_tail
        self._fence_recheck_cb = self._fence_recheck
        self._rmerge_after_flush_cb = self._rmerge_after_flush
        self._rmerge_done_cb = self._rmerge_done
        self._read_miss_begin_cb = self._read_miss_begin
        self._rm_space_cb = self._rm_space
        self._rm_submit_cb = self._rm_submit
        self._rm_wait_cb = self._rm_wait
        self._rm_done_cb = self._rm_done
        self._write_miss_begin_cb = self._write_miss_begin
        self._wm_conflict_cb = self._wm_conflict
        self._wm_space_cb = self._wm_space
        self._wm_submit_cb = self._wm_submit
        self._wm_done_cb = self._wm_done
        self._barrier_fence_cb = self._barrier_fence
        self._barrier_enter_cb = self._barrier_enter
        self._sync_done_cb = self._sync_done
        self._lock_begin_cb = self._lock_begin
        self._unlock_fence_cb = self._unlock_fence
        self._unlock_release_cb = self._unlock_release
        self._send_begin_cb = self._send_begin
        self._send_done_cb = self._send_done
        self._recv_begin_cb = self._recv_begin
        self._req_begin_cb = self._req_begin
        self._req_start_cb = self._req_start
        self._req_end_fence_cb = self._req_end_fence
        self._req_end_cb = self._req_end
        self._finish_cb = self._finish
        self._evict_post_cb = self._evict_post

    # -- controller-facing callbacks --------------------------------------------

    def note_cache_busy(self, cycles: float) -> None:
        """MAGIC (or the ideal controller) is using the processor cache."""
        self.cache_busy_until = max(self.cache_busy_until, self.env.now + cycles)

    def external_invalidate(self, line_addr: int) -> str:
        """Protocol invalidation of a line in this processor's cache."""
        prior = self.cache.invalidate(line_addr)
        if self.oracle is not None:
            self.oracle.on_invalidate(self.node_id, line_addr, prior)
        if prior == CacheState.INVALID:
            entry = self.mshrs.lookup(line_addr)
            if entry is not None and not entry.is_write:
                entry.invalidate_on_fill = True
        return prior

    def external_downgrade(self, line_addr: int) -> None:
        """Protocol intervention: DIRTY -> SHARED."""
        if self.cache.state_of(line_addr) == CacheState.DIRTY:
            self.cache.set_state(line_addr, CacheState.SHARED)

    def cache_state_of(self, line_addr: int) -> str:
        return self.cache.state_of(line_addr)

    def deliver(self, message: Message) -> None:
        """A reply crossed the processor bus: fill the cache, retire the
        MSHR, and wake any stalled references."""
        line = message.line_addr
        if self.tracer is not None:
            self.tracer.txn_retire(self.node_id, line, self.env.now)
        entry = self.mshrs.complete(line)
        state = CacheState.SHARED if message.mtype == MT.PUT else CacheState.DIRTY
        # A resident line with an MSHR entry has an upgrade in flight: it is
        # never the victim, or its replacement hint would reach the home
        # after the grant, from the owner the directory just recorded.  When
        # every way holds such a line, the arriving line is consumed by its
        # waiters and leaves at once, as its own victim.
        victim = self.cache.fill(line, state, self.mshrs.entries)
        if victim is not None and victim[0] == line:
            self.unkept_fills += 1
            if entry.invalidate_on_fill:
                victim = None  # the home already dropped this copy
        elif entry.invalidate_on_fill:
            # The data is still consumed by the waiting reference(s); the
            # line just does not stay resident.
            self.cache.invalidate(line)
        if self.oracle is not None:
            self.oracle.on_fill(self.node_id, message, entry,
                                state == CacheState.SHARED)
        if victim is not None:
            self._post_eviction(victim)
        for waiter in entry.waiters:
            waiter.succeed()
        if (
            entry.needs_upgrade
            and state == CacheState.SHARED
        ):
            # A write merged into this read miss: it still needs ownership.
            self.env.process(self._issue_write_async(line),
                             name=f"cpu.upg[{self.node_id}]")

    # -- the execution loop ---------------------------------------------------------

    def run(self, ops: Iterable[Tuple]) -> Event:
        """Start the processor executing ``ops``; returns its completion
        event (fires when the stream is exhausted)."""
        self._ops = iter(ops)
        # The current-time hop mirrors the old process-start resume.
        self.env.call_soon(self._loop_cb)
        return self._done

    def _loop(self) -> None:
        # Hit-run inner loop: consecutive hitting references and compute ops
        # are consumed in plain Python — cache geometry as local shift/mask
        # bindings, hit/miss decision as one dict pop/insert, time charged in
        # bulk through ``batched`` — and control only returns to the event
        # kernel on a miss, an MSHR hit, a sync op, a block transfer, or
        # quantum expiry.  The kernel sees misses, not references.  With a
        # CoherenceOracle attached the same loop reports each retiring
        # reference to it (reads that hit observe here, reads that miss or
        # merge at their wake-up sites; writes queue or perform here).
        oracle = self.oracle
        node_id = self.node_id
        cache = self.cache
        sets_get = cache._sets.get
        empty = _EMPTY_SET
        line_shift = cache.line_shift
        tag_shift = cache.tag_shift
        set_mask = cache.set_mask
        stats = cache.stats
        mshr_get = self.mshrs.entries.get
        quantum = self.quantum
        cpr = CYCLES_PER_REFERENCE
        SHARED = CacheState.SHARED
        flush_then = self._flush_then
        batched = self._batched
        for op in self._ops:
            kind = op[0]
            if kind == "r":
                k = op[2] if len(op) > 2 else 1
                self.total_reads += k
                batched += cpr * k
                line = op[1] & _LINE_MASK
                entry = mshr_get(line)
                if entry is not None:
                    # Secondary reference to an in-flight line.
                    self.read_merges += 1
                    if k > 1:
                        stats.read_hits += k - 1
                    self._batched = batched
                    self._pending_entry = entry
                    self._miss_line = line
                    flush_then(self._rmerge_after_flush_cb)
                    return
                cache_set = sets_get((line >> line_shift) & set_mask, empty)
                tag = line >> tag_shift
                state = cache_set.pop(tag, None)
                if state is None:
                    stats.read_misses += 1
                    if k > 1:
                        stats.read_hits += k - 1
                    self._batched = batched
                    self._miss_line = line
                    flush_then(self._read_miss_begin_cb)
                    return
                cache_set[tag] = state  # MRU
                stats.read_hits += k
                if oracle is not None:
                    oracle.on_read(node_id, line)
                if batched >= quantum:
                    self._batched = batched
                    flush_then(self._loop_cb)
                    return
            elif kind == "w":
                k = op[2] if len(op) > 2 else 1
                self.total_writes += k
                batched += cpr * k
                line = op[1] & _LINE_MASK
                entry = mshr_get(line)
                if entry is not None:
                    # Write-merge into the outstanding miss: no stall.
                    self.mshrs.merge_write(line)
                    if k > 1:
                        stats.write_hits += k - 1
                    if not entry.is_write:
                        entry.needs_upgrade = True
                    if oracle is not None:
                        oracle.on_write_queued(node_id, line)
                    continue
                cache_set = sets_get((line >> line_shift) & set_mask, empty)
                tag = line >> tag_shift
                state = cache_set.pop(tag, None)
                if state is None:
                    stats.write_misses += 1
                    if k > 1:
                        stats.write_hits += k - 1
                    self._batched = batched
                    self._miss_line = line
                    self._miss_state = CacheState.INVALID
                    if oracle is not None:
                        oracle.on_write_queued(node_id, line)
                    flush_then(self._write_miss_begin_cb)
                    return
                elif state == SHARED:
                    cache_set[tag] = state  # MRU; upgrade required
                    stats.write_misses += 1
                    if k > 1:
                        stats.write_hits += k - 1
                    self._batched = batched
                    self._miss_line = line
                    self._miss_state = SHARED
                    if oracle is not None:
                        oracle.on_write_queued(node_id, line)
                    flush_then(self._write_miss_begin_cb)
                    return
                else:
                    cache_set[tag] = state  # MRU
                    stats.write_hits += k
                    if oracle is not None:
                        oracle.on_write_hit(node_id, line)
                    if batched >= quantum:
                        self._batched = batched
                        flush_then(self._loop_cb)
                        return
            elif kind == "c":
                batched += op[1]
                if batched >= quantum:
                    self._batched = batched
                    flush_then(self._loop_cb)
                    return
            elif kind == "b":
                self._batched = batched
                self._op_arg = op[1]
                flush_then(self._barrier_fence_cb)
                return
            elif kind == "l":
                self._batched = batched
                self._op_arg = op[1]
                flush_then(self._lock_begin_cb)
                return
            elif kind == "u":
                self._batched = batched
                self._op_arg = op[1]
                flush_then(self._unlock_fence_cb)
                return
            elif kind == "s":
                self._batched = batched
                self._op = op
                flush_then(self._send_begin_cb)
                return
            elif kind == "v":
                self._batched = batched
                self._op_arg = op[1]
                flush_then(self._recv_begin_cb)
                return
            elif kind == "q":
                self._batched = batched
                self._op = op
                flush_then(self._req_begin_cb)
                return
            elif kind == "e":
                self._batched = batched
                flush_then(self._req_end_fence_cb)
                return
            else:
                raise WorkloadError(f"unknown operation {op!r}")
        self._batched = batched
        flush_then(self._finish_cb)

    def _finish(self) -> None:
        self.times.finish_time = self.env.now
        self._done.succeed()

    @property
    def done(self) -> Event:
        return self._done

    # -- time accounting helpers ------------------------------------------------------

    def _flush_then(self, cont) -> None:
        """Convert batched hit/compute cycles into simulated time, then run
        ``cont``.  Each timing edge the old ``_flush`` expressed as a yield
        is one scheduled callback; with nothing to charge, ``cont`` runs
        inline — exactly like a ``yield from`` that never yielded."""
        batched = self._batched
        if batched > 0:
            self._batched = 0.0
            self.times.busy += batched
            self._after_flush = cont
            self.env.call_later(batched, self._flush_tail_cb)
            return
        now = self.env._now
        if now < self.cache_busy_until:
            # The controller is using the cache: the processor waits (Cont).
            wait = self.cache_busy_until - now
            self.times.cont += wait
            self.env.call_later(wait, cont)
            return
        cont()

    def _flush_tail(self) -> None:
        cont = self._after_flush
        self._after_flush = None
        now = self.env._now
        if now < self.cache_busy_until:
            wait = self.cache_busy_until - now
            self.times.cont += wait
            self.env.call_later(wait, cont)
            return
        cont()

    def _fence_then(self, cont) -> None:
        """Wait for every outstanding miss to complete, then run ``cont``."""
        if len(self.mshrs):
            self._fence_cont = cont
            self._any_completion().callbacks.append(self._fence_recheck_cb)
            return
        cont()

    def _fence_recheck(self, _event) -> None:
        if len(self.mshrs):
            self._any_completion().callbacks.append(self._fence_recheck_cb)
            return
        cont = self._fence_cont
        self._fence_cont = None
        cont()

    def _wait_event(self, event: Event, callback) -> None:
        """Register ``callback`` on ``event`` exactly as a process yield
        would (ready re-queue when already dispatched)."""
        callbacks = event.callbacks
        if callbacks is None:
            self.env._ready.append((callback, event))
        else:
            callbacks.append(callback)

    # -- read-merge stall ---------------------------------------------------------------

    def _rmerge_after_flush(self) -> None:
        entry = self._pending_entry
        self._pending_entry = None
        # The flush took time: the miss may have completed already.
        if self.mshrs.entries.get(self._miss_line) is entry:
            self._stall_start = self.env._now
            waiter = self.env.event()
            entry.waiters.append(waiter)
            waiter.callbacks.append(self._rmerge_done_cb)
            return
        if self.oracle is not None:
            self.oracle.on_read(self.node_id, self._miss_line)
        self._loop_cb()

    def _rmerge_done(self, _event) -> None:
        self.times.read_stall += self.env._now - self._stall_start
        if self.tracer is not None:
            self.tracer.cpu_wait(self.node_id, "r", self._stall_start,
                                 self.env._now)
        if self.oracle is not None:
            self.oracle.on_read(self.node_id, self._miss_line)
        self._loop_cb()

    # -- miss handling ------------------------------------------------------------------

    def _read_miss_begin(self) -> None:
        line = self._miss_line
        start = self.env._now
        self._stall_start = start
        if self.tracer is not None:
            self.tracer.txn_issue(self.node_id, line, False, start)
        if self.mshrs.is_full:
            self.mshrs.full_stalls += 1
            self._any_completion().callbacks.append(self._rm_space_cb)
            return
        self._rm_allocate()

    def _rm_space(self, _event) -> None:
        if self.mshrs.is_full:
            self._any_completion().callbacks.append(self._rm_space_cb)
            return
        self._rm_allocate()

    def _rm_allocate(self) -> None:
        entry = self.mshrs.allocate(self._miss_line, False, self.env._now)
        waiter = self.env.event()
        entry.waiters.append(waiter)
        self._miss_waiter = waiter
        self.env.call_later(self.lat.miss_detect_to_bus + self.lat.bus_transit,
                            self._rm_submit_cb)

    def _rm_submit(self) -> None:
        message = Message(MT.GET, self._miss_line, self.node_id, self.node_id,
                          self.node_id, is_write=False)
        self.controller.pi_submit_cb(message, self._rm_wait_cb)

    def _rm_wait(self) -> None:
        # Blocking read: park on the fill waiter.
        waiter = self._miss_waiter
        self._miss_waiter = None
        self._wait_event(waiter, self._rm_done_cb)

    def _rm_done(self, _event) -> None:
        self.times.read_stall += self.env._now - self._stall_start
        if self.tracer is not None:
            self.tracer.cpu_wait(self.node_id, "r", self._stall_start,
                                 self.env._now)
        if self.oracle is not None:
            self.oracle.on_read(self.node_id, self._miss_line)
        self._loop_cb()

    def _write_miss_begin(self) -> None:
        line = self._miss_line
        self._stall_start = self.env._now
        if self.tracer is not None:
            self.tracer.txn_issue(self.node_id, line, True, self._stall_start)
        # A write to a line that maps to the same index as, but a different
        # tag than, an outstanding miss stalls the processor.
        mshrs = self.mshrs
        if mshrs.index_conflict(line):
            mshrs.conflict_stalls += 1
            self._any_completion().callbacks.append(self._wm_conflict_cb)
            return
        self._wm_check_full()

    def _wm_conflict(self, _event) -> None:
        if self.mshrs.index_conflict(self._miss_line):
            self._any_completion().callbacks.append(self._wm_conflict_cb)
            return
        self._wm_check_full()

    def _wm_check_full(self) -> None:
        mshrs = self.mshrs
        if mshrs.is_full:
            mshrs.full_stalls += 1
            self._any_completion().callbacks.append(self._wm_space_cb)
            return
        self._wm_allocate()

    def _wm_space(self, _event) -> None:
        if self.mshrs.is_full:
            self._any_completion().callbacks.append(self._wm_space_cb)
            return
        self._wm_allocate()

    def _wm_allocate(self) -> None:
        self.mshrs.allocate(self._miss_line, True, self.env._now)
        self.env.call_later(self.lat.miss_detect_to_bus + self.lat.bus_transit,
                            self._wm_submit_cb)

    def _wm_submit(self) -> None:
        mtype = MT.UPGRADE if self._miss_state == CacheState.SHARED else MT.GETX
        message = Message(mtype, self._miss_line, self.node_id, self.node_id,
                          self.node_id, is_write=True)
        self.controller.pi_submit_cb(message, self._wm_done_cb)

    def _wm_done(self) -> None:
        # Non-blocking write: the processor continues; only the time spent
        # waiting for MSHR space / conflicts / queue space is write stall.
        self.times.write_stall += self.env._now - self._stall_start
        if self.tracer is not None:
            self.tracer.cpu_wait(self.node_id, "w", self._stall_start,
                                 self.env._now)
        self._loop_cb()

    # -- synchronization / transfers ----------------------------------------------------

    def _barrier_fence(self) -> None:
        self._stall_start = self.env._now
        self._sync_info = ("b", self._op_arg)
        # Release semantics: outstanding misses drain before the barrier
        # (otherwise a non-blocking write could race past it).
        self._fence_then(self._barrier_enter_cb)

    def _barrier_enter(self) -> None:
        if self.tracer is not None:
            self.tracer.barrier_arrive(self.node_id, self._op_arg,
                                       self.env._now)
        self._wait_event(self.sync.barrier(self._op_arg), self._sync_done_cb)

    def _lock_begin(self) -> None:
        self._stall_start = self.env._now
        self._sync_info = ("l", self._op_arg)
        self._wait_event(self.sync.acquire(self._op_arg), self._sync_done_cb)

    def _sync_done(self, _event=None) -> None:
        self.times.sync += self.env._now - self._stall_start
        if self.tracer is not None:
            kind, arg = self._sync_info
            self.tracer.cpu_wait(self.node_id, kind, self._stall_start,
                                 self.env._now, arg)
        self._loop_cb()

    def _unlock_fence(self) -> None:
        self._stall_start = self.env._now
        self._fence_then(self._unlock_release_cb)

    def _unlock_release(self) -> None:
        self.times.sync += self.env._now - self._stall_start
        if self.tracer is not None:
            self.tracer.cpu_wait(self.node_id, "u", self._stall_start,
                                 self.env._now, self._op_arg)
        self.sync.release(self._op_arg)
        if self.tracer is not None:
            self.tracer.lock_release(self.node_id, self._op_arg,
                                     self.env._now)
        self._loop_cb()

    def _send_begin(self) -> None:
        _k, dst, addr, nbytes = self._op
        self._op = None
        descriptor = Message(
            MT.XFER_SEND, line_address(addr), self.node_id,
            self.node_id, dst, nbytes=nbytes,
        )
        self._stall_start = self.env._now
        self.controller.pi_submit_cb(descriptor, self._send_done_cb)

    def _send_done(self) -> None:
        self.times.write_stall += self.env._now - self._stall_start
        if self.tracer is not None:
            self.tracer.cpu_wait(self.node_id, "w", self._stall_start,
                                 self.env._now)
        self._loop_cb()

    def _recv_begin(self) -> None:
        self._stall_start = self.env._now
        self._sync_info = ("v", self._op_arg)
        self._wait_event(self.transfers.receive(self.node_id, self._op_arg),
                         self._sync_done_cb)

    # -- open-loop request markers ------------------------------------------------------

    def _req_begin(self) -> None:
        # ('q', cls, t): pace to the pre-generated intended arrival time.
        # The wait is client idle time — the processor has no work — so it
        # is deliberately uncharged (no Figure 4.1 category grows).  Pacing
        # happens whether or not a monitor is attached: the op stream alone
        # determines timing, the monitor only observes.
        _k, cls, t_arrival = self._op
        self._op = None
        self._op_arg = (cls, t_arrival)
        now = self.env._now
        if now < t_arrival:
            if self.tracer is not None:
                self.tracer.cpu_wait(self.node_id, "i", now, t_arrival)
            self.env.call_later(t_arrival - now, self._req_start_cb)
            return
        self._req_start()

    def _req_start(self) -> None:
        cls, t_arrival = self._op_arg
        self._op_arg = 0
        if self.loadlat is not None:
            self.loadlat.request_begin(self.node_id, cls, t_arrival,
                                       self.env._now)
        self._loop_cb()

    def _req_end_fence(self) -> None:
        # ('e',): the request's non-blocking writes must land before the
        # latency clock stops (release semantics, like the barrier fence).
        self._stall_start = self.env._now
        self._fence_then(self._req_end_cb)

    def _req_end(self) -> None:
        self.times.write_stall += self.env._now - self._stall_start
        if self.tracer is not None:
            self.tracer.cpu_wait(self.node_id, "w", self._stall_start,
                                 self.env._now)
        if self.loadlat is not None:
            self.loadlat.request_end(self.node_id, self.env._now)
        self._loop_cb()

    # -- deferred issue (cold paths) ----------------------------------------------------

    def _issue_write_async(self, line: int):
        """Upgrade issued on behalf of a write that merged into a read."""
        if self.cache.state_of(line) == CacheState.DIRTY:
            return
        if self.mshrs.lookup(line) is None and self.mshrs.is_full:
            self.mshrs.full_stalls += 1
        while self.mshrs.lookup(line) is not None or self.mshrs.is_full:
            yield self._any_completion()
        state = self.cache.state_of(line)
        if state == CacheState.DIRTY:
            return
        if self.tracer is not None:
            self.tracer.txn_issue(self.node_id, line, True, self.env.now)
        self.mshrs.allocate(line, True, self.env.now)
        mtype = MT.UPGRADE if state == CacheState.SHARED else MT.GETX
        message = Message(mtype, line, self.node_id, self.node_id,
                          self.node_id, is_write=True)
        yield self.controller.pi_submit(message)

    def _any_completion(self) -> Event:
        """An event firing when any outstanding miss completes."""
        waiter = self.env.event()
        for line in self.mshrs.outstanding_lines():
            entry = self.mshrs.lookup(line)
            if entry is not None:
                entry.waiters.append(
                    _OneShotRelay(waiter)
                )
        if not self.mshrs.outstanding_lines():
            waiter.succeed()
        return waiter

    # -- evictions -------------------------------------------------------------------------

    def _post_eviction(self, victim: Tuple[int, str]) -> None:
        line, state = victim
        mtype = MT.WRITEBACK if state == CacheState.DIRTY else MT.REPL_HINT
        # Current-time hop mirrors the old poster process's start resume; the
        # PI put's completion was never waited on, so it is dropped.
        self.env.call_soon(self._evict_post_cb, (mtype, line))

    def _evict_post(self, pair) -> None:
        mtype, line = pair
        message = Message(mtype, line, self.node_id, self.node_id,
                          self.node_id)
        if self.oracle is not None:
            self.oracle.on_evict(self.node_id, line, mtype, message)
        self.controller.pi_submit_drop(message)


class _OneShotRelay:
    """Succeeds a target event the first time any of its sources fires."""

    __slots__ = ("target",)

    def __init__(self, target: Event):
        self.target = target

    def succeed(self, value=None) -> None:
        if not self.target.triggered:
            self.target.succeed(value)
