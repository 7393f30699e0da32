"""The MAGIC node controller.

Models the control macropipeline of Figure 2.2: messages from the processor
interface (PI) and network interface (NI) are selected by the *inbox*
(1-cycle arbitration), looked up in the *jump table* (2 cycles, optionally
initiating a speculative memory read), and handed to the *protocol processor*
(PP), which runs one handler at a time.  Handler semantics come from the
shared :class:`~repro.protocol.coherence.NodeProtocolEngine`; handler
occupancy comes from a pluggable cost backend (table-driven or PP-emulator-
derived).  Outgoing messages pass through the outbox (1 cycle) into bounded
interface queues; data-bearing messages wait for their data buffer to fill
before the interface transmits them, which is how PP processing overlaps the
memory access (Figure 3.1).

The inbox, PP and outbound PI run in callback/state-machine form directly on
the event kernel: every timing edge that the coroutine form expressed as a
``yield`` is a scheduled bare callback, protocol handlers dispatch as plain
calls through an :class:`_ActionRunner` that carries the per-message
execution state, and occupancy (``pp_busy``, handler stats, tracer spans)
is accounted explicitly at the same simulated instants as before.  Dispatch
order — and therefore every simulated result — is identical to the original
process form.  Cold block-transfer flows stay as generators driven by
:class:`~repro.sim.engine.Subtask`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..common.params import MachineConfig
from ..memory.controller import MemoryController, MemoryRequest, SubmitWhenReady
from ..network.mesh import NetworkPort
from ..msgpass.transfer import (
    XFER_DONE_COST, XFER_PER_LINE_COST, XFER_RECEIVE_COST, XFER_SETUP_COST,
)
from ..protocol.coherence import Action, NodeProtocolEngine
from ..protocol.messages import Message, MessageType as MT, TRANSFER_TYPES
from ..sim.engine import Environment, Event, NO_ARG, PENDING, Subtask
from ..sim.queues import BoundedQueue, CountingResource
from ..stats.breakdown import NodeStats
from .mdc import MagicDataCache, MagicInstructionCache

__all__ = ["MagicChip", "SPECULATIVE_TYPES"]

#: Message types for which the jump table initiates a speculative memory read
#: (requests that may be satisfied from local memory).
SPECULATIVE_TYPES = frozenset({MT.GET, MT.GETX, MT.REMOTE_GET, MT.REMOTE_GETX})


class _InboxWaiter:
    """The inbox's one arbitration waiter, hooked onto each pending get at
    most once.  Armed while the inbox waits on both gets: the first get to
    fire disarms it and schedules re-arbitration at exactly the ready
    position the old ``_EitherReady`` composite's trigger occupied.  A get
    that fires while it is disarmed finds nothing to do."""

    __slots__ = ("env", "callback", "armed")

    def __init__(self, env: Environment, callback: Callable[[], None]):
        self.env = env
        self.callback = callback
        self.armed = False

    def __call__(self, _event) -> None:
        if self.armed:
            self.armed = False
            self.env._ready.append((self.callback, NO_ARG))


class _ActionRunner:
    """Runs one message's protocol actions on the PP as a callback chain.

    This is the old ``_execute`` coroutine with every ``yield`` turned into a
    scheduled continuation; the generator frame's locals live in slots.  One
    runner exists per message with actions (and per replay batch) — the PP's
    serial runner and a replay runner spawned by the outbound PI may
    interleave their memory/buffer waits, which is why this state cannot live
    on the chip itself.
    """

    __slots__ = (
        "chip", "actions", "idx", "n", "spec", "incoming_buffer", "done_cb",
        "action", "start", "trace_ctx", "cost", "wb_left", "miss_left",
        "mdc_stall_start", "fill", "req", "wreq", "data_ready", "send_idx",
        "pending_done",
    )

    def __init__(self, chip: "MagicChip", actions, spec, incoming_buffer,
                 done_cb) -> None:
        self.chip = chip
        self.actions = actions
        self.idx = 0
        self.n = len(actions)
        self.spec = spec
        self.incoming_buffer = incoming_buffer
        self.done_cb = done_cb
        self.data_ready = None

    @property
    def name(self) -> str:  # watchdog stall-diagnosis label
        return f"pp[{self.chip.node_id}]"

    def run(self) -> None:
        self._action_start()

    # -- per-action chain: MDC directory traffic ---------------------------------

    def _action_start(self) -> None:
        chip = self.chip
        action = self.actions[self.idx]
        self.action = action
        self.start = chip.env._now
        self.trace_ctx = (action.message.requester, action.message.line_addr) \
            if chip.tracer is not None else None
        chip.icache.fetch(action.handler)
        # Directory accesses go through the MDC; misses stall the PP and
        # consume memory bandwidth.
        misses, writebacks = chip.mdc.access_sequence(action.dir_addrs)
        self.miss_left = misses
        self.wb_left = writebacks
        self._wb_next()

    def _wb_next(self) -> None:
        chip = self.chip
        if self.wb_left:
            self.wb_left -= 1
            victim = chip.memory.write(self.action.message.line_addr)
            victim.trace_ctx = self.trace_ctx
            chip.memory.submit_cb(victim, self._wb_next)
            return
        if self.miss_left:
            self.mdc_stall_start = chip.env._now
            self._fill_next()
            return
        self._run_handler()

    def _fill_next(self) -> None:
        chip = self.chip
        if self.miss_left:
            self.miss_left -= 1
            fill = chip.memory.read(self.action.message.line_addr)
            fill.trace_ctx = self.trace_ctx
            self.fill = fill
            chip.memory.submit_cb(fill, self._fill_submitted)
            return
        chip.stats.pp_mdc_stall += chip.env._now - self.mdc_stall_start
        self._run_handler()

    def _fill_submitted(self) -> None:
        event = self.fill.data_event
        self.fill = None
        callbacks = event.callbacks
        if callbacks is None:
            self.chip.env._ready.append((self._fill_data, event))
        else:
            callbacks.append(self._fill_data)

    def _fill_data(self, _event) -> None:
        chip = self.chip
        extra = chip.lat.mdc_miss_penalty - chip.lat.memory_access
        if extra > 0:
            chip.env.call_later(extra, self._fill_next)
        else:
            self._fill_next()

    # -- handler execution --------------------------------------------------------

    def _run_handler(self) -> None:
        chip = self.chip
        action = self.action
        counts = chip.dispatch_stepwise
        mtype = action.message.mtype
        counts[mtype] = counts.get(mtype, 0) + 1
        cost = chip.cost_model.cost(action)
        if chip.faults is not None:
            cost = chip.faults.pp_cost(chip.node_id, cost)
        chip.stats.note_handler(action.handler, cost)
        self.cost = cost
        chip.env.call_later(cost, self._after_cost)

    def _after_cost(self) -> None:
        chip = self.chip
        action = self.action
        env = chip.env
        lat = chip.lat
        # Resolve the data source for any outgoing data-bearing message.
        data_ready: Optional[Event] = None
        if action.cache_retrieve:
            data_ready = env.timeout(
                max(0, lat.intervention_data - (env._now - self.start))
            )
            chip._cache_busy(lat.cache_state_retrieve +
                             lat.cache_data_retrieve)
        elif action.cache_touched:
            chip._cache_busy(lat.cache_state_retrieve)
        self.data_ready = data_ready
        if action.needs_memory_data:
            spec = self.spec
            if spec is not None and not action.memory_stale:
                self.data_ready = spec.data_event
                self.spec = None
            else:
                request = chip.memory.read(action.message.line_addr)
                request.trace_ctx = self.trace_ctx
                self.req = request
                chip.data_buffers.acquire_cb(self._mem_buf_acquired)
                return
        self._resolve_spec()

    def _mem_buf_acquired(self) -> None:
        chip = self.chip
        request = self.req
        chip._release_buffer_after1(request.done_event)
        chip.memory.submit_cb(request, self._mem_submitted)

    def _mem_submitted(self) -> None:
        self.data_ready = self.req.data_event
        self.req = None
        self._resolve_spec()

    def _resolve_spec(self) -> None:
        chip = self.chip
        action = self.action
        spec = self.spec
        if spec is not None:
            # The speculative read was useless: the memory copy is stale, the
            # message was deferred, or no data was needed after all.  The
            # access still occupies the memory system.
            spec.useless = True
            chip.stats.spec_useless += 1
            self.spec = None
        if action.writes_memory:
            wreq = chip.memory.write(action.message.line_addr)
            wreq.trace_ctx = self.trace_ctx
            data_ready = self.data_ready
            if data_ready is None:
                if not self.incoming_buffer:
                    chip.memory.submit_cb(wreq, self._after_write)
                else:
                    self.wreq = wreq
                    chip.memory.submit_cb(wreq, self._wb_buffered)
                return
            chip._submit_after(wreq, data_ready)
        self._after_write()

    def _wb_buffered(self) -> None:
        chip = self.chip
        chip._release_buffer_after1(self.wreq.done_event)
        self.wreq = None
        self.incoming_buffer = False
        self._after_write()

    def _after_write(self) -> None:
        delay = self.action.send_delay
        if delay:
            # Fault-injected retry backoff (repro.faults); always 0 otherwise.
            self.chip.env.call_later(delay, self._begin_sends)
        else:
            self._begin_sends()

    # -- outgoing messages (outbox -> interface queues) ----------------------------

    def _begin_sends(self) -> None:
        self.send_idx = 0
        self._send_next()

    def _send_next(self) -> None:
        if self.send_idx < len(self.action.sends):
            self.chip.env.call_later(self.chip.lat.outbox,
                                     self._send_after_outbox)
            return
        self._deliver_check()

    def _send_after_outbox(self) -> None:
        chip = self.chip
        action = self.action
        out = action.sends[self.send_idx]
        attached = self.data_ready if out.carries_data else None
        done: Optional[Event] = None
        if out.carries_data:
            done = chip.env.event()
            if self.incoming_buffer:
                # Forwarding the data that arrived with the message.
                chip._release_buffer_after1(done)
                self.incoming_buffer = False
            elif action.cache_retrieve:
                self.pending_done = done
                chip.data_buffers.acquire_cb(self._send_buf_acquired)
                return
        chip.net_port.send_cb((out, attached, done), self._send_sent)

    def _send_buf_acquired(self) -> None:
        chip = self.chip
        done = self.pending_done
        self.pending_done = None
        chip._release_buffer_after1(done)
        out = self.action.sends[self.send_idx]
        chip.net_port.send_cb((out, self.data_ready, done), self._send_sent)

    def _send_sent(self) -> None:
        self.send_idx += 1
        self._send_next()

    def _deliver_check(self) -> None:
        if self.action.cpu_deliver is not None:
            self.chip.env.call_later(self.chip.lat.outbox,
                                     self._deliver_after_outbox)
            return
        self._finish()

    def _deliver_after_outbox(self) -> None:
        chip = self.chip
        done = chip.env.event()
        if self.incoming_buffer:
            chip._release_buffer_after1(done)
            self.incoming_buffer = False
        chip.pi_out_q.put_cb((self.action.cpu_deliver, self.data_ready, done),
                             self._finish)

    # -- per-action epilogue -------------------------------------------------------

    def _finish(self) -> None:
        chip = self.chip
        env = chip.env
        action = self.action
        if self.incoming_buffer:
            # Data arrived but was fully consumed by the handler (e.g. a
            # deferred writeback): free its buffer now.
            chip.data_buffers.release()
            self.incoming_buffer = False
        busy = env._now - self.start
        chip.stats.pp_busy += busy
        tracer = chip.tracer
        if tracer is not None:
            tracer.pp_span(chip.node_id, action.handler, action.message,
                           self.start, env._now)
        metrics = chip.metrics
        if metrics is not None:
            # Busy mirrors the ``pp_busy`` increment above exactly, so the
            # ``pp.handler_busy_cycles`` family totals reconcile with
            # ``RunResult.avg_pp_occupancy()``.
            metrics.handler_invocations.labels(chip.node_id,
                                               action.handler).inc()
            metrics.handler_busy.labels(chip.node_id,
                                        action.handler).add(busy)
            metrics.handler_cost.labels(chip.node_id,
                                        action.handler).add(self.cost)
            metrics.busy_per_invocation.observe(busy)
        self.data_ready = None
        self.idx += 1
        if self.idx < self.n:
            self._action_start()
            return
        done_cb = self.done_cb
        if done_cb is not None:
            done_cb()


class MagicChip:
    """One node's MAGIC controller (FLASH machine)."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        config: MachineConfig,
        engine: NodeProtocolEngine,
        memory: MemoryController,
        net_port: NetworkPort,
        cost_model,
        stats: NodeStats,
    ):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.engine = engine
        self.memory = memory
        self.net_port = net_port
        self.cost_model = cost_model
        self.stats = stats
        lat = config.latencies
        limits = config.limits
        self.lat = lat
        self.name = f"magic[{node_id}]"
        self.pi_in_q = BoundedQueue(env, limits.incoming_pi_queue,
                                    name=f"pi.in[{node_id}]")
        self.pi_out_q = BoundedQueue(env, limits.outgoing_pi_queue,
                                     name=f"pi.out[{node_id}]")
        self.pp_q = BoundedQueue(env, limits.inbox_to_pp_queue,
                                 name=f"inbox.pp[{node_id}]")
        self.data_buffers = CountingResource(env, limits.data_buffers,
                                             name=f"bufs[{node_id}]")
        self.mdc = MagicDataCache(config.magic_caches)
        self.icache = MagicInstructionCache(config.magic_caches)
        self._spec: Dict[int, MemoryRequest] = {}
        self._cpu_deliver: Callable[[Message], None] = lambda msg: None
        self._cache_busy: Callable[[float], None] = lambda cycles: None
        self.transfers = None  # TransferDomain, attached by the Node
        self.faults = None     # FaultInjector (repro.faults), attached by the Machine
        self.tracer = None     # Tracer (repro.stats.trace), attached by the Machine
        self.metrics = None    # MetricsRegistry (repro.stats.metrics), attached by the Machine
        # Inbox / PP / outbound-PI state-machine state: each unit is serial,
        # so its in-flight message lives in instance fields.
        self._get_pi: Optional[Event] = None
        self._get_ni: Optional[Event] = None
        self._ib_msg: Optional[Message] = None
        self._ib_spec: Optional[MemoryRequest] = None
        self._ib_start = 0.0
        self._po_bundle = None
        self._po_start = 0.0
        # Inbox latency-chain sums: stages with no side effect between them
        # ride one calendar entry (see DESIGN.md "Performance engineering").
        self._lat_pi_arb = lat.pi_inbound + lat.inbox_arbitration
        self._spec_enabled = config.speculative_reads
        # Handler dispatches per message type.  ``dispatch_fused`` is always
        # empty; it stays because bench/child.py reads it.
        self.dispatch_stepwise: Dict[MT, int] = {}
        self.dispatch_fused: Dict[MT, int] = {}
        # Bound once; scheduled thousands of times.
        self._ib_next_cb = self._ib_next
        self._ib_acquire_cb = self._ib_acquire
        self._ib_acquired_cb = self._ib_acquired
        self._ib_jt_cb = self._ib_jt
        self._ib_postarb_cb = self._ib_postarb
        self._ib_spec_begin_cb = self._ib_spec_begin
        self._ib_spec_buf_cb = self._ib_spec_buf
        self._ib_spec_submitted_cb = self._ib_spec_submitted
        self._ib_enqueue_cb = self._ib_enqueue
        self._ib_done_cb = self._ib_done
        self._ib_waiter = _InboxWaiter(env, self._ib_next_cb)
        self._pp_next_cb = self._pp_next
        self._pp_on_msg_cb = self._pp_on_msg
        self._po_on_bundle_cb = self._po_on_bundle
        self._po_after_wait_cb = self._po_after_wait
        self._po_deliver_cb = self._po_deliver
        self._relbuf_step_cb = self._relbuf_step
        self._relbuf_fire_cb = self._relbuf_fire
        self._subafter_step_cb = self._subafter_step
        # Boot hops mirror the three process starts of the coroutine form.
        env.call_soon(self._ib_boot)
        env.call_soon(self._pp_next)
        env.call_soon(self._po_next)

    # -- wiring ------------------------------------------------------------------

    def set_cpu_deliver(self, fn: Callable[[Message], None]) -> None:
        self._cpu_deliver = fn

    def set_cache_busy(self, fn: Callable[[float], None]) -> None:
        """Callback marking the processor cache busy for N cycles (MAGIC
        interventions contend with the CPU: the "Cont" category)."""
        self._cache_busy = fn

    def pi_submit(self, message: Message):
        """CPU-side entry: the returned event fires when the incoming PI
        queue accepted the message (a full queue stalls the processor)."""
        return self.pi_in_q.put(message)

    def pi_submit_cb(self, message: Message,
                     callback: Callable[[], None]) -> None:
        """Callback form of :meth:`pi_submit`."""
        self.pi_in_q.put_cb(message, callback)

    def pi_submit_drop(self, message: Message) -> None:
        """Fire-and-forget :meth:`pi_submit` for messages whose acceptance
        is never waited on (eviction writebacks/hints)."""
        self.pi_in_q.put_drop(message)

    # -- inbox (callback state machine) -------------------------------------------

    def _ib_boot(self) -> None:
        self._get_pi = self.pi_in_q.get()
        self._get_ni = self.net_port.in_queue.get()
        self._ib_next()

    def _ib_next(self) -> None:
        get_pi = self._get_pi
        get_ni = self._get_ni
        # ``._value is not PENDING`` is ``.triggered`` with the property
        # call inlined (this check runs twice per arbitration).
        if get_pi._value is not PENDING:
            message, from_pi = get_pi._value, True
            self._get_pi = self.pi_in_q.get()
        elif get_ni._value is not PENDING:
            message, from_pi = get_ni._value, False
            self._get_ni = self.net_port.in_queue.get()
        else:
            # A get that outlived the last wait still holds the waiter.
            waiter = self._ib_waiter
            waiter.armed = True
            if waiter not in get_pi.callbacks:
                get_pi.callbacks.append(waiter)
            if waiter not in get_ni.callbacks:
                get_ni.callbacks.append(waiter)
            return
        self.stats.messages_in += 1
        if self.tracer is not None:
            self._ib_start = self.env._now
        self._ib_msg = message
        # Whether a message carries data and whether the jump table will
        # speculate on it are message-static, so the whole intake latency
        # chain is known at arbitration time: consecutive stages with no
        # side effect between them ride a single calendar entry, and the
        # chain only breaks where contention can stall it (buffer acquire,
        # speculative memory issue).
        if message.carries_data:
            # Data-bearing messages are never speculative-read candidates.
            if from_pi:
                self.env.call_later(self.lat.pi_inbound, self._ib_acquire_cb)
                return
            self._ib_acquire()
            return
        if (
            self._spec_enabled
            and message.mtype in SPECULATIVE_TYPES
            and self.engine.home_of(message.line_addr) == self.node_id
        ):
            self.env.call_later(
                self._lat_pi_arb if from_pi else self.lat.inbox_arbitration,
                self._ib_spec_begin_cb)
            return
        self.env.call_later(
            self._lat_pi_arb if from_pi else self.lat.inbox_arbitration,
            self._ib_jt_cb)

    def _ib_jt(self) -> None:
        self.env.call_later(self.lat.jump_table_lookup, self._ib_enqueue_cb)

    def _ib_acquire(self) -> None:
        self.data_buffers.acquire_cb(self._ib_acquired_cb)

    def _ib_acquired(self) -> None:
        self.env.call_later(self.lat.inbox_arbitration, self._ib_postarb_cb)

    def _ib_postarb(self) -> None:
        self.env.call_later(self.lat.jump_table_lookup, self._ib_enqueue_cb)

    def _ib_spec_begin(self) -> None:
        # The jump table output initiates a speculative memory read; it
        # issues as the 2-cycle lookup proceeds.
        message = self._ib_msg
        request = self.memory.read(message.line_addr)
        if self.tracer is not None:
            request.trace_ctx = (message.requester, message.line_addr)
        self._ib_spec = request
        self.data_buffers.acquire_cb(self._ib_spec_buf_cb)

    def _ib_spec_buf(self) -> None:
        # A full memory queue stalls the inbox here, exactly as the old
        # ``yield self.memory.submit(request)`` did.
        self.memory.submit_cb(self._ib_spec, self._ib_spec_submitted_cb)

    def _ib_spec_submitted(self) -> None:
        request = self._ib_spec
        self._ib_spec = None
        self._spec[self._ib_msg.uid] = request
        self.stats.spec_issued += 1
        self._release_buffer_after1(request.done_event)
        self.env.call_later(self.lat.jump_table_lookup, self._ib_enqueue_cb)

    def _ib_enqueue(self) -> None:
        self.pp_q.put_cb(self._ib_msg, self._ib_done_cb)

    def _ib_done(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            message = self._ib_msg
            tracer.inbox_span(self.node_id, message, self._ib_start,
                              self.env._now)
            tracer.pp_enqueue(message.uid, self.env._now)
        self._ib_msg = None
        self._ib_next()

    # -- protocol processor (callback state machine) --------------------------------

    def _pp_next(self) -> None:
        self.pp_q.get_cb(self._pp_on_msg_cb)

    def _pp_on_msg(self, message: Message) -> None:
        if self.tracer is not None:
            self.tracer.pp_dequeue(self.node_id, message, self.env._now)
        spec = self._spec.pop(message.uid, None)
        if message.mtype in TRANSFER_TYPES:
            Subtask(self.env, self._execute_transfer(message),
                    self._pp_next_cb, name=f"xfer[{self.node_id}]").start()
            return
        actions = self.engine.process(message)
        if actions:
            _ActionRunner(self, actions, spec, message.carries_data,
                          self._pp_next_cb).run()
            return
        self._pp_next()

    # -- processor interface, outbound (callback state machine) ----------------------

    def _po_next(self) -> None:
        self.pi_out_q.get_cb(self._po_on_bundle_cb)

    def _po_on_bundle(self, bundle) -> None:
        self._po_bundle = bundle
        if self.tracer is not None:
            self._po_start = self.env._now
        data_ready = bundle[1]
        if data_ready is not None and data_ready._value is PENDING:
            data_ready.callbacks.append(self._po_after_wait_cb)
            return
        self._po_after_wait(None)

    def _po_after_wait(self, _event=None) -> None:
        # PI outbound processing and bus transit are a pure latency chain
        # (no side effect between them): one calendar entry carries both.
        self.env.call_later(self.lat.pi_outbound +
                            self.lat.pi_outbound_bus_transit,
                            self._po_deliver_cb)

    def _po_deliver(self) -> None:
        message, _data_ready, done = self._po_bundle
        self._po_bundle = None
        tracer = self.tracer
        if tracer is not None:
            tracer.pi_out_span(self.node_id, message, self._po_start,
                               self.env._now)
        self._cpu_deliver(message)
        if done is not None and done._value is PENDING:
            done.succeed()
        # Delivering a grant to the local processor may make a line's
        # directory state consistent again; replay anything deferred on it.
        actions = self.engine.replay_stable(message.line_addr)
        if actions:
            runner = _ActionRunner(self, actions, None, False, None)
            self.env.call_soon(runner.run)  # mirrors the replay process start
        self._po_next()

    # -- block-transfer handlers (message passing, [HGD+94]) ------------------------

    def _execute_transfer(self, message: Message):
        """Run the transfer handlers on the PP: setup + one short handler
        per payload line at the sender, a write handler per line at the
        receiver.  The data itself moves through the hardwired datapath
        (memory <-> data buffer <-> NI), overlapping the handlers.  Cold
        path: stays a generator, driven by a Subtask from the PP machine."""
        env = self.env
        start = env.now
        if message.mtype == MT.XFER_SEND:
            n_lines = self.transfers.start(message)
            yield env.timeout(XFER_SETUP_COST)
            receiver = message.requester
            for index in range(n_lines):
                yield env.timeout(XFER_PER_LINE_COST)
                line_addr = message.line_addr + index * 128
                request = self.memory.read(line_addr)
                yield self.data_buffers.acquire()
                yield self.memory.submit(request)
                out = Message(
                    MT.XFER_DATA, line_addr, self.node_id, receiver,
                    self.node_id, nbytes=message.nbytes, uid=message.uid,
                )
                done = Event(env)
                self._release_buffer_after1(done)
                yield env.timeout(self.lat.outbox)
                yield self.net_port.send((out, request.data_event, done))
        elif message.mtype == MT.XFER_DATA:
            last = self.transfers.line_arrived(message)
            yield env.timeout(XFER_RECEIVE_COST)
            wreq = self.memory.write(message.line_addr)
            yield self.memory.submit(wreq)
            # The inbox acquired a buffer for the payload; free it once the
            # line is in memory.
            self._release_buffer_after1(wreq.done_event)
            if last:
                yield env.timeout(XFER_DONE_COST)
                self.transfers.complete(self.node_id, message.src)
        self.stats.pp_busy += env.now - start
        if self.tracer is not None:
            self.tracer.pp_span(self.node_id, "xfer", message, start, env.now)
        metrics = self.metrics
        if metrics is not None:
            busy = env.now - start
            metrics.handler_invocations.labels(self.node_id, "xfer").inc()
            metrics.handler_busy.labels(self.node_id, "xfer").add(busy)
            metrics.busy_per_invocation.observe(busy)

    # -- helpers ----------------------------------------------------------------------

    def _release_buffer_after1(self, event: Event) -> None:
        """Free a data buffer once ``event`` fires.  The current-time hop
        mirrors the old waiter process's start resume; the release itself
        lands at the position the waiter's resume occupied."""
        self.env.call_soon(self._relbuf_step_cb, event)

    def _relbuf_step(self, event: Event) -> None:
        if event._value is not PENDING:
            self.data_buffers.release()
        else:
            event.callbacks.append(self._relbuf_fire_cb)

    def _relbuf_fire(self, _event) -> None:
        self.data_buffers.release()

    def _submit_after(self, request: MemoryRequest, data_ready: Event) -> None:
        """Submit a memory write once its data source fires (same hop
        structure as the old one-shot ``wb`` waiter process)."""
        self.env.call_soon(self._subafter_step_cb, (request, data_ready))

    def _subafter_step(self, pair) -> None:
        request, data_ready = pair
        if data_ready._value is not PENDING:
            self.memory.submit_drop(request)
        else:
            data_ready.callbacks.append(SubmitWhenReady(self.memory, request))
