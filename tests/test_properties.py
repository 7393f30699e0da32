"""Property-based tests (hypothesis) on protocol and machine invariants."""

import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caches.setassoc import CacheState, CacheStats, SetAssocCache
from repro.check.invariants import line_dump
from repro.common.errors import ProtocolError
from repro.common.params import (
    CacheConfig, MagicCacheConfig, flash_config, ideal_config,
)
from repro.machine import Machine
from repro.protocol.coherence import Handler
from repro.protocol.directory import Directory, LinkStore
from repro.protocol.messages import Message, MessageType as MT
from repro.stats.trace import (
    COMPONENTS, WAIT_KINDS, Interner, RetiredMisses, SpanRing, Tracer,
    WaitSegments,
)

KB = 1024
MB = 1024 * 1024
LINE = 128

_slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- directory properties ------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "clear", "dirty", "clean"]),
            st.integers(min_value=0, max_value=7),   # node
            st.integers(min_value=0, max_value=3),   # line index
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_directory_never_corrupts(ops):
    directory = Directory(node_id=0, memory_bytes=1 * MB, n_links=512)
    lines = [i * LINE for i in range(4)]
    for op, node, line_idx in ops:
        line = lines[line_idx]
        entry = directory.entry(line)
        if op == "add" and not entry.dirty:
            directory.add_sharer(line, node)
        elif op == "remove":
            directory.remove_sharer(line, node)
        elif op == "clear":
            directory.clear_sharers(line)
        elif op == "dirty" and entry.head is None and not entry.dirty:
            directory.set_dirty(line, node)
        elif op == "clean" and entry.dirty:
            directory.clear_dirty(line)
        directory.check_invariants(line)


@given(
    nodes=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                   max_size=16, unique=True)
)
@settings(max_examples=100, deadline=None)
def test_directory_link_accounting_balances(nodes):
    directory = Directory(node_id=0, memory_bytes=1 * MB, n_links=64)
    for node in nodes:
        directory.add_sharer(0, node)
    assert directory.links.used == len(nodes)
    removed, _ = directory.clear_sharers(0)
    assert sorted(removed) == sorted(nodes)
    assert directory.links.used == 0


# -- whole-machine properties ----------------------------------------------------------

def _random_workload(draw_ops, n_procs, mem):
    streams = []
    for p, ops in enumerate(draw_ops):
        stream = []
        for kind, node, line in ops:
            addr = node * mem + line * LINE
            stream.append((kind, addr))
        stream.append(("b", "end"))
        streams.append(stream)
    return streams


machine_ops = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["r", "w"]),
            st.integers(min_value=0, max_value=3),   # home node
            st.integers(min_value=0, max_value=5),   # line
        ),
        max_size=25,
    ),
    min_size=4, max_size=4,
)


@given(ops=machine_ops, kind=st.sampled_from(["flash", "ideal"]))
@_slow
def test_machine_quiesces_consistently(ops, kind):
    """After any random 4-processor workload drains: directory invariants
    hold, caches agree with the directory, and no resources are leaked."""
    make = flash_config if kind == "flash" else ideal_config
    config = make(n_procs=4, cache_size=8 * KB).with_changes(
        magic_caches=MagicCacheConfig(enabled=False)
    )
    machine = Machine(config)
    mem = config.memory_bytes_per_node
    streams = _random_workload(ops, 4, mem)
    machine.run([iter(s) for s in streams])
    machine.check_directory_invariants()
    # Single-writer invariant, checked from the cache side.
    for node in range(4):
        home = machine.nodes[node].directory
        for line_addr, entry in home._entries.items():
            holders = [
                p for p in range(4)
                if machine.nodes[p].cpu.cache.state_of(line_addr)
                == CacheState.DIRTY
            ]
            if entry.dirty:
                assert holders == [entry.owner]
            else:
                assert holders == []
                # Every cache holding the line SHARED is on the sharer list.
                sharers = set(home.sharers(line_addr))
                for p in range(4):
                    state = machine.nodes[p].cpu.cache.state_of(line_addr)
                    if state == CacheState.SHARED:
                        assert p in sharers
    if kind == "flash":
        for node in machine.nodes:
            assert node.controller.data_buffers.in_use == 0
            assert len(node.controller.pi_in_q) == 0
            assert len(node.controller.pp_q) == 0


drf_ops = st.lists(
    st.tuples(
        st.lists(  # per-proc write phase: lines the proc owns (disjoint)
            st.integers(min_value=0, max_value=1), max_size=4
        ),
        st.lists(  # per-proc read phase: any line
            st.integers(min_value=0, max_value=7), max_size=6
        ),
    ),
    min_size=4, max_size=4,
)


@given(ops=drf_ops)
@_slow
def test_flash_and_ideal_reach_same_coherence_state(ops):
    """For a *data-race-free* workload (writes to disjoint lines, a barrier,
    then reads), both machines must quiesce with identical directory sharing
    state even though their timings differ.  (Racy workloads may legitimately
    interleave differently.)"""
    states = {}
    for kind in ("flash", "ideal"):
        make = flash_config if kind == "flash" else ideal_config
        config = make(n_procs=4, cache_size=8 * KB).with_changes(
            magic_caches=MagicCacheConfig(enabled=False)
        )
        machine = Machine(config)
        mem = config.memory_bytes_per_node
        streams = []
        for p, (writes, reads) in enumerate(ops):
            stream = [("w", (4 * w + p) * LINE) for w in writes]
            stream.append(("b", "phase"))
            stream += [("r", line * LINE) for line in reads]
            stream.append(("b", "end"))
            streams.append(iter(stream))
        machine.run(streams)
        snapshot = {}
        for node in machine.nodes:
            for line_addr, entry in node.directory._entries.items():
                snapshot[line_addr] = (
                    entry.dirty, entry.owner,
                    frozenset(node.directory.sharers(line_addr)),
                )
        states[kind] = snapshot
    assert states["flash"] == states["ideal"]


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["r", "w"]),
                  st.integers(min_value=0, max_value=63)),
        max_size=80,
    )
)
@settings(max_examples=30, deadline=None)
def test_single_node_time_breakdown_consistent(ops):
    config = flash_config(n_procs=1, cache_size=2 * KB).with_changes(
        magic_caches=MagicCacheConfig(enabled=False)
    )
    machine = Machine(config)
    stream = [(k, line * LINE) for k, line in ops]
    machine.run([iter(stream)])
    times = machine.nodes[0].cpu.times
    assert times.total == pytest.approx(times.finish_time, rel=0.05, abs=2)


class _EagerLinkStore:
    """Reference link store with the whole free list pre-filled, the way
    dynamic pointer allocation initialises it in hardware.  The lazy
    :class:`LinkStore` must hand out exactly the same indices."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.node = [0] * capacity
        self.next = [None] * capacity
        self.free_list = list(range(capacity - 1, -1, -1))
        self.peak_used = 0
        self.total_allocated = 0
        self.total_freed = 0

    @property
    def used(self):
        return self.capacity - len(self.free_list)

    def allocate(self, node, next_index):
        if not self.free_list:
            raise ProtocolError("directory link store exhausted")
        index = self.free_list.pop()
        self.node[index] = node
        self.next[index] = next_index
        self.total_allocated += 1
        self.peak_used = max(self.peak_used, self.used)
        return index

    def free(self, index):
        self.free_list.append(index)
        self.total_freed += 1


def _outcome(store, node, next_index):
    try:
        return store.allocate(node, next_index)
    except ProtocolError as exc:
        return str(exc)


@pytest.mark.parametrize("capacity", [1, 5, 64])
@pytest.mark.parametrize("seed", range(8))
def test_lazy_link_store_matches_eager_free_list(seed, capacity):
    rng = random.Random(seed)
    lazy = LinkStore(capacity, base_addr=0)
    eager = _EagerLinkStore(capacity)
    live = []
    exhausted = 0
    for _ in range(400):
        if live and rng.random() < 0.45:
            index = live.pop(rng.randrange(len(live)))
            lazy.free(index)
            eager.free(index)
        else:
            node = rng.randrange(16)
            next_index = rng.choice(live) if live else None
            got = _outcome(lazy, node, next_index)
            assert got == _outcome(eager, node, next_index)
            if isinstance(got, str):
                exhausted += 1
                assert len(live) == capacity
            else:
                live.append(got)
                assert lazy.node_at(got) == node
                assert lazy.next_of(got) == next_index
        for attr in ("used", "peak_used", "total_allocated", "total_freed"):
            assert getattr(lazy, attr) == getattr(eager, attr), attr
    for index in live:
        assert lazy.node_at(index) == eager.node[index]
        assert lazy.next_of(index) == eager.next[index]
    if capacity <= 5:
        assert exhausted, "sequence never reached exhaustion"


class _DequeSpans:
    """Reference span buffer: a ``deque(maxlen=N)`` of span tuples, the
    form the columnar :class:`SpanRing` replaced (``maxlen`` 0: unbounded)."""

    def __init__(self, maxlen):
        self.spans = deque(maxlen=maxlen or None)
        self.dropped = 0

    def append(self, t0, dur, node, track, name, mtype, line, requester):
        if len(self.spans) == self.spans.maxlen:
            self.dropped += 1
        self.spans.append((t0, dur, node, track, name,
                           (mtype, line, requester)))


def _random_span(rng):
    t0 = rng.uniform(0.0, 1e6)
    return (t0, rng.choice([0.0, rng.uniform(0.0, 900.0)]), rng.randrange(16),
            rng.choice(["cpu", "inbox", "pp", "memory", "net", "pi"]),
            rng.choice(["GET", "PILocalGet", "queue_wait", "transit", "read"]),
            rng.choice([None, "GET", "GETX", "PUT"]),
            rng.randrange(1 << 24) * LINE,
            rng.choice([None] + list(range(16))))


@pytest.mark.parametrize("maxlen, appends", [
    (64, 10),      # fewer than N
    (64, 64),      # exactly N
    (64, 1000),    # wraps around many times
    (1, 5),
    (0, 300),      # buf=0: unbounded
])
@pytest.mark.parametrize("seed", range(4))
def test_span_ring_matches_deque(seed, maxlen, appends):
    rng = random.Random(seed)
    ring = SpanRing(maxlen)
    reference = _DequeSpans(maxlen)
    assert ring.maxlen == reference.spans.maxlen
    for _ in range(appends):
        span = _random_span(rng)
        ring.append(*span)
        reference.append(*span)
        assert len(ring) == len(reference.spans)
        if rng.random() < 0.1:
            assert list(ring) == list(reference.spans)
    assert list(ring) == list(reference.spans)
    assert ring.dropped == reference.dropped


def _random_miss(rng, handler_names):
    """A retired-miss record in the tuple form :class:`RetiredMisses`
    replaced; two in five charged no PP handler."""
    start = rng.uniform(0.0, 1e6)
    handlers = tuple(rng.sample(handler_names, rng.choice([0, 0, 1, 2, 4])))
    return (start + rng.uniform(1.0, 900.0), start,
            rng.randrange(1 << 24) * LINE,
            rng.choice(["local_clean", "remote_dirty_home", "write"]),
            rng.random() < 0.5,
            tuple(rng.choice([0.0, rng.uniform(0.0, 300.0)])
                  for _ in COMPONENTS),
            handlers, tuple(rng.uniform(1.0, 60.0) for _ in handlers))


def _random_wait(rng):
    t0 = rng.uniform(0.0, 1e6)
    kind = rng.choice(WAIT_KINDS)
    arg = (rng.choice([None, 0, 7, ("bar", 3), "lock-2"])
           if kind in "bluv" else None)
    return (t0, t0 + rng.uniform(0.5, 5e3), kind, arg)


@pytest.mark.parametrize("appends", [0, 1, 300])
@pytest.mark.parametrize("seed", range(4))
def test_miss_columns_match_tuple_lists(seed, appends):
    """The per-node column stores read back exactly the tuples a
    list-of-tuples store would hold, by index, by iteration and by
    column; the span ring does the same for node ids up to 255."""
    rng = random.Random(seed)
    handler_names = ["h%d" % k for k in range(6)]
    classes, seqs = Interner(), Interner()
    retired, retired_ref = {}, {}
    waits, waits_ref = {}, {}
    ring, ring_ref = SpanRing(0), _DequeSpans(0)
    for _ in range(appends):
        node = rng.randrange(256)
        record = _random_miss(rng, handler_names)
        retired.setdefault(node, RetiredMisses(classes, seqs)).append(*record)
        retired_ref.setdefault(node, []).append(record)
        wait = _random_wait(rng)
        waits.setdefault(node, WaitSegments()).append(*wait)
        waits_ref.setdefault(node, []).append(wait)
        span = _random_span(rng)
        span = span[:2] + (node,) + span[3:7] + (
            rng.choice([None, node, 255]),)
        ring.append(*span)
        ring_ref.append(*span)
    assert list(retired) == list(retired_ref)
    for node, reference in retired_ref.items():
        store = retired[node]
        assert len(store) == len(reference)
        assert list(store) == reference
        for i, record in enumerate(reference):
            assert store[i] == record
            assert store.retire[i] == record[0]
            assert store.start[i] == record[1]
            assert store.class_of(i) == record[3]
            assert tuple(store.comp_of(i)) == record[5]
            assert store.handlers_of(i) == record[6]
            assert tuple(store.cycles_of(i)) == record[7]
    for node, reference in waits_ref.items():
        store = waits[node]
        assert list(store) == reference
        assert [store[i] for i in range(len(store))] == reference
        assert list(store.t1) == [wait[1] for wait in reference]
    assert list(ring) == list(ring_ref.spans)
    # One shared code per distinct value, across nodes.
    assert len(seqs.by_code) == len(set(seqs.by_code)) == len(seqs)
    assert len(classes.by_code) == len(set(classes.by_code)) == len(classes)


@pytest.mark.parametrize("maxlen", [0, 16])
@pytest.mark.parametrize("seed", range(4))
def test_tracer_node_filter_matches_deque(seed, maxlen):
    """The tracer's message hooks record exactly the spans of the filtered
    nodes, in order, with the old buffer's drop count."""
    rng = random.Random(seed)
    kept = {0, 3}
    tracer = Tracer(buffer_spans=maxlen, nodes=kept)
    reference = _DequeSpans(maxlen)
    for _ in range(200):
        node = rng.randrange(6)
        msg = SimpleNamespace(mtype=rng.choice(["GET", "PUT", "INVAL"]),
                              line_addr=rng.randrange(32) * LINE,
                              requester=rng.randrange(6))
        t0 = rng.uniform(0.0, 1e4)
        t1 = t0 + rng.uniform(0.0, 100.0)
        hook, track, name = rng.choice([
            (tracer.inbox_span, "inbox", msg.mtype),
            (tracer.pi_out_span, "pi", msg.mtype),
            (lambda n, m, a, b: tracer.net_span(n, "transit", m, a, b),
             "net", "transit"),
        ])
        hook(node, msg, t0, t1)
        if node in kept:
            reference.append(t0, t1 - t0, node, track, name, msg.mtype,
                             msg.line_addr, msg.requester)
    assert len(tracer.spans) == len(reference.spans)
    assert list(tracer.spans) == list(reference.spans)
    assert tracer.spans_dropped == reference.dropped


class _EagerCache:
    """Reference cache with every set made up front: a list of
    ``{line_addr: state}`` dicts in LRU order, the form the lazily created
    sets of :class:`SetAssocCache` replaced."""

    def __init__(self, config):
        self.line_bytes = config.line_bytes
        self.ways = config.associativity
        self.sets = [{} for _ in range(config.n_sets)]
        self.stats = CacheStats()

    def _set(self, line):
        return self.sets[(line // self.line_bytes) % len(self.sets)]

    def access(self, line, is_write):
        cache_set = self._set(line)
        state = cache_set.pop(line, None)
        if state is None:
            if is_write:
                self.stats.write_misses += 1
            else:
                self.stats.read_misses += 1
            return CacheState.INVALID
        cache_set[line] = state
        if not is_write:
            self.stats.read_hits += 1
        elif state == CacheState.SHARED:
            self.stats.write_misses += 1
        else:
            self.stats.write_hits += 1
        return state

    def fill(self, line, state):
        cache_set = self._set(line)
        victim = None
        if cache_set.pop(line, None) is None and len(cache_set) >= self.ways:
            victim = next(iter(cache_set.items()))
            del cache_set[victim[0]]
            if victim[1] == CacheState.DIRTY:
                self.stats.evictions_dirty += 1
            else:
                self.stats.evictions_clean += 1
        cache_set[line] = state
        return victim

    def touch(self, line):
        cache_set = self._set(line)
        cache_set[line] = cache_set.pop(line)

    def rmw_touch(self, line):
        cache_set = self._set(line)
        if cache_set.pop(line, None) is None:
            return False
        cache_set[line] = CacheState.DIRTY
        return True

    def set_state(self, line, state):
        cache_set = self._set(line)
        if line not in cache_set:
            raise KeyError(line)
        cache_set[line] = state

    def invalidate(self, line):
        prior = self._set(line).pop(line, CacheState.INVALID)
        if prior != CacheState.INVALID:
            self.stats.invalidations_received += 1
        return prior

    def lines_in_set(self, line):
        return list(self._set(line))

    def set_is_full(self, line):
        return len(self._set(line)) >= self.ways

    def resident_lines(self):
        return [item for cache_set in self.sets for item in cache_set.items()]

    def occupancy(self):
        return sum(len(cache_set) for cache_set in self.sets)


_STATES = [CacheState.SHARED, CacheState.DIRTY]


def _cache_call(cache, op, line, arg):
    """One operation's outcome: its return value, or the exception type."""
    try:
        if op in ("access", "fill", "set_state"):
            return getattr(cache, op)(line, arg)
        return getattr(cache, op)(line)
    except KeyError:
        return KeyError


@pytest.mark.parametrize("size, ways, line_bytes", [
    (128, 1, 128),       # 1 set, 1 way
    (512, 4, 128),       # 1 set, 4 ways
    (1024, 1, 128),      # 8 sets, direct-mapped
    (2 * KB, 2, 128),    # 8 sets, 2 ways
    (4 * KB, 4, 64),     # 16 sets, 4 ways, 64-byte lines
])
@pytest.mark.parametrize("seed", range(4))
def test_lazy_cache_sets_match_eager_sets(seed, size, ways, line_bytes):
    """Sets made on first touch give the same hits, victims, states, stats
    and resident-line order as every set made up front."""
    config = CacheConfig(size_bytes=size, associativity=ways,
                         line_bytes=line_bytes)
    rng = random.Random(seed)
    lazy = SetAssocCache(config)
    eager = _EagerCache(config)
    ops = ["access", "fill", "touch", "rmw_touch", "set_state",
           "invalidate", "lines_in_set", "set_is_full"]
    # Three times as many lines as the cache holds: sets overflow and evict.
    n_lines = config.n_sets * ways * 3
    for _ in range(600):
        op = rng.choice(ops)
        line = rng.randrange(n_lines) * line_bytes
        arg = rng.random() < 0.5 if op == "access" else rng.choice(_STATES)
        got = _cache_call(lazy, op, line, arg)
        assert got == _cache_call(eager, op, line, arg), (op, line)
        assert list(lazy.resident_lines()) == eager.resident_lines()
        assert lazy.occupancy() == eager.occupancy()
        assert lazy.stats.to_dict() == eager.stats.to_dict()
    stats = lazy.stats
    assert stats.evictions_clean + stats.evictions_dirty > 0
    assert len(lazy._sets) <= config.n_sets


def test_directory_entry_defers_only_on_demand():
    """A never-deferred entry holds no queue and dumps ``deferred`` 0; a
    defer-then-replay round trip leaves the queue empty again."""
    machine = Machine(flash_config(n_procs=4))
    node = machine.nodes[0]
    line = 0x200  # homed at node 0
    entry = node.directory.entry(line)
    assert entry.deferred is None
    assert line_dump(machine, line)["directory"]["deferred"] == 0

    node.directory.set_dirty(line, owner=2)
    node.engine.process(Message(MT.REMOTE_GET, line, 3, 0, 3))
    actions = node.engine.process(Message(MT.REMOTE_GET, line, 1, 0, 1))
    assert actions[0].deferred
    assert line_dump(machine, line)["directory"]["deferred"] == 1
    actions = node.engine.process(
        Message(MT.SHARING_WRITEBACK, line, 2, 0, 3))
    assert [a.handler for a in actions] == [Handler.SHARING_WB,
                                           Handler.GET_HOME_CLEAN]
    assert not entry.deferred
    assert line_dump(machine, line)["directory"]["deferred"] == 0
