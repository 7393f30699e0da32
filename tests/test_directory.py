"""Unit tests for the dynamic pointer allocation directory, and the
memory-footprint gates of building, tracing and running a machine."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from repro.apps import MP3DWorkload, RadixWorkload
from repro.common.errors import ProtocolError
from repro.harness import experiments
from repro.protocol.directory import Directory, LinkStore
from repro.stats.trace import parse_trace_spec

MB = 1024 * 1024
LINE = 128


@pytest.fixture
def directory():
    return Directory(node_id=0, memory_bytes=1 * MB, n_links=64)


@pytest.fixture
def remote_directory():
    return Directory(node_id=2, memory_bytes=1 * MB, n_links=64)


class TestAddressing:
    def test_header_addresses_distinct_and_dense(self, directory):
        a0 = directory.header_addr(0)
        a1 = directory.header_addr(LINE)
        assert a1 - a0 == 8  # 8-byte directory headers (Section 5.2)

    def test_header_region_past_data(self, directory):
        assert directory.header_addr(0) >= directory.memory_bytes

    def test_rejects_foreign_lines(self, remote_directory):
        with pytest.raises(ProtocolError):
            remote_directory.entry(0)  # line 0 is homed at node 0

    def test_remote_node_owns_its_range(self, remote_directory):
        line = 2 * MB + 5 * LINE
        entry = remote_directory.entry(line)
        assert entry.is_uncached


class TestSharerList:
    def test_add_and_enumerate(self, directory):
        directory.add_sharer(0, 3)
        directory.add_sharer(0, 7)
        assert directory.sharers(0) == [7, 3]  # most recent first

    def test_duplicate_add_is_noop(self, directory):
        directory.add_sharer(0, 3)
        added, _ = directory.add_sharer(0, 3)
        assert not added
        assert directory.sharers(0) == [3]

    def test_remove_returns_position(self, directory):
        for node in (1, 2, 3):
            directory.add_sharer(0, node)
        # List is [3, 2, 1]; node 1 is at position 3.
        position, _ = directory.remove_sharer(0, 1)
        assert position == 3
        assert directory.sharers(0) == [3, 2]

    def test_remove_absent_returns_none(self, directory):
        directory.add_sharer(0, 1)
        position, _ = directory.remove_sharer(0, 9)
        assert position is None

    def test_remove_head(self, directory):
        for node in (1, 2):
            directory.add_sharer(0, node)
        position, _ = directory.remove_sharer(0, 2)
        assert position == 1
        assert directory.sharers(0) == [1]

    def test_clear_returns_all(self, directory):
        for node in (1, 2, 3):
            directory.add_sharer(0, node)
        nodes, _ = directory.clear_sharers(0)
        assert sorted(nodes) == [1, 2, 3]
        assert directory.sharers(0) == []

    def test_links_recycled(self, directory):
        for round_ in range(50):  # far more adds than the 64-link store
            directory.add_sharer(0, 1)
            directory.remove_sharer(0, 1)
        assert directory.links.used == 0

    def test_link_store_exhaustion(self):
        d = Directory(node_id=0, memory_bytes=1 * MB, n_links=2)
        d.add_sharer(0, 1)
        d.add_sharer(0, 2)
        with pytest.raises(ProtocolError):
            d.add_sharer(0, 3)

    def test_touched_addresses_reported(self, directory):
        _, addrs = directory.add_sharer(0, 1)
        assert directory.header_addr(0) in addrs
        # Adding walks the (empty) list then writes the new link.
        assert len(addrs) == 2


class TestDirtyState:
    def test_set_and_clear(self, directory):
        directory.set_dirty(0, owner=5)
        entry = directory.entry(0)
        assert entry.dirty and entry.owner == 5
        directory.clear_dirty(0)
        assert not entry.dirty and entry.owner is None

    def test_dirty_with_sharers_rejected(self, directory):
        directory.add_sharer(0, 1)
        with pytest.raises(ProtocolError):
            directory.set_dirty(0, owner=1)

    def test_invariant_checker_flags_corruption(self, directory):
        directory.set_dirty(0, owner=1)
        directory.entry(0).owner = None  # corrupt deliberately
        with pytest.raises(ProtocolError):
            directory.check_invariants(0)

    def test_invariants_hold_normally(self, directory):
        directory.add_sharer(0, 1)
        directory.add_sharer(0, 2)
        directory.check_invariants(0)
        directory.clear_sharers(0)
        directory.set_dirty(0, owner=3)
        directory.check_invariants(0)


class TestLinkStore:
    def test_allocate_free_cycle(self):
        store = LinkStore(4, base_addr=0x1000)
        a = store.allocate(7, None)
        b = store.allocate(9, a)
        assert store.node_at(b) == 9
        assert store.next_of(b) == a
        store.free(a)
        store.free(b)
        assert store.used == 0

    def test_peak_usage(self):
        store = LinkStore(4, base_addr=0)
        idx = [store.allocate(i, None) for i in range(3)]
        for i in idx:
            store.free(i)
        assert store.peak_used == 3

    def test_addr_of(self):
        store = LinkStore(4, base_addr=0x1000)
        assert store.addr_of(2) == 0x1000 + 16


@pytest.mark.parametrize("app, regime", [
    ("mp3d", "large"), ("ocean", "large"), ("radix", "small"),
])
def test_machine_build_footprint(app, regime):
    """Building a default FLASH machine allocates only what a run touches:
    no eager per-line, per-link or per-set state, and the radix plan as
    array columns.  This measures ~0.5-1.0 MiB; empty 1 MB-cache sets made
    up front cost 4.9 MiB, the radix plan as tuples ~8 MiB, and a
    pre-filled 64K-link pool per node ~56 MiB."""
    spec = experiments.normalize_spec(app, kind="flash", regime=regime)
    tracemalloc.start()
    try:
        built = experiments.build_machine(spec)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built[0].nodes
    assert traced < 2 * MB, f"build_machine traced {traced / MB:.2f} MiB"


def _held_bytes(obj):
    """Deep size of a structure of lists and tuples: every container and
    leaf object once.  (On these columns tracemalloc agrees to 0.1 MiB,
    but it slows the two plan builds from ~1 s to ~7 s.)"""
    seen = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


def test_paper_size_app_plans_are_columns():
    """At the paper's problem sizes the radix plan (262,144 keys, two
    passes) holds 4 MiB of destination columns and the mp3d trajectories
    (50,000 particles, four steps) 3 MiB of cell and partner columns; as
    per-key tuples they held 60 MiB and 18 MiB."""
    plan = RadixWorkload(keys=262144, radix=256, key_bits=16)._plan(16)
    radix = _held_bytes(plan)
    assert radix <= 8 * MB, f"radix plan holds {radix / MB:.2f} MiB"
    steps = MP3DWorkload(particles=50000, steps=4)._trajectories(16)
    mp3d = _held_bytes(steps)
    assert mp3d <= 6 * MB, f"mp3d trajectories hold {mp3d / MB:.2f} MiB"


def test_experiments_import_leaves_the_run_farm_out():
    """A bench child imports ``repro.harness.experiments`` only; the run
    farm and its process-pool modules must not come with it."""
    probe = (
        "import sys, repro.harness.experiments\n"
        "print(' '.join(sorted(m for m in ('multiprocessing',"
        " 'concurrent.futures', 'repro.harness.runfarm')"
        " if m in sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_traced_run_bytes_per_buffered_span():
    """The span ring keeps a span in ~34 B of columns.  Two traced runs of
    the same smoke spec differ only in ring capacity, so their difference
    in live allocation after the run is the ring's cost of the extra
    spans."""
    def held_after_run(buf):
        spec = experiments.normalize_spec(
            "fft", kind="flash", workload_overrides={"points": 1024},
            trace=parse_trace_spec(f"buf={buf}"))
        machine, ops, _ = experiments.build_machine(spec)
        tracemalloc.start()
        try:
            machine.run(ops)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, len(machine.tracer.spans)

    held_all, spans = held_after_run(0)     # unbounded: every span kept
    held_one, one = held_after_run(1)
    assert spans > 10_000 and one == 1
    per_span = (held_all - held_one) / (spans - one)
    assert per_span <= 40, f"{per_span:.1f} B per buffered span"


def test_traced_run_bytes_per_miss_record():
    """The critical-path raw data is kept for every miss, so its columns
    must stay small: a retired-miss record costs ~80 B plus 8 B per PP
    handler and a CPU wait segment ~26 B.  With a one-span ring, a traced
    run holds little more than an untraced one beyond those records."""
    def held_after_run(trace):
        spec = experiments.normalize_spec(
            "mp3d", kind="flash",
            workload_overrides=experiments.SMOKE_SIZES["mp3d"], trace=trace)
        machine, ops, _ = experiments.build_machine(spec)
        tracemalloc.start()
        try:
            machine.run(ops)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, machine.tracer

    held_plain, _ = held_after_run(None)
    held_traced, tracer = held_after_run(parse_trace_spec("buf=1"))
    records = (sum(len(recs) for recs in tracer.retired.values())
               + sum(len(segs) for segs in tracer.cpu_segments.values()))
    assert records > 5_000
    per_record = (held_traced - held_plain) / records
    assert per_record <= 96, f"{per_record:.1f} B per miss record"


def test_finished_machine_is_freed_when_the_next_run_starts(monkeypatch):
    """A finished machine is one reference cycle (environment <-> queues
    and tracer; with a watchdog, the ``Machine`` itself), and
    ``Machine.run`` pauses cyclic GC.  Its pre-run collection must free
    the previous machine and its trace buffers before the next run's first
    op, not after the run."""
    monkeypatch.setenv("REPRO_WATCHDOG", "on")   # as observed runs attach it
    spec = experiments.normalize_spec(
        "fft", kind="flash", n_procs=4, workload_overrides={"points": 256},
        trace=True)
    seen = []

    def probe(stream):
        seen.append([ref() for ref in finished])
        yield from stream

    was_enabled = gc.isenabled()
    gc.disable()   # no automatic collection may free it first
    try:
        machine, ops, _ = experiments.build_machine(spec)
        machine.run(ops)
        finished = [weakref.ref(machine), weakref.ref(machine.tracer)]
        del machine, ops
        assert all(ref() is not None for ref in finished), \
            "a finished machine is cyclic garbage"
        machine, ops, _ = experiments.build_machine(spec)
        machine.run([probe(ops[0])] + list(ops[1:]))
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [[None, None]]
