"""Integration tests: whole-machine coherence across processors."""

import pytest

from repro.caches.setassoc import _EMPTY_SET, CacheState
from repro.common.params import MagicCacheConfig, flash_config, ideal_config
from repro.machine import Machine

KB = 1024
MB = 1024 * 1024
LINE = 128


def build(kind="flash", n_procs=4, cache=64 * KB):
    make = flash_config if kind == "flash" else ideal_config
    config = make(n_procs=n_procs, cache_size=cache)
    config = config.with_changes(magic_caches=MagicCacheConfig(enabled=False))
    return Machine(config)


def run(machine, streams):
    result = machine.run([iter(s) for s in streams])
    machine.check_directory_invariants()
    # End-of-run leak detection: directory vs cache tags vs MSHRs vs the
    # link store must reconcile exactly once the schedule drains.
    machine.assert_quiesced()
    return result


@pytest.mark.parametrize("kind", ["flash", "ideal"])
class TestSharingPatterns:
    def test_producer_consumer(self, kind):
        machine = build(kind)
        streams = [
            [("w", 0), ("c", 500), ("b", "x")],
            [("b", "x"), ("r", 0)],
            [("c", 1), ("b", "x")],
            [("c", 1), ("b", "x")],
        ]
        run(machine, streams)
        # Producer downgraded to SHARED by the consumer's read.
        assert machine.nodes[0].cpu.cache.state_of(0) == CacheState.SHARED
        assert machine.nodes[1].cpu.cache.state_of(0) == CacheState.SHARED

    def test_write_invalidates_all_readers(self, kind):
        machine = build(kind)
        streams = [
            [("r", 0), ("b", "x"), ("c", 1000)],
            [("r", 0), ("b", "x"), ("c", 1000)],
            [("r", 0), ("b", "x"), ("c", 1000)],
            [("b", "x"), ("w", 0), ("c", 1000)],
        ]
        run(machine, streams)
        for reader in range(3):
            assert machine.nodes[reader].cpu.cache.state_of(0) == CacheState.INVALID
        assert machine.nodes[3].cpu.cache.state_of(0) == CacheState.DIRTY

    def test_migratory_line(self, kind):
        """Each processor in turn reads and writes the same line."""
        machine = build(kind)
        streams = []
        for p in range(4):
            ops = [("c", 1)]
            for turn in range(4):
                if turn == p:
                    ops += [("r", 0), ("w", 0)]
                ops += [("b", ("turn", turn))]
            streams.append(ops)
        run(machine, streams)
        entry = machine.nodes[0].directory.entry(0)
        assert entry.dirty and entry.owner == 3

    def test_false_sharing_two_writers(self, kind):
        """Two processors write different words of the same line."""
        machine = build(kind)
        streams = [
            [("w", 0), ("c", 50)] * 10,
            [("w", 64), ("c", 50)] * 10,
            [("c", 1)],
            [("c", 1)],
        ]
        run(machine, streams)
        entry = machine.nodes[0].directory.entry(0)
        assert entry.dirty  # one of the two ends up the owner
        assert entry.owner in (0, 1)

    def test_remote_home_three_hop(self, kind):
        """Line homed at node 1, written by node 2, read by node 3."""
        machine = build(kind)
        addr = machine.config.memory_bytes_per_node  # homed at node 1
        streams = [
            [("c", 1), ("b", "w"), ("b", "r")],
            [("c", 1), ("b", "w"), ("b", "r")],
            [("r", addr), ("w", addr), ("c", 500), ("b", "w"), ("b", "r")],
            [("b", "w"), ("r", addr), ("b", "r")],
        ]
        run(machine, streams)
        sharers = machine.nodes[1].directory.sharers(addr)
        assert sorted(sharers) == [2, 3]

    def test_writeback_then_refetch(self, kind):
        machine = build(kind, cache=2 * KB)  # tiny cache forces eviction
        n_sets = machine.nodes[0].cpu.cache.n_sets
        conflict = [LINE * n_sets * (i + 1) for i in range(3)]
        streams = [
            [("w", 0)] + [("r", a) for a in conflict] + [("c", 2000), ("r", 0)],
            [("c", 1)], [("c", 1)], [("c", 1)],
        ]
        run(machine, streams)
        assert machine.nodes[0].cpu.cache.state_of(0) == CacheState.SHARED

    def test_many_lines_all_nodes(self, kind):
        machine = build(kind)
        mem = machine.config.memory_bytes_per_node
        streams = []
        for p in range(4):
            ops = []
            for target in range(4):
                for i in range(8):
                    ops.append(("r", target * mem + i * LINE))
                    if (i + p) % 2:
                        ops.append(("w", target * mem + i * LINE))
            ops.append(("b", "end"))
            streams.append(ops)
        result = run(machine, streams)
        assert result.execution_time > 0


@pytest.mark.parametrize("kind", ["flash", "ideal"])
class TestResultAccounting:
    def test_miss_classification_totals(self, kind):
        machine = build(kind)
        mem = machine.config.memory_bytes_per_node
        streams = [
            [("r", 0), ("r", mem), ("b", "e")],
            [("b", "e")], [("b", "e")], [("b", "e")],
        ]
        result = run(machine, streams)
        assert sum(result.miss_classes.values()) == result.read_misses

    def test_execution_time_is_max_finish(self, kind):
        machine = build(kind)
        streams = [[("c", 100)], [("c", 900)], [("c", 1)], [("c", 1)]]
        result = run(machine, streams)
        assert result.execution_time == 900


class TestFlashVsIdeal:
    def test_flash_never_faster_on_miss_heavy_workload(self):
        mem = 64 * MB
        streams_def = []
        for p in range(4):
            ops = [("r", ((p + t) % 4) * mem + i * LINE)
                   for t in range(4) for i in range(16)]
            ops.append(("b", "end"))
            streams_def.append(ops)
        times = {}
        for kind in ("flash", "ideal"):
            machine = build(kind)
            times[kind] = run(machine, [list(s) for s in streams_def]).execution_time
        assert times["flash"] > times["ideal"]

    def test_compute_bound_workload_nearly_identical(self):
        streams = [[("c", 10000), ("r", p * LINE)] for p in range(4)]
        times = {}
        for kind in ("flash", "ideal"):
            machine = build(kind)
            times[kind] = run(machine, [list(s) for s in streams]).execution_time
        assert times["flash"] / times["ideal"] < 1.01


class TestGoldenHashes:
    """Byte-identical determinism across the full app/machine matrix.

    Every (app, kind) combination at the fast workload sizes must serialize
    to exactly the SHA-256 recorded from the pre-optimization tree.  Any
    change to simulated timing, event ordering, or statistics — however
    small — flips the hash.  Performance work must keep these green; a
    legitimate model change must re-record them (and say so in the PR).
    """

    FAST_SIZES = {
        "fft": dict(points=1024),
        "lu": dict(matrix=64, block=16),
        "radix": dict(keys=4096, radix=64, key_bits=12),
        "ocean": dict(grid=18, n_grids=3, sweeps=1),
        "barnes": dict(bodies=128, iterations=1),
        "mp3d": dict(particles=1024, steps=2),
        "os": dict(tasks_per_proc=1, syscalls_per_task=20),
    }

    GOLDEN = {
        "barnes/flash": "58c64f2bc335fa4b06c9efc43c14e0ddcb776f013e93f6406b7b35714665a21d",
        "barnes/ideal": "a9a854510852896a5f4de97b0813b7b3c1e0a1943a1f742dccab8cebd5a756dc",
        "fft/flash": "6701b38b7f14234bdb29a8ed051fb8ec5fa3f67e235c7a8c730ad6030c5d8524",
        "fft/ideal": "57d90c5ebcd0e18e29e24ea09bfe383fb842840018180d2209653821f2bd038b",
        "lu/flash": "d51e3b4885fc2ffef0cb7e74a4c741051bc479d83e73e63f4c3e0c7be2af9832",
        "lu/ideal": "0dbdd8ba0f1cf4c3bda45d38005d0ef3b78b6b64068eb6ef2b68f42075321836",
        "mp3d/flash": "4a218854278ddd7c4483a3c4c3990749d16dba9745eef2191c9cde2191d14e54",
        "mp3d/ideal": "e81e9e2816434347af6b78ee5f6f858102d6b05e9082ff0222bff4b00a289525",
        "ocean/flash": "eb2e3a86afde7f5b2a06482a4210fbc378a4fd0d321262d44b5717fa511e5c5b",
        "ocean/ideal": "001d2d48c0266ea22bfd613679216515c1447d2790e103ec3f076bac73214ca2",
        "os/flash": "becb708f0b727a4038f85f9d64e5a6d3990819856d6f41f2746748aa86e3e67e",
        "os/ideal": "cdf8f8df988f204475c8e3a14e419026237c620aedf0cd080ed33473f86e4f23",
        "radix/flash": "146ebb977ae59ad7a9ff9daabcf95be0c93bc7ae661e45d3dc4cac582aeb2397",
        "radix/ideal": "14ab174513678b6be0887c73c63c1b06eaf544ff37da0974026e40c69b7e0426",
    }

    @pytest.mark.parametrize("combo", sorted(GOLDEN))
    def test_serialized_result_matches_golden(self, combo):
        import hashlib

        from repro.harness import experiments

        app, kind = combo.split("/")
        spec = experiments.normalize_spec(
            app, kind=kind, regime="large",
            workload_overrides=self.FAST_SIZES[app])
        result = experiments._execute(spec)  # uncached: always simulate
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest == self.GOLDEN[combo], (
            f"{combo}: simulation output drifted from the golden hash -- "
            "an optimization changed observable behavior")
        # Every cache shares one stand-in for its unfilled sets; a write to
        # it would leak lines between caches.
        assert _EMPTY_SET == {}

    #: Events the kernel dispatches (``Environment.dispatches``) per combo,
    #: recorded with a ``check_interval=1`` watchdog before the kernel kept
    #: its own count.  The count lies outside the serialized result, so it
    #: catches work the hashes cannot see: a callback fast path that starts
    #: taking an extra calendar hop keeps every timestamp, and so every
    #: hash, but not this number.
    DISPATCHES = {
        "barnes/flash": 146_086,
        "barnes/ideal": 70_430,
        "fft/flash": 150_941,
        "fft/ideal": 71_395,
        "lu/flash": 52_877,
        "lu/ideal": 27_880,
        "mp3d/flash": 300_775,
        "mp3d/ideal": 142_053,
        "ocean/flash": 24_085,
        "ocean/ideal": 11_666,
        "os/flash": 212_634,
        "os/ideal": 113_663,
        "radix/flash": 561_864,
        "radix/ideal": 253_059,
    }

    @pytest.mark.parametrize("combo", sorted(DISPATCHES))
    def test_dispatch_count_matches_pin(self, combo):
        from repro.harness import experiments

        app, kind = combo.split("/")
        spec = experiments.normalize_spec(
            app, kind=kind, regime="large",
            workload_overrides=self.FAST_SIZES[app])
        machine, ops, _ = experiments.build_machine(spec)
        machine.run(ops)
        assert machine.env.dispatches == self.DISPATCHES[combo], (
            f"{combo}: the kernel dispatched a different number of events"
            " -- the run took a different path through the event kernel")

    #: The observed path: mp3d with tracer and metrics registry attached.
    #: ``result`` hashes the full ``RunResult`` JSON (latency decomposition,
    #: critical path and metrics included); ``events`` hashes the Chrome
    #: ``trace_event`` export of the span ring.
    OBSERVED_GOLDEN = {
        "mp3d/flash": {
            "result": "d591df6eaf2cfb0db1e7733ec2e66b892518f04d5b87ca8b1f7ef451ed582302",
            "events": "343f792331eb2d9da42ba74a8bd0faf2af7659c3a156ba8b6cd8c7ed4a6e3641",
        },
        "mp3d/ideal": {
            "result": "698bf19bbf47b280a2a1c2ed3e38d567535a3c3caa086c3b44b0d3ece270d29c",
            "events": "4d68831c845ea3c4620319ccc3ee3760b589c76546d194728a0e53c0ef74a781",
        },
    }

    @pytest.mark.parametrize("combo", sorted(OBSERVED_GOLDEN))
    def test_observed_run_matches_golden(self, combo):
        import hashlib
        import json

        from repro.harness import experiments

        app, kind = combo.split("/")
        spec = experiments.normalize_spec(
            app, kind=kind, regime="large",
            workload_overrides=self.FAST_SIZES[app], trace=True, metrics=True)
        result, tracer = experiments.run_traced(spec)
        events = json.dumps(tracer.to_trace_events(), sort_keys=True,
                            separators=(",", ":"))
        digests = {
            "result": hashlib.sha256(result.to_json().encode()).hexdigest(),
            "events": hashlib.sha256(events.encode()).hexdigest(),
        }
        assert digests == self.OBSERVED_GOLDEN[combo], (
            f"{combo}: observed-run output drifted from the golden hashes")
