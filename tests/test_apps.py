"""Tests for the workload generators."""

import hashlib

import pytest

from repro.apps import (
    PAPER_APPS, BarnesWorkload, FFTWorkload, LUWorkload, MP3DWorkload,
    OceanWorkload, OSWorkload, RadixWorkload,
)
from repro.common.errors import ConfigError
from repro.common.params import flash_config
from repro.common.units import line_address
from repro.harness.experiments import SMOKE_SIZES

SMALL = {
    "barnes": dict(bodies=128, iterations=1),
    "fft": dict(points=1024),
    "lu": dict(matrix=64, block=16),
    "mp3d": dict(particles=512, steps=1),
    "ocean": dict(grid=34, n_grids=2, sweeps=1),
    "os": dict(tasks_per_proc=1, syscalls_per_task=5),
    "radix": dict(keys=2048, radix=32, key_bits=10),
}

VALID_OPS = {"r", "w", "c", "b", "l", "u"}


def build_streams(name, n_procs=None):
    cls = PAPER_APPS[name]
    n_procs = n_procs or (8 if name == "os" else 16)
    config = flash_config(n_procs=n_procs)
    return config, cls(**SMALL[name]).build(config)


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
class TestAllApps:
    def test_one_stream_per_processor(self, name):
        config, streams = build_streams(name)
        assert len(streams) == config.n_procs

    def test_ops_well_formed(self, name):
        config, streams = build_streams(name)
        memory_limit = config.n_procs * config.memory_bytes_per_node
        lock_depth = 0
        for ops in streams:
            for op in ops:
                assert op[0] in VALID_OPS
                if op[0] in ("r", "w"):
                    assert 0 <= op[1] < memory_limit * 2  # data + protocol area
                elif op[0] == "c":
                    assert op[1] > 0
                elif op[0] == "l":
                    lock_depth += 1
                elif op[0] == "u":
                    lock_depth -= 1
        assert lock_depth == 0

    def test_barrier_participation_balanced(self, name):
        """Every barrier id is reached exactly once by every processor."""
        _, streams = build_streams(name)
        from collections import Counter
        counts = Counter()
        for ops in streams:
            for op in ops:
                if op[0] == "b":
                    counts[op[1]] += 1
        n = len(streams)
        assert counts and all(v == n for v in counts.values())

    def test_deterministic_builds(self, name):
        _, streams_a = build_streams(name)
        _, streams_b = build_streams(name)
        for a, b in zip(streams_a, streams_b):
            assert list(a) == list(b)


class TestFFT:
    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            FFTWorkload(points=1000)

    def test_transpose_reads_are_remote(self):
        config = flash_config(n_procs=4)
        wl = FFTWorkload(points=1024)
        streams = wl.build(config)
        mem = config.memory_bytes_per_node
        # CPU 0's stream must read lines homed at every other node.
        homes = {
            op[1] // mem for op in streams[0] if op[0] == "r"
        }
        assert homes == {0, 1, 2, 3}

    def test_node0_placement(self):
        config = flash_config(n_procs=4)
        wl = FFTWorkload(points=1024, placement="node0")
        streams = wl.build(config)
        mem = config.memory_bytes_per_node
        homes = {
            op[1] // mem for ops in streams for op in ops if op[0] in "rw"
        }
        assert homes == {0}


class TestLU:
    def test_block_ownership_2d_scatter(self):
        wl = LUWorkload(matrix=64, block=16)
        owners = {wl.owner(i, j, 16) for i in range(4) for j in range(4)}
        assert len(owners) == 16  # a 4x4 grid of blocks covers all 16 procs

    def test_rejects_bad_blocking(self):
        with pytest.raises(ConfigError):
            LUWorkload(matrix=100, block=16)


class TestRadix:
    def test_plan_is_a_permutation(self):
        wl = RadixWorkload(**SMALL["radix"])
        plan = wl._plan(4)
        for dest in plan:
            assert sorted(dest) == list(range(wl.n_keys))

    def test_plan_actually_sorts(self):
        wl = RadixWorkload(keys=512, radix=16, key_bits=8, seed=3)
        from repro.apps.base import rng_stream
        rng = rng_stream(3)
        keys = [rng() & 0xFF for _ in range(512)]
        order = list(range(512))
        for dest in wl._plan(4):
            new_order = [0] * 512
            for s, d in enumerate(dest):
                new_order[d] = order[s]
            order = new_order
        values = [keys[kid] for kid in order]
        assert values == sorted(values)

    def test_rejects_non_power_of_two_radix(self):
        with pytest.raises(ConfigError):
            RadixWorkload(radix=100)


class TestBarnes:
    def test_tree_covers_all_bodies(self):
        wl = BarnesWorkload(bodies=128, iterations=1)
        frames = wl._positions()
        build, zone_of, force_reads = wl._iteration_trace(frames[0], 4)
        leaf_bodies = {c.body for c in build.cells if c.body is not None}
        assert leaf_bodies == set(range(128))

    def test_zones_balanced(self):
        wl = BarnesWorkload(bodies=128, iterations=1)
        frames = wl._positions()
        _, zone_of, _ = wl._iteration_trace(frames[0], 4)
        from collections import Counter
        counts = Counter(zone_of.values())
        assert all(abs(v - 32) <= 1 for v in counts.values())

    def test_walk_obeys_theta(self):
        """A larger theta opens fewer cells (shorter walks)."""
        tight = BarnesWorkload(bodies=128, iterations=1, theta=0.5)
        loose = BarnesWorkload(bodies=128, iterations=1, theta=2.0)
        f_tight = tight._iteration_trace(tight._positions()[0], 4)[2]
        f_loose = loose._iteration_trace(loose._positions()[0], 4)[2]
        total_tight = sum(len(v) for v in f_tight.values())
        total_loose = sum(len(v) for v in f_loose.values())
        assert total_loose < total_tight


class TestMP3D:
    def test_trajectories_stay_in_grid(self):
        wl = MP3DWorkload(particles=256, cells=128, steps=3)
        for cells, partners in wl._trajectories(4):
            assert len(cells) == len(partners) == 256
            for cell, partner in zip(cells, partners):
                assert 0 <= cell < 128
                assert partner == -1 or 0 <= partner < 256

    def test_collisions_occur(self):
        wl = MP3DWorkload(particles=512, cells=64, steps=2,
                          collision_fraction=0.9)
        frames = wl._trajectories(4)
        assert any(partner >= 0 for _cells, partners in frames
                   for partner in partners)


class TestOS:
    def test_placement_validation(self):
        with pytest.raises(ConfigError):
            OSWorkload(placement="everywhere")

    def test_node0_placement_homes_kernel_data_on_node0(self):
        config = flash_config(n_procs=8)
        wl = OSWorkload(tasks_per_proc=1, syscalls_per_task=5,
                        placement="node0")
        streams = wl.build(config)
        mem = config.memory_bytes_per_node
        # Kernel regions are first-allocated: any access by CPU 3 that is not
        # to its private region must be homed at node 0.
        foreign = {
            op[1] // mem
            for op in streams[3]
            if op[0] in "rw" and op[1] // mem != 3
        }
        assert foreign == {0}


class TestOcean:
    def test_grid_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            OceanWorkload(grid=35).build(flash_config(n_procs=16))

    def test_neighbour_reads_present(self):
        config = flash_config(n_procs=4)
        wl = OceanWorkload(grid=34, n_grids=2, sweeps=1)
        streams = wl.build(config)
        mem = config.memory_bytes_per_node
        homes = {op[1] // mem for op in streams[0] if op[0] == "r"}
        assert len(homes) >= 2  # own subgrid plus at least one neighbour


#: SHA-256 (first 16 hex digits) of each CPU's full op stream on 16 CPUs,
#: one ``repr(op)`` per line.  Recorded before the radix plan and the mp3d
#: trajectories moved from per-particle tuples to array columns: how a
#: workload stores its plan must not change a single op.
OP_STREAM_SHAS = {
    ("radix", "default"): [
        "4532d26316d3a900", "7e5148ad3da0e6c1", "d2b2baf32268c443",
        "39f17d42f56d1122", "e874f0d34ec21d66", "7a43ee0b7f0ea8ce",
        "44a2f1ed820a853c", "66baecad098594b7", "f1d1996a5d72ab60",
        "88bae6faf18232b8", "7177283db4254bc0", "1a779d05400128b6",
        "3aebe966782b6515", "4be7d683ed28a7a0", "7d6db8591dc0bcbd",
        "8f7c268601b42776",
    ],
    ("radix", "smoke"): [
        "06bf4b3f0d55dcdc", "9f01d7f1f46c1921", "92eb2ab4c6bccac1",
        "7c4d9a5de090010e", "dbf1f5ba1a6d1048", "18d879b7a378b9d0",
        "35b3dfa655200f34", "0442b19e8af91c66", "5337141515fb8695",
        "eef3277f682a8cef", "984403e58c70013c", "25714b7625723dc2",
        "3a7466c7e6ec2c79", "82b24dbf4ec38606", "dc8fe33af56d72c9",
        "863e6656494bf9b6",
    ],
    ("radix", "small"): [
        "d3e24ca6dd7ea558", "0e203eba21dd203e", "1cce2140ad0d98bd",
        "18394438d6db1fba", "9d649058aba54511", "fe30b928804d000b",
        "88750cf42b1fffdc", "89ae4ed5ae2ef3c0", "1f91b03536243749",
        "02b09931bbb9975d", "7019f6f9080c543b", "a39064c0a05794a8",
        "60c15d64d54d2280", "411d28554ca51be5", "0fafa6636529fa45",
        "bbe17a6db016235a",
    ],
    ("mp3d", "default"): [
        "743484c454120ae3", "31f6ccd2ceffe11c", "acfd5b5f31e8b953",
        "61e444a4055dbfed", "a2b2b2f4c0520e55", "e2a50de40361248b",
        "0a40556817f87233", "0cede4afe35c1142", "0419d4dba693dd61",
        "38e8c9c42007b1a3", "7cd548a30149af60", "a0ea274f7607df92",
        "796c92d07ac40a2c", "f79d312179369459", "59e35d1406128ab7",
        "9d97a56677b7ae83",
    ],
    ("mp3d", "smoke"): [
        "780c2c2bf00734cd", "d4d0298f28671e23", "1f2a18b222547ae9",
        "4a0d3b44f904613f", "4929bcb3f942d188", "7460854a32b79c20",
        "5d7f4ade21d0539f", "719409d98310adbc", "f79a51c734069d78",
        "38f158fdffff737c", "775ae6fbd52773fa", "9a1d1cf8836e0119",
        "8c335351004bd4ed", "74b463051f9937dc", "1d4c7dcb831c158c",
        "64da22cc27d904e0",
    ],
}


@pytest.mark.parametrize("app, size", sorted(OP_STREAM_SHAS))
def test_op_streams_unchanged(app, size):
    sizes = {"default": {}, "smoke": SMOKE_SIZES[app], "small": SMALL[app]}
    streams = PAPER_APPS[app](**sizes[size]).build(flash_config(n_procs=16))
    digests = []
    for ops in streams:
        digest = hashlib.sha256()
        for op in ops:
            digest.update(repr(op).encode() + b"\n")
        digests.append(digest.hexdigest()[:16])
    assert digests == OP_STREAM_SHAS[app, size]
