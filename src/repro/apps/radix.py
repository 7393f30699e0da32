"""Radix — high-performance parallel sorting (Table 3.5).

The SPLASH-2 radix sort: per digit, each processor histograms its local block
of keys, the histograms are combined into global ranks, and the keys are
*permuted* into a destination array.  The permutation scatters writes across
every processor's partition; on the next pass each processor reads back its
own partition, whose lines were last written by remote processors — the
signature "local dirty remote" misses that dominate the paper's Radix run
(76.0% in Table 4.1).

Paper problem size: 256K integer keys, radix 256.  Default: 16K keys.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Tuple

from ..common.errors import ConfigError
from ..common.params import MachineConfig
from .base import OpBuilder, Workload, rng_stream
from .placement import AddressSpace

KEY_BYTES = 8

__all__ = ["RadixWorkload"]


class RadixWorkload(Workload):
    name = "radix"
    paper_problem = "256K integer keys, radix=256"

    def __init__(self, keys: int = 32768, radix: int = 64,
                 key_bits: int = 12, seed: int = 42):
        if radix & (radix - 1):
            raise ConfigError("radix must be a power of two")
        self.n_keys = keys
        self.radix = radix
        self.key_bits = key_bits
        self.seed = seed
        self.digit_bits = radix.bit_length() - 1
        self.n_passes = (key_bits + self.digit_bits - 1) // self.digit_bits

    # -- the logical sort (computed at build time, like a trace generator) -----

    def _plan(self, n_procs: int) -> List[array]:
        """For each pass, a column ``dest``: the key at position ``i`` moves
        to global index ``dest[i]``.  Processor ``cpu`` moves the keys at
        positions ``cpu * chunk`` through ``(cpu + 1) * chunk - 1``."""
        rng = rng_stream(self.seed)
        mask = (1 << self.key_bits) - 1
        keys = [rng() & mask for _ in range(self.n_keys)]
        positions = list(range(self.n_keys))
        order = positions  # order[i] = key id at position i
        plan: List[array] = []
        for p in range(self.n_passes):
            shift = p * self.digit_bits
            digit_of = [(keys[kid] >> shift) & (self.radix - 1) for kid in order]
            # Stable sort of positions by digit, processor-major as in
            # SPLASH (processor 0's keys with digit d precede processor 1's
            # keys with digit d): by_dest[j] is the position moving to j,
            # and dest, its inverse, is where each position moves.
            by_dest = sorted(positions, key=digit_of.__getitem__)
            dest = sorted(positions, key=by_dest.__getitem__)
            plan.append(array("l", dest))
            order = [order[i] for i in by_dest]
        return plan

    # -- stream generation ---------------------------------------------------------

    def build(self, config: MachineConfig):
        if self.n_keys % config.n_procs:
            raise ConfigError("key count must divide evenly among processors")
        space = AddressSpace(config)
        nbytes = self.n_keys * KEY_BYTES
        arrays = [
            space.alloc(nbytes, policy="block", name="radix.a0"),
            space.alloc(nbytes, policy="block", name="radix.a1"),
        ]
        hist_bytes = self.radix * KEY_BYTES
        histograms = space.alloc_striped(hist_bytes, name="radix.hist")
        ranks = space.alloc(hist_bytes, policy="round_robin", name="radix.rank")
        plan = self._plan(config.n_procs)
        return [
            self._stream(config, cpu, arrays, histograms, ranks, plan)
            for cpu in range(config.n_procs)
        ]

    def _stream(self, config: MachineConfig, cpu: int, arrays, histograms,
                ranks, plan) -> Iterator[Tuple]:
        P = config.n_procs
        chunk = self.n_keys // P
        ops = OpBuilder(work_per_ref=2.5)

        # Key generation: fill the local block of the initial array.
        first = arrays[0]
        for i in range(cpu * chunk, (cpu + 1) * chunk, 16):
            yield from ops.write(first.element(i, KEY_BYTES), refs=16)
        yield from ops.flush()
        yield ("b", "radix.init")

        for p in range(self.n_passes):
            src = arrays[p % 2]
            dst = arrays[(p + 1) % 2]
            dest = plan[p]
            # Phase 1: local histogram over this processor's block of the
            # current source array (lines last written by remote permuters).
            for i in range(cpu * chunk, (cpu + 1) * chunk):
                yield from ops.read(src.element(i, KEY_BYTES))
                yield from ops.write(
                    histograms[cpu].element(i % self.radix, KEY_BYTES)
                )
            yield from ops.flush()
            yield ("b", ("radix.hist", p))
            # Phase 2: global rank computation — read every processor's
            # histogram for this processor's slice of the digit range.
            lo = cpu * self.radix // P
            hi = (cpu + 1) * self.radix // P
            for d in range(lo, hi):
                for q in range(P):
                    yield from ops.read(histograms[q].element(d, KEY_BYTES))
                yield from ops.write(ranks.element(d, KEY_BYTES))
            yield from ops.flush()
            yield ("b", ("radix.rank", p))
            # Phase 3: permutation — scatter local keys to their global
            # positions in the destination array.
            for i in range(cpu * chunk, (cpu + 1) * chunk):
                yield from ops.read(src.element(i, KEY_BYTES))
                yield from ops.write(dst.element(dest[i], KEY_BYTES))
            yield from ops.flush()
            yield ("b", ("radix.perm", p))
