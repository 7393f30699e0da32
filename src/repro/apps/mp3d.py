"""MP3D — high-communication unstructured accesses (Table 3.5).

The SPLASH MP3D rarefied-fluid Monte Carlo: particles (block-owned, local)
fly through a shared 3-D space-cell array each timestep, updating the cell
they land in and occasionally colliding with another particle in the same
cell.  Consecutive timesteps see each cell written by whichever processor's
particle last visited it, so cell accesses miss "remote dirty remote" — the
paper's communication stress test (6% miss rate, 84% remote dirty remote,
25% FLASH slowdown).  A few global counters shared under a lock reproduce
MP3D's mild hot-spotting.

Paper problem size: 50,000 particles.  Default: 4096 particles, 4 steps.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Tuple

from ..common.params import MachineConfig
from .base import OpBuilder, Workload, rng_stream
from .placement import AddressSpace

PARTICLE_BYTES = 64   # two particles share a line (false sharing, as in MP3D)
CELL_BYTES = 64

__all__ = ["MP3DWorkload"]


class MP3DWorkload(Workload):
    name = "mp3d"
    paper_problem = "50,000 particles"

    def __init__(self, particles: int = 4096, cells: int = 2048,
                 steps: int = 4, collision_fraction: float = 0.2,
                 move_work: float = 60.0, seed: int = 11):
        self.n_particles = particles
        self.n_cells = cells
        self.steps = steps
        self.collision_fraction = collision_fraction
        self.move_work = move_work
        self.seed = seed

    def _trajectories(self, n_procs: int) -> List[Tuple[array, array]]:
        """Per step, two columns indexed by particle: the cell it lands in
        and its collision partner (-1 for none).

        Particles drift through the cell grid; the cell sequence is what
        creates the migratory-data sharing pattern.
        """
        rng = rng_stream(self.seed)
        cell_of = [rng() % self.n_cells for _ in range(self.n_particles)]
        steps: List[Tuple[array, array]] = []
        collision_cut = int(self.collision_fraction * 2**32)
        for _step in range(self.steps):
            partners = [-1] * self.n_particles
            occupants = {}
            for p in range(self.n_particles):
                # Drift to a nearby cell (unstructured but spatially local).
                delta = (rng() % 7) - 3
                cell_of[p] = (cell_of[p] + delta) % self.n_cells
                cell = cell_of[p]
                if rng() < collision_cut and cell in occupants:
                    partners[p] = occupants[cell]
                occupants[cell] = p
            steps.append((array("l", cell_of), array("l", partners)))
        return steps

    def build(self, config: MachineConfig):
        space = AddressSpace(config)
        P = config.n_procs
        particles = space.alloc(self.n_particles * PARTICLE_BYTES,
                                policy="block", name="mp3d.particles")
        cells = space.alloc(self.n_cells * CELL_BYTES, policy="round_robin",
                            name="mp3d.cells")
        globals_region = space.alloc(4096, policy="node", node=0,
                                     name="mp3d.globals")
        trajectories = self._trajectories(P)
        return [
            self._stream(config, cpu, particles, cells, globals_region,
                         trajectories)
            for cpu in range(P)
        ]

    def _stream(self, config: MachineConfig, cpu: int, particles, cells,
                globals_region, trajectories) -> Iterator[Tuple]:
        P = config.n_procs
        per = self.n_particles // P
        mine = range(cpu * per, (cpu + 1) * per)
        # A particle move touches position/velocity fields (~5 words) plus
        # the cell's counters (~4 words).
        ops = OpBuilder(work_per_ref=0.6, refs_per_access=4)

        def particle_addr(p: int) -> int:
            return particles.element(p, PARTICLE_BYTES)

        def cell_addr(c: int) -> int:
            return cells.element(c, CELL_BYTES)

        # Initialization: fill own particles (local, cold).
        for p in mine:
            yield from ops.write(particle_addr(p))
        yield from ops.flush()
        yield ("b", "mp3d.init")

        for step, (cell_col, partner_col) in enumerate(trajectories):
            for p in mine:
                cell = cell_col[p]
                partner = partner_col[p]
                # Move: read-modify-write the particle (local) ...
                yield from ops.read(particle_addr(p))
                yield from ops.compute(self.move_work)
                yield from ops.write(particle_addr(p))
                # ... and the space cell it lands in (migratory, shared).
                yield from ops.read(cell_addr(cell))
                yield from ops.write(cell_addr(cell))
                if partner >= 0:
                    # Collision: touch the partner particle too.
                    yield from ops.read(particle_addr(partner))
                    yield from ops.write(particle_addr(partner))
            # Global step accounting under a lock (MP3D's hot spot).
            yield from ops.flush()
            yield ("l", "mp3d.global")
            yield from ops.read(globals_region.addr(0))
            yield from ops.write(globals_region.addr(0))
            yield from ops.flush()
            yield ("u", "mp3d.global")
            yield ("b", ("mp3d.step", step))
