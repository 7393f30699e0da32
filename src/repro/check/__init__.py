"""Coherence model checker: random traffic, oracles, invariants, shrinking.

Three layers (see docs/robustness.md, "Model checking"):

1. :mod:`repro.apps.randmem` drives seeded concurrent loads / stores /
   lock RMWs over a small Zipf-skewed contended line set, while the
   :class:`~repro.check.oracle.CoherenceOracle` shadows every performed
   write with a version token and asserts SWMR and per-location SC at
   each retiring access.
2. :mod:`repro.check.invariants` cross-validates directory state against
   cache tags, MSHRs and the link store at every barrier quiesce point
   (pending-tolerant) and at end of run (strict, via
   :meth:`repro.machine.Machine.assert_quiesced`).
3. :mod:`repro.check.workload` sweeps seeds x machine shapes x protocols
   x fault plans, and :mod:`repro.check.shrink` reduces any failure
   to a minimal replayable JSON reproducer.

Everything here is strictly observational: with no oracle attached the
simulation is byte-identical to an unchecked run (the golden matrix
enforces this).
"""

from .invariants import check_invariants, line_dump
from .oracle import CoherenceOracle
from .shrink import load_reproducer, replay, save_reproducer, shrink
from .workload import (
    KINDS, PROTOCOLS, CheckReport, CheckSpec, iter_specs, run_check,
)

__all__ = [
    "CoherenceOracle",
    "CheckReport",
    "CheckSpec",
    "KINDS",
    "PROTOCOLS",
    "check_invariants",
    "iter_specs",
    "line_dump",
    "load_reproducer",
    "replay",
    "run_check",
    "save_reproducer",
    "shrink",
]
