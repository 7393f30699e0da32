"""Experiment harness: per-table experiments (``experiments``),
microbenchmarks (``micro``), rendering (``tables``), the parallel run farm
(``runfarm``) and the persistent result cache (``diskcache``).

The package imports none of its submodules, so a caller pays only for what
it names: ``from repro.harness import experiments`` does not pull in the
run farm's ``multiprocessing`` and ``concurrent.futures``."""
