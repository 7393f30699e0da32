"""Parallel experiment run farm, tolerant of slow, crashing and flaky runs.

Every ``run_app`` configuration is independent, so a sweep (seven apps x two
machines x several regimes) is embarrassingly parallel.  The farm fans
normalized run specs out to worker processes; each worker executes
``run_app`` (hitting or populating the shared on-disk result cache) and ships
the serialized :class:`RunResult` back, which the parent deserializes and
seeds into the in-process memo so subsequent ``run_app``/``run_flash_ideal``
calls are instant.

Robustness (:class:`FarmPolicy`): each run gets an optional wall-clock
timeout (enforced by killing the worker, not by waiting politely), failures
are retried with exponential backoff, a worker killed by the OS (OOM killer,
SIGKILL) is detected through the broken process pool and the specs it took
down with it are resubmitted — serialized one at a time so a repeat solo
crash identifies which spec is the killer — and specs that keep failing are
quarantined so later sweeps in the same process skip them.  A sweep with
failures still returns every result it could compute
(:meth:`run_specs_resilient` -> :class:`FarmReport`); the strict
:func:`run_specs` wrapper raises :class:`FarmError` instead.

Parallelism is requested with ``--jobs N`` on ``python -m repro.harness`` or
the ``REPRO_JOBS`` environment variable (honored by ``benchmarks/_util.py``).
The fork start method is preferred: workers inherit the parent's interpreter
state (including the hash seed), so a farmed sweep is bit-identical to a
serial one.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ReproError
from ..stats.report import RunResult
from . import diskcache, envopts, experiments

__all__ = [
    "FarmError", "FarmPolicy", "SpecFailure", "FarmReport",
    "default_jobs", "sweep_specs", "run_specs", "run_specs_resilient",
    "run_suite", "clear_quarantine",
]


class FarmError(ReproError):
    """A farmed sweep could not complete every spec (strict mode)."""


@dataclass(frozen=True)
class FarmPolicy:
    """Failure-handling knobs for one farmed sweep.

    ``timeout``
        Per-run wall-clock budget in seconds; a worker past it is killed and
        the spec retried.  None (default) never times out.
    ``max_retries``
        How many times a failing spec is *re*-run after its first attempt.
    ``backoff``
        Base delay before a retry, doubling per attempt
        (``backoff * 2**(attempt-1)`` seconds).
    ``quarantine_after``
        After this many *final* failures (across sweeps in one process), the
        spec is skipped outright and reported as quarantined.
    """

    timeout: Optional[float] = None
    max_retries: int = 1
    backoff: float = 0.5
    quarantine_after: int = 3


@dataclass
class SpecFailure:
    """One spec the farm gave up on, and why."""

    spec: Dict
    kind: str               # "timeout" | "crash" | "error" | "quarantined"
    error: str
    attempts: int
    killed_worker: bool = False   # this spec, alone in flight, broke the pool
    quarantined: bool = False

    def describe(self) -> str:
        spec = self.spec
        where = (f"{spec.get('app')}/{spec.get('kind')}"
                 f"@{spec.get('regime')}")
        return (f"{where}: {self.kind} after {self.attempts} attempt(s): "
                f"{self.error}")

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec, "kind": self.kind, "error": self.error,
            "attempts": self.attempts, "killed_worker": self.killed_worker,
            "quarantined": self.quarantined,
        }


@dataclass
class FarmReport:
    """Everything a resilient sweep produced: results in spec order (None
    where the farm gave up) plus a machine-readable failure list."""

    results: List[Optional[RunResult]]
    failures: List[SpecFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> List[RunResult]:
        return [r for r in self.results if r is not None]

    def to_dict(self) -> Dict:
        return {
            "completed": sum(r is not None for r in self.results),
            "failed": len(self.failures),
            "failures": [f.describe() for f in self.failures],
        }


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    return envopts.jobs_from_env()


def sweep_specs(
    apps: Optional[Sequence[str]] = None,
    regime: str = "large",
    kinds: Sequence[str] = ("flash", "ideal"),
    **common,
) -> List[Dict]:
    """Normalized specs for an app x machine sweep (the Figure 4.1 shape).

    Apps that the paper does not run at ``regime`` (N/A cells) are skipped.
    """
    specs = []
    for app in apps if apps is not None else experiments.APP_ORDER:
        if experiments.regime_cache_bytes(app, regime) is None:
            continue
        for kind in kinds:
            specs.append(experiments.normalize_spec(
                app, kind=kind, regime=regime, **common))
    return specs


# -- quarantine --------------------------------------------------------------------------
#
# Final failures accumulate per canonical spec key for the lifetime of the
# parent process; a spec past ``quarantine_after`` is skipped by later sweeps
# so one poisoned configuration cannot stall every suite invocation.

_quarantine_counts: Dict[str, int] = {}


def clear_quarantine() -> None:
    _quarantine_counts.clear()


# -- workers -----------------------------------------------------------------------------

_SELFTEST_APP = "__selftest__"


def _selftest(spec: Dict) -> Optional[Dict]:
    """Fault-drill specs for the farm's own tests: ``app == "__selftest__"``
    makes the worker misbehave per ``workload_overrides`` (sleep, raise, die
    by SIGKILL, fail once then succeed).  Gated behind an environment flag so
    no real sweep can wander into it."""
    if spec.get("app") != _SELFTEST_APP:
        return None
    if os.environ.get("REPRO_FARM_SELFTEST") != "1":
        raise FarmError(
            "__selftest__ specs require REPRO_FARM_SELFTEST=1")
    return dict(spec.get("workload_overrides") or {})


def _selftest_worker(behavior: Dict) -> str:
    marker = behavior.get("flaky_marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("first attempt\n")
        if behavior.get("flaky_mode") == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("selftest: failing the first attempt")
    if behavior.get("sleep"):
        time.sleep(float(behavior["sleep"]))
    if behavior.get("die") == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if behavior.get("raise"):
        raise RuntimeError(str(behavior["raise"]))
    if behavior.get("ok_spec"):
        return experiments.run_spec(behavior["ok_spec"]).to_json()
    return json.dumps({"schema": "selftest", "ok": True})


def _worker(spec: Dict) -> str:
    """Run one spec in a worker process; results travel as canonical JSON."""
    behavior = _selftest(spec)
    if behavior is not None:
        return _selftest_worker(behavior)
    return experiments.run_spec(spec).to_json()


def _pool_context() -> multiprocessing.context.BaseContext:
    method = os.environ.get("REPRO_START_METHOD")
    if method:
        return multiprocessing.get_context(method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- the resilient scheduler -------------------------------------------------------------


def run_specs_resilient(
    specs: Iterable[Dict],
    jobs: Optional[int] = None,
    policy: Optional[FarmPolicy] = None,
) -> FarmReport:
    """Execute every spec, farming across ``jobs`` worker processes, and
    degrade gracefully: a spec that keeps timing out, crashing its worker or
    raising is retried per ``policy`` and then *reported* rather than sinking
    the sweep.  Results come back in spec order (None at failed slots) and
    successful ones seed the parent's memo table.
    """
    specs = list(specs)
    policy = policy if policy is not None else FarmPolicy()
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if not specs:
        return FarmReport([])
    # Serial only when the caller asked for it AND no timeout needs
    # enforcing (a wall-clock budget requires a killable worker process).
    if jobs <= 1 and policy.timeout is None:
        return _run_serial(specs, policy)
    return _run_farmed(specs, min(jobs, len(specs)), policy)


def _charge_final(spec: Dict, policy: FarmPolicy, kind: str, error: str,
                  attempts: int, killed_worker: bool = False) -> SpecFailure:
    key = diskcache.canonical_key(spec)
    count = _quarantine_counts.get(key, 0) + 1
    _quarantine_counts[key] = count
    return SpecFailure(spec, kind, error, attempts,
                       killed_worker=killed_worker,
                       quarantined=count >= policy.quarantine_after)


def _quarantined_failure(spec: Dict, policy: FarmPolicy) -> Optional[SpecFailure]:
    count = _quarantine_counts.get(diskcache.canonical_key(spec), 0)
    if count < policy.quarantine_after:
        return None
    return SpecFailure(
        spec, "quarantined",
        f"skipped: failed {count} prior sweep(s) (quarantine_after="
        f"{policy.quarantine_after})", 0, quarantined=True)


def _run_serial(specs: List[Dict], policy: FarmPolicy) -> FarmReport:
    """jobs=1 and no timeout: plain in-process loop (bit-identical to the
    pre-farm behaviour), still with retry/backoff and quarantine."""
    results: List[Optional[RunResult]] = [None] * len(specs)
    failures: List[SpecFailure] = []
    for i, spec in enumerate(specs):
        skip = _quarantined_failure(spec, policy)
        if skip is not None:
            failures.append(skip)
            continue
        attempts = 0
        while True:
            attempts += 1
            try:
                behavior = _selftest(spec)
                if behavior is not None:
                    results[i] = _selftest_worker(behavior)
                else:
                    results[i] = experiments.run_spec(spec)
                break
            except Exception as exc:  # noqa: BLE001 — every failure retries
                if attempts > policy.max_retries:
                    failures.append(_charge_final(
                        spec, policy, "error",
                        f"{type(exc).__name__}: {exc}", attempts))
                    break
                time.sleep(policy.backoff * 2 ** (attempts - 1))
    return FarmReport(results, failures)


def _run_farmed(specs: List[Dict], jobs: int,
                policy: FarmPolicy) -> FarmReport:
    ctx = _pool_context()
    results: List[Optional[RunResult]] = [None] * len(specs)
    failures_by_index: Dict[int, SpecFailure] = {}
    attempts = [0] * len(specs)
    suspects: set = set()   # indices being serialized after a pool break
    ready: List[Tuple[float, int, int]] = []   # (not_before, seq, index)
    seq = 0
    now = time.monotonic()
    for i, spec in enumerate(specs):
        skip = _quarantined_failure(spec, policy)
        if skip is not None:
            failures_by_index[i] = skip
        else:
            heapq.heappush(ready, (now, seq, i))
            seq += 1

    executor: Optional[ProcessPoolExecutor] = None
    inflight: Dict[object, Tuple[int, float]] = {}   # future -> (index, start)

    def ensure_executor() -> ProcessPoolExecutor:
        nonlocal executor
        if executor is None:
            executor = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
        return executor

    def kill_executor() -> None:
        """Tear the pool down *now* — terminate workers rather than joining
        them (a SIGKILLed or wedged worker never joins politely)."""
        nonlocal executor
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        executor = None

    def reschedule(index: int, kind: str, error: str,
                   killed: bool = False, charge: bool = True) -> None:
        nonlocal seq
        if charge and attempts[index] > policy.max_retries:
            failures_by_index[index] = _charge_final(
                specs[index], policy, kind, error, attempts[index],
                killed_worker=killed)
            suspects.discard(index)
            return
        if charge:
            delay = policy.backoff * 2 ** (attempts[index] - 1)
        else:
            # An innocent bystander (its worker was killed to enforce a
            # neighbour's timeout, or the pool collapsed under it): resubmit
            # without charging the attempt.
            attempts[index] = max(0, attempts[index] - 1)
            delay = 0.0
        heapq.heappush(ready, (time.monotonic() + delay, seq, index))
        seq += 1

    def pop_eligible() -> Optional[int]:
        if not ready:
            return None
        # Post-crash suspects run strictly alone, so a repeat crash
        # unambiguously names the spec that kills its worker.
        if any(idx in suspects for idx, _ in inflight.values()):
            return None
        not_before, _, index = ready[0]
        if not_before > time.monotonic():
            return None
        if index in suspects and inflight:
            return None
        heapq.heappop(ready)
        return index

    try:
        while ready or inflight:
            while len(inflight) < jobs:
                index = pop_eligible()
                if index is None:
                    break
                attempts[index] += 1
                future = ensure_executor().submit(_worker, specs[index])
                inflight[future] = (index, time.monotonic())
                if index in suspects:
                    break   # keep the suspect alone in flight
            if not inflight:
                if ready:   # waiting out a backoff timer
                    delay = ready[0][0] - time.monotonic()
                    time.sleep(min(max(delay, 0.01), 0.25))
                continue

            wait_timeout = 0.25
            if policy.timeout is not None:
                nearest = min(start + policy.timeout
                              for _, start in inflight.values())
                wait_timeout = min(wait_timeout,
                                   max(nearest - time.monotonic(), 0.0))
            done, _ = futures_wait(list(inflight), timeout=wait_timeout,
                                   return_when=FIRST_COMPLETED)

            crashed: List[int] = []
            for future in done:
                index, _start = inflight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    crashed.append(index)
                except Exception as exc:  # noqa: BLE001 — worker exceptions retry
                    reschedule(index, "error",
                               f"{type(exc).__name__}: {exc}")
                else:
                    suspects.discard(index)
                    if specs[index].get("app") == _SELFTEST_APP:
                        results[index] = payload
                    else:
                        result = RunResult.from_json(payload)
                        experiments.memoize(specs[index], result)
                        results[index] = result

            if crashed:
                # A worker died (SIGKILL/OOM): the pool is broken and every
                # in-flight future fails with it, innocent or not.  All of
                # them become suspects; only a spec that crashed *alone*
                # can be blamed outright.
                for future, (index, _start) in list(inflight.items()):
                    del inflight[future]
                    crashed.append(index)
                kill_executor()
                solo = len(crashed) == 1
                for index in crashed:
                    suspects.add(index)
                    reschedule(index, "crash",
                               "worker process died unexpectedly "
                               "(killed or out of memory)", killed=solo)
                continue

            if policy.timeout is not None and inflight:
                now = time.monotonic()
                expired = [(future, index) for future, (index, start)
                           in inflight.items()
                           if now - start > policy.timeout]
                if expired:
                    survivors = [(future, index) for future, (index, _s)
                                 in inflight.items()
                                 if (future, index) not in expired]
                    inflight.clear()
                    # The executor offers no per-task cancel once running;
                    # enforce the deadline by killing the pool.
                    kill_executor()
                    for _future, index in expired:
                        reschedule(index, "timeout",
                                   f"exceeded the {policy.timeout:g}s "
                                   f"wall-clock timeout")
                    for _future, index in survivors:
                        reschedule(index, "lost", "", charge=False)
    finally:
        kill_executor()

    failures = [failures_by_index[i] for i in sorted(failures_by_index)]
    return FarmReport(results, failures)


def run_specs(
    specs: Iterable[Dict],
    jobs: Optional[int] = None,
    policy: Optional[FarmPolicy] = None,
) -> List[RunResult]:
    """Strict farm: every spec must succeed.  Raises :class:`FarmError`
    naming each failed spec; partial results are still memoized (and cached
    on disk) by the time it raises."""
    report = run_specs_resilient(specs, jobs=jobs, policy=policy)
    if not report.ok:
        raise FarmError("; ".join(f.describe() for f in report.failures))
    return report.results


def run_suite(
    regime: str = "large", jobs: Optional[int] = None, **common
) -> Dict[Tuple[str, str], RunResult]:
    """Farm the full FLASH-vs-ideal sweep; keyed by ``(app, kind)``."""
    specs = sweep_specs(regime=regime, **common)
    results = run_specs(specs, jobs=jobs)
    return {(s["app"], s["kind"]): r for s, r in zip(specs, results)}
