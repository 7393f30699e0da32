"""Perf-history ledger: one JSONL record per perf_smoke run, keyed by git SHA.

``perf_smoke.py`` appends raw measurements to ``BENCH_kernel.json`` and
``BENCH_e2e.json``; this script folds the latest record of each into a
single ``benchmarks/BENCH_history.jsonl`` line stamped with the current
commit, then runs two checks:

* **absolute floors** (hard): ``references_per_sec`` and
  ``kernel_events_per_sec`` must clear :data:`ABS_FLOORS`; a breach exits
  2 and fails CI outright (which then uploads a profile artifact for
  triage).  The floors pin the callback-core fast path — a relative check
  alone could be walked down a few percent per commit.
* **relative regressions** (default 10 %): every throughput metric is
  compared against the most recent prior entry that has it; a worsening
  beyond the threshold exits 1 (CI passes ``--soft-regressions`` so
  runner noise annotates instead of failing).

::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    PYTHONPATH=src python benchmarks/perf_smoke.py --e2e
    python benchmarks/history.py              # append + check
    python benchmarks/history.py --check-only # check without appending
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
KERNEL_FILE = os.path.join(BENCH_DIR, "BENCH_kernel.json")
E2E_FILE = os.path.join(BENCH_DIR, "BENCH_e2e.json")
HISTORY_FILE = os.path.join(BENCH_DIR, "BENCH_history.jsonl")

#: Tracked metrics and which direction is better.
METRICS: Dict[str, str] = {
    "kernel_events_per_sec": "higher",
    "references_per_sec": "higher",
    "e2e_fft1k_seconds": "lower",
    "sweep_seconds": "lower",
    # Model-checker throughput (oracle-checked references/second on the
    # fixed perf_smoke randmem run): gates SWMR/SC oracle overhead.
    "check_ops_per_sec": "higher",
    # Observability-layer throughput (completed open-loop requests/second
    # on the fixed monitored+traced perf_smoke openloop run): gates the
    # latency monitor's and request markers' observation overhead.
    "loadlat_reqs_per_sec": "higher",
    # Critical-path extraction throughput (wait segments + retired
    # transactions processed per second of extraction on the fixed traced
    # perf_smoke fft run): gates the backward-walk cost every traced run
    # and every whatif baseline pays at end of run.
    "critpath_spans_per_sec": "higher",
}

DEFAULT_THRESHOLD = 0.10

#: Hard absolute floors (same units as the metric).  Unlike the relative
#: regression check — which only compares adjacent commits and so can be
#: walked down a few percent at a time — a floor breach always fails the
#: gate.  Values sit well under the reference-container measurements
#: (≈530–570k refs/s on the cold Figure 4.1 sweep, ≈1.5M ev/s on the
#: coroutine kernel microbench), so CI jitter clears them but losing the
#: callback fast path cannot.
ABS_FLOORS: Dict[str, float] = {
    "references_per_sec": 460_000,
    "kernel_events_per_sec": 1_000_000,
}

#: Per-app/kind hard floors on the cold-sweep simulation rate
#: (``per_app_refs_per_sec`` in the latest ``BENCH_e2e.json`` record),
#: ~50 % under reference-container measurements (apps differ by >10x in
#: refs/s because miss traffic per reference differs): wide enough for
#: runner noise, tight enough that one app losing its fast path entirely
#: trips its own named floor even when the aggregate stays above
#: ``ABS_FLOORS``.
PER_APP_FLOORS: Dict[str, float] = {
    "barnes/flash": 150_000,
    "barnes/ideal": 240_000,
    "fft/flash": 380_000,
    "fft/ideal": 480_000,
    "lu/flash": 170_000,
    "lu/ideal": 250_000,
    "mp3d/flash": 30_000,
    "mp3d/ideal": 50_000,
    "ocean/flash": 260_000,
    "ocean/ideal": 400_000,
    "os/flash": 300_000,
    "os/ideal": 480_000,
    "radix/flash": 80_000,
    "radix/ideal": 110_000,
}


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=BENCH_DIR, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def latest_record(path: str) -> Optional[dict]:
    """Last entry of a ``BENCH_*.json`` list file, or None."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            records = json.load(fh)
    except ValueError:
        return None
    return records[-1] if records else None


def build_record(sha: Optional[str] = None) -> dict:
    """One history line: stamp + whatever tracked metrics the latest
    perf_smoke records carry (a kernel-only CI run simply has no sweep
    metrics; the regression check skips what is absent)."""
    record = {
        "sha": sha if sha is not None else git_sha(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
    }
    for path in (KERNEL_FILE, E2E_FILE):
        source = latest_record(path)
        if source:
            for metric in METRICS:
                if metric in source:
                    record[metric] = source[metric]
    return record


def load_history(path: str = HISTORY_FILE) -> List[dict]:
    """All parseable history lines, oldest first (torn lines skipped)."""
    records: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    return records


def append_record(record: dict, path: str = HISTORY_FILE) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def check_regressions(history: List[dict], record: dict,
                      threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Compare ``record`` against the most recent prior entry carrying each
    metric; return one message per metric whose *worsening* exceeds
    ``threshold`` (improvements never flag)."""
    flags: List[str] = []
    for metric, direction in METRICS.items():
        if metric not in record:
            continue
        baseline = None
        for prior in reversed(history):
            if metric in prior:
                baseline = prior
                break
        if baseline is None:
            continue
        base = float(baseline[metric])
        new = float(record[metric])
        if base <= 0:
            continue
        change = (new - base) / base
        worse = -change if direction == "higher" else change
        if worse > threshold:
            flags.append(
                f"{metric}: {base:g} -> {new:g} ({change:+.1%};"
                f" worse by {worse:.1%} > {threshold:.0%} threshold,"
                f" baseline {baseline.get('sha', '?')[:12]})")
    return flags


def check_floors(record: dict,
                 floors: Optional[Dict[str, float]] = None) -> List[str]:
    """Absolute-floor breaches in ``record``: one message per tracked
    metric that fell below its :data:`ABS_FLOORS` value.  A metric the
    record does not carry is skipped (a kernel-only run has no sweep)."""
    if floors is None:
        floors = ABS_FLOORS
    breaches: List[str] = []
    for metric, floor in floors.items():
        if metric not in record:
            continue
        value = float(record[metric])
        if value < floor:
            breaches.append(
                f"{metric}: {value:g} < hard floor {floor:g}"
                f" ({(floor - value) / floor:.1%} below)")
    return breaches


def check_app_floors(e2e_record: Optional[dict],
                     floors: Optional[Dict[str, float]] = None) -> List[str]:
    """Per-app/kind floor breaches against the latest e2e sweep record's
    ``per_app_refs_per_sec`` map.  Missing record, missing map (a record
    from before per-app rates were recorded), or an app/kind the map lacks
    are all skipped — the check tightens only where measurements exist."""
    if floors is None:
        floors = PER_APP_FLOORS
    if not e2e_record:
        return []
    rates = e2e_record.get("per_app_refs_per_sec")
    if not isinstance(rates, dict):
        return []
    breaches: List[str] = []
    for key, floor in sorted(floors.items()):
        value = rates.get(key)
        if value is None:
            continue
        if float(value) < floor:
            breaches.append(
                f"{key}: {float(value):g} refs/s < hard floor {floor:g}"
                f" ({(floor - float(value)) / floor:.1%} below)")
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="append the latest perf_smoke measurements to the"
                    " perf-history ledger, enforce the absolute throughput"
                    " floors, and flag relative regressions")
    parser.add_argument("--history", default=HISTORY_FILE, metavar="FILE",
                        help=f"history ledger (default: {HISTORY_FILE})")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="R",
                        help="relative worsening that flags a regression"
                             " (default: 0.10)")
    parser.add_argument("--check-only", action="store_true",
                        help="compare without appending a new record")
    parser.add_argument("--soft-regressions", action="store_true",
                        help="print relative regressions without failing"
                             " (absolute floors stay hard); CI uses this so"
                             " runner noise annotates instead of failing,"
                             " while a floor breach still fails the job")
    parser.add_argument("--no-floors", action="store_true",
                        help="skip the absolute-floor check (local runs on"
                             " slow hardware)")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON report on"
                             " stdout (record, regressions, floor breaches,"
                             " exit status) for CI annotation; exit codes"
                             " are unchanged")
    args = parser.parse_args(argv)

    record = build_record()
    tracked = [m for m in METRICS if m in record]
    if not tracked:
        print("no perf_smoke records found (run benchmarks/perf_smoke.py"
              " first); nothing to do", file=sys.stderr)
        return 0
    history = load_history(args.history)
    flags = check_regressions(history, record, args.threshold)
    breaches: List[str] = []
    if not args.no_floors:
        breaches = check_floors(record)
        breaches += check_app_floors(latest_record(E2E_FILE))
    if not args.check_only:
        append_record(record, args.history)
    status = 2 if breaches else (1 if flags and not args.soft_regressions
                                 else 0)
    if args.json:
        report = {
            "record": record,
            "prior_records": len(history),
            "appended": not args.check_only,
            "regressions": flags,
            "regressions_soft": bool(args.soft_regressions),
            "floor_breaches": breaches,
            "abs_floors": ABS_FLOORS,
            "per_app_floors": PER_APP_FLOORS,
            "status": status,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        return status
    print(json.dumps(record, sort_keys=True, indent=2))
    action = "checked against" if args.check_only else "appended to"
    print(f"{action} {args.history} ({len(history)} prior record(s))")
    for flag in flags:
        print(f"REGRESSION {flag}", file=sys.stderr)
    for breach in breaches:
        print(f"FLOOR {breach}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
