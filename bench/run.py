"""The repo benchmark: four FLASH-vs-ideal workloads, host speed and the
simulated results that must not move.

Usage::

    python bench/run.py [--workloads a,b] [--seed S] [--repeats N]
                        [--seconds T] [--trace [0|1]] [--smoke] [--out FILE]

Every repeat runs in its own fresh child interpreter (``bench/child.py``),
one child at a time, with every ``REPRO_*`` variable scrubbed from its
environment.  Repeats go round-robin across the workloads so that host drift
spreads evenly over them.  ``--repeats`` fixes the number of rounds (5 by
default, 1 with ``--trace`` or ``--smoke``); ``--seconds`` instead starts
rounds while the next one is expected to fit in T seconds, with at least
two.  Workloads with fewer set-up samples than ``SETUP_SAMPLES`` get extra
children that only set up.

``--trace`` adds one traced child per workload after the plain rounds; its
output is the per-layer metrics.  Without it the output is the end-to-end
metrics.  Each metric is printed by name with its unit, and the last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any run failed a check, crashed or
timed out, and 2 before any run when the simulator source is missing.

``bench/README.md`` documents the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from layers import LAYER_NAMES  # noqa: E402  (needs the path above)

KINDS = ("flash", "ideal")

#: name -> (app, cache regime, takes --seed, observers attached).  All are
#: closed-system: a fixed reference trace per CPU runs to completion on 16
#: CPUs at the default problem size, from empty caches.
WORKLOADS = {
    # protocol-bound: 13% misses, mostly remote-dirty migratory sharing
    "mp3d": ("mp3d", "large", True, False),
    # hit-bound: 1.1% misses over 3.46M refs; the CPU hit loop dominates
    "ocean": ("ocean", "large", False, False),
    # capacity-bound and write-heavy: 2 KB caches, 21% misses
    "radix_small": ("radix", "small", True, False),
    # mp3d's traffic with tracer, metrics registry and watchdog attached
    "mp3d_observed": ("mp3d", "large", True, True),
}

#: The paper's Figure 4.1 FLASH-over-ideal slowdowns (%), large caches.
#: radix_small has no paper counterpart (the paper reports no slowdown for
#: Radix at the small cache size), so it reports no paper gap.
PAPER_SLOWDOWN_PCT = {"mp3d": 25.0, "ocean": 8.0, "mp3d_observed": 25.0}

#: The end-to-end metrics, the output of ``--trace 0``.
END_TO_END = ("refs_per_s", "setup_s", "peak_rss_mb")

CHILD_TIMEOUT_S = 150
MIN_TIMED_ROUNDS = 2
SETUP_SAMPLES = 5
PYTHONHASHSEED = "0"
#: Set in the children of observed workloads only.
OBSERVED_ENV = {"REPRO_WATCHDOG": "on"}


class Child:
    """One child run: its mode, its record (None if it produced none) and
    the reasons it failed."""

    def __init__(self, mode: str, record: Optional[dict],
                 errors: List[str]):
        self.mode = mode
        self.record = record
        self.errors = errors


class Tally:
    """Everything measured for one workload in one invocation."""

    def __init__(self, name: str):
        self.name = name
        self.children: List[Child] = []

    def records(self, mode: str) -> List[dict]:
        return [child.record for child in self.children
                if child.mode == mode and child.record is not None]

    @property
    def setup_samples(self) -> List[float]:
        return [child.record["setup_s"] for child in self.children
                if child.mode in ("plain", "setup")
                and child.record is not None]

    @property
    def failed(self) -> int:
        return sum(1 for child in self.children if child.errors)


# -- children -----------------------------------------------------------------


def child_env(observed: bool) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    if observed:
        env.update(OBSERVED_ENV)
    return env


def make_job(workload: str, mode: str, args) -> dict:
    app, regime, seeded, observed = WORKLOADS[workload]
    overrides = {"seed": args.seed} if seeded and args.seed is not None \
        else {}
    return {"app": app, "regime": regime, "overrides": overrides,
            "smoke": args.smoke, "observed": observed, "mode": mode,
            "span_file": (OUT / f"{workload}.trace.json")
            .relative_to(ROOT).as_posix()}


def run_child(job: dict) -> Child:
    command = [sys.executable, str(BENCH / "child.py"), json.dumps(job)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=child_env(job["observed"]),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Child(job["mode"], None, [f"timeout after {CHILD_TIMEOUT_S}s"])
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = None
    if proc.returncode == 0 and record is not None and "error" not in record:
        return Child(job["mode"], record, [])
    reason = (record or {}).get("error") or \
        (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return Child(job["mode"], None, [f"exit {proc.returncode}: {reason}"])


def measure(names: List[str], args) -> Dict[str, Tally]:
    tallies = {name: Tally(name) for name in names}
    start = time.perf_counter()
    if "mp3d_observed" in tallies and "mp3d" not in tallies:
        # The identity check needs mp3d's plain result for the same seed.
        tallies["mp3d_observed"].children.append(
            run_child(make_job("mp3d", "reference", args)))
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for name in names:
            tallies[name].children.append(
                run_child(make_job(name, "plain", args)))
        rounds += 1
        now = time.perf_counter()
        if args.seconds is None:
            if rounds >= args.repeats:
                break
        elif rounds >= MIN_TIMED_ROUNDS and \
                now - start + (now - round_start) > args.seconds:
            break
    # setup_s is an end-to-end metric, so only untraced runs probe for it.
    missing = {name: 0 if args.trace else
               SETUP_SAMPLES - len(tally.setup_samples)
               for name, tally in tallies.items()}
    for probe in range(max(missing.values())):
        for name in names:
            if probe < missing[name]:
                tallies[name].children.append(
                    run_child(make_job(name, "setup", args)))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        for name in names:
            tallies[name].children.append(
                run_child(make_job(name, "traced", args)))
    for tally in tallies.values():
        check(tally, tallies)
    return tallies


# -- correctness ----------------------------------------------------------------


def check(tally: Tally, tallies: Dict[str, Tally]) -> None:
    """Determinism across repeats, traced == plain, and observed == plain
    once the observer blocks are stripped.  Quiesce invariants ran in the
    children; a violation there already failed the child."""
    plain = [c for c in tally.children if c.mode == "plain" and c.record]
    if not plain:
        return
    expected = {kind: plain[0].record["kinds"][kind]["sha"] for kind in KINDS}
    for child in plain[1:]:
        for kind in KINDS:
            if child.record["kinds"][kind]["sha"] != expected[kind]:
                child.errors.append(f"determinism: {kind} result differs "
                                    "from the first repeat")
    for child in tally.children:
        if child.mode == "traced" and child.record:
            for kind in KINDS:
                if child.record["kinds"][kind]["sha"] != expected[kind]:
                    child.errors.append(f"traced: {kind} result differs "
                                        "from the plain run")
    if WORKLOADS[tally.name][3]:
        source = tallies["mp3d"] if "mp3d" in tallies else tally
        mode = "plain" if "mp3d" in tallies else "reference"
        references = source.records(mode)
        if not references:
            plain[0].errors.append("identity: no plain mp3d result")
            return
        for child in plain:
            for kind in KINDS:
                if child.record["kinds"][kind]["core_sha"] != \
                        references[0]["kinds"][kind]["sha"]:
                    child.errors.append(f"identity: {kind} core result "
                                        "differs from plain mp3d")


# -- metrics ----------------------------------------------------------------------


def spread(samples: List[float]) -> dict:
    """Median, interquartile range and count of repeat samples."""
    median = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {"median": median, "iqr": iqr, "n": len(samples),
            "samples": samples}


def end_to_end(tally: Tally) -> Dict[str, dict]:
    plain = tally.records("plain")
    if not plain:
        return {}
    refs = sum(plain[0]["kinds"][kind]["sim"]["refs"] for kind in KINDS)
    best = sum(min(r["kinds"][kind]["run_s"] for r in plain)
               for kind in KINDS)
    rates = [refs / sum(r["kinds"][kind]["run_s"] for kind in KINDS)
             for r in plain]
    setup = spread(tally.setup_samples)
    rss = spread([r["peak_rss_mb"] for r in plain])
    return {
        "refs_per_s": dict(spread(rates), value=refs / best, unit="refs/s",
                           stat="best"),
        "setup_s": dict(setup, value=setup["median"], unit="s",
                        stat="median"),
        "peak_rss_mb": dict(rss, value=rss["median"], unit="MiB",
                            stat="median"),
    }


def simulated(tally: Tally) -> Dict[str, dict]:
    """Exact statistics of the first plain repeat (identical in every
    repeat, or the determinism check failed)."""
    plain = tally.records("plain")
    if not plain:
        return {}
    flash = plain[0]["kinds"]["flash"]["sim"]
    ideal = plain[0]["kinds"]["ideal"]["sim"]
    slowdown = (flash["exec_cycles"] / ideal["exec_cycles"] - 1) * 100
    values = {
        "sim.refs": (flash["refs"] + ideal["refs"], "count"),
        "sim.exec_cycles.flash": (flash["exec_cycles"], "cycles"),
        "sim.exec_cycles.ideal": (ideal["exec_cycles"], "cycles"),
        "sim.slowdown_pct": (slowdown, "%"),
        "processor.miss_rate": (flash["miss_rate"], "ratio"),
        "processor.read_stall_share.flash": (flash["read_stall_share"],
                                             "ratio"),
        "processor.write_stall_share.flash": (flash["write_stall_share"],
                                              "ratio"),
        "magic.pp_occupancy_avg.flash": (flash["pp_occupancy_avg"], "ratio"),
        "magic.pp_occupancy_max.flash": (flash["pp_occupancy_max"], "ratio"),
        "magic.handlers.flash": (flash["handlers"], "count"),
        "magic.fused_share.flash": (flash["fused_share"], "ratio"),
        "memory.occupancy_avg.flash": (flash["memory_occupancy_avg"],
                                       "ratio"),
        "network.messages.flash": (flash["messages"], "count"),
        "protocol.remote_dirty_share.flash": (flash["remote_dirty_share"],
                                              "ratio"),
    }
    return {name: {"value": value, "unit": unit, "exact": True}
            for name, (value, unit) in values.items()}


def per_layer(tally: Tally, sim: Dict[str, dict]) -> Dict[str, dict]:
    """Host time per layer from the traced child, beside the plain bests."""
    traced = tally.records("traced")
    plain = tally.records("plain")
    if not traced or not plain:
        return {}
    layers = traced[0]["layers"]
    best = {kind: min(r["kinds"][kind]["run_s"] for r in plain)
            for kind in KINDS}
    traced_run = sum(traced[0]["kinds"][kind]["run_s"] for kind in KINDS)
    metrics: Dict[str, dict] = {}
    for layer in LAYER_NAMES:
        calls, self_s = layers[layer]
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count",
                                     "exact": True}
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{layer}.ns_per_call"] = {
            "value": self_s / calls * 1e9 if calls else 0.0, "unit": "ns"}
    residual = layers["sim.run"][1] + layers["machine.run"][1]
    handlers = sim["magic.handlers.flash"]["value"]
    host = {
        "machine.run_s.flash": (best["flash"], "s"),
        "machine.run_s.ideal": (best["ideal"], "s"),
        "attributed_share": (1 - residual / traced_run, "ratio"),
        # Plain runs generate op streams lazily inside Machine.run; the
        # traced run materialises them first, so both sides include them.
        "trace_overhead": ((traced_run + layers["apps.generate"][1])
                           / sum(best.values()) - 1, "ratio"),
        "protocol.calls_per_kref": (layers["protocol"][0] * 1000
                                    / sim["sim.refs"]["value"], "count"),
        "magic.host_ns_per_handler.flash": (
            best["flash"] * 1e9 / handlers if handlers else 0.0, "ns"),
    }
    for name, (value, unit) in host.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# -- reporting --------------------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (the benchmark
    may run from a checkout that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args, rounds: Dict[str, int]) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "settings": {
            "rounds": rounds,
            "repeats": args.repeats,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "child_timeout_s": CHILD_TIMEOUT_S,
            "setup_samples": SETUP_SAMPLES,
            "pythonhashseed": PYTHONHASHSEED,
            "observed_env": OBSERVED_ENV,
            "scrubbed_env": sorted(key for key in os.environ
                                   if key.startswith("REPRO_")),
            "workloads": {name: make_job(name, "plain", args)
                          for name in rounds},
        },
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(tally: Tally, args) -> dict:
    """Print the workload's metrics; return its record."""
    e2e = end_to_end(tally)
    sim = simulated(tally)
    layer = per_layer(tally, sim) if args.trace else {}
    attempted = len(tally.children)
    metrics = dict(e2e)
    metrics["fail_frac"] = {"value": tally.failed / attempted,
                            "unit": "ratio", "exact": True}
    metrics.update(sim)
    if sim and tally.name in PAPER_SLOWDOWN_PCT:
        gap = sim["sim.slowdown_pct"]["value"] - PAPER_SLOWDOWN_PCT[tally.name]
        metrics["paper_gap_pp"] = {"value": abs(gap), "unit": "pp",
                                   "exact": True}
    metrics.update(layer)
    for name, metric in metrics.items():
        extra = ""
        if "n" in metric:
            extra = (f"  {metric['stat']} of n={metric['n']}; median "
                     f"{fmt(metric['median'])}, IQR {fmt(metric['iqr'])}")
        print(f"{tally.name:14s} {name:40s} {fmt(metric['value']):>14s} "
              f"{metric['unit']}{extra}")
    plain = tally.records("plain")
    shas = {kind: plain[0]["kinds"][kind]["sha"] for kind in KINDS} \
        if plain else {}
    for kind, sha in shas.items():
        print(f"{tally.name:14s} {'result_sha.' + kind:40s} {sha}")
    for child in tally.children:
        for error in child.errors:
            print(f"{tally.name:14s} FAILED ({child.mode}): {error}")
    traced = tally.records("traced")
    return {
        "attempted": attempted,
        "failed": tally.failed,
        "failures": [f"{child.mode}: {error}" for child in tally.children
                     for error in child.errors],
        "result_sha": shas,
        "spans": traced[0]["spans"] if traced else None,
        "metrics": metrics,
        "contract": list(layer) + list(sim) if args.trace else END_TO_END,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="FLASH-vs-ideal simulator benchmark")
    parser.add_argument("--workloads", "--workload",
                        default=",".join(WORKLOADS),
                        help="comma-separated subset of "
                        + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed for mp3d and radix "
                        "(default: each app's own)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="plain rounds (default 5; 1 with --trace or "
                        "--smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the plain rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced run; print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale problem sizes "
                        "(experiments.SMOKE_SIZES)")
    parser.add_argument("--out", help="write the full record as JSON")
    args = parser.parse_args(argv)
    names = [name.strip() for name in args.workloads.split(",")
             if name.strip()]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or not names:
        parser.error(f"unknown workloads {unknown}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.repeats is None:
        args.repeats = 1 if (args.trace or args.smoke) else 5
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args, names


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tallies = measure(names, args)
    rounds = {name: len(t.records("plain")) for name, t in tallies.items()}
    records = {name: report(tally, args) for name, tally in tallies.items()}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if args.out:
        document = {"stamp": stamp(args, rounds), "correct": failed == 0,
                    "attempted": attempted, "failed": failed,
                    "workloads": records}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    contract = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else f"{name}/"
        for metric in record["contract"]:
            if metric in record["metrics"]:
                value = record["metrics"][metric]
                contract[prefix + metric] = {"value": value["value"],
                                             "unit": value["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": contract}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
