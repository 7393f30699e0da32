"""Command-line experiment runner.

Usage::

    python -m repro.harness list
    python -m repro.harness latencies            # Table 3.3
    python -m repro.harness run fft              # one app, FLASH vs ideal
    python -m repro.harness run mp3d --regime small --procs 16
    python -m repro.harness suite                # Figure 4.1 sweep
    python -m repro.harness --jobs 4 suite       # ... farmed over 4 workers
    python -m repro.harness trace fft --summary  # latency decomposition table
    python -m repro.harness trace fft --out fft.json   # Chrome trace_event JSON
    python -m repro.harness whatif fft --fast    # causal profile: scale handler
    python -m repro.harness whatif fft --handlers get_owner --scales 0.5,2  # costs
    python -m repro.harness faults fft           # slowdown vs injected-fault rate
    python -m repro.harness check --seed 0 --ops 2000   # coherence model checker
    python -m repro.harness check --replay .repro_check/check-repro-....json
    python -m repro.harness loadlat fft --fast   # load vs tail-latency curve
    python -m repro.harness loadlat mp3d --points 8 --json --out curve.json
    python -m repro.harness summary fft --json   # RunResult.summary() scalars
    python -m repro.harness compare fft --vs ideal --fast   # metric delta table
    python -m repro.harness diff fft/flash fft/ideal --fast # same, explicit sides
    python -m repro.harness diff old.json new.json --threshold 0.1  # regression gate
    python -m repro.harness clear                # wipe the on-disk result cache

Results persist in ``.repro_cache/`` (disable with ``REPRO_CACHE=off``), so
repeated invocations reuse prior simulations; ``--jobs``/``REPRO_JOBS`` farm
independent configurations across worker processes.  The full per-table
reproduction lives in ``benchmarks/`` (pytest-benchmark); this CLI is for
interactive exploration.
"""

from __future__ import annotations

import argparse
import sys

from ..apps.openloop import PROFILES as LOADLAT_PROFILES
from ..common.params import flash_config, ideal_config
from ..faults import FaultPlan
from . import diskcache, envopts, loadlat, runfarm
from .experiments import (
    APP_ORDER, REGIMES, run_app, run_flash_ideal, slowdown,
)
from .micro import PAPER_TABLE_3_3, measure_latencies
from .tables import render_table
from ..protocol.coherence import MissClass


def _farm_policy(args) -> runfarm.FarmPolicy:
    return runfarm.FarmPolicy(timeout=args.timeout, max_retries=args.retries)


def cmd_list(_args) -> int:
    print("applications:", ", ".join(APP_ORDER))
    print("regimes:")
    for regime, sizes in REGIMES.items():
        cells = ", ".join(
            f"{app}={size // 1024}KB" if size else f"{app}=N/A"
            for app, size in sizes.items()
        )
        print(f"  {regime:7} {cells}")
    return 0


def cmd_latencies(_args) -> int:
    flash = measure_latencies(flash_config(16))
    ideal = measure_latencies(ideal_config(16))
    rows = []
    for cls in MissClass.ALL:
        paper_ideal, paper_flash, paper_occ = PAPER_TABLE_3_3[cls]
        rows.append((cls, ideal[cls].latency, paper_ideal,
                     flash[cls].latency, paper_flash,
                     flash[cls].pp_occupancy, paper_occ))
    print(render_table(
        "Table 3.3 - no-contention miss latencies (10ns cycles)",
        ["class", "ideal", "paper", "FLASH", "paper", "PP occ", "paper"],
        rows,
    ))
    return 0


def cmd_clear(_args) -> int:
    dropped = diskcache.default_cache.clear()
    print(f"cleared {dropped} cached result(s) from {diskcache.cache_root()}")
    return 0


def cmd_run(args) -> int:
    if args.jobs > 1:
        runfarm.run_specs(
            runfarm.sweep_specs(apps=[args.app], regime=args.regime,
                                n_procs=args.procs),
            jobs=args.jobs, policy=_farm_policy(args),
        )
    flash, ideal = run_flash_ideal(args.app, regime=args.regime,
                                   n_procs=args.procs)
    rows = []
    for result in (flash, ideal):
        b = result.breakdown
        rows.append((
            result.kind, f"{result.execution_time:.0f}",
            f"{result.miss_rate:.2%}", f"{result.avg_pp_occupancy:.1%}",
            f"{result.avg_memory_occupancy:.1%}",
            f"{b['busy'] / max(1e-9, sum(b.values())):.1%}",
        ))
    print(render_table(
        f"{args.app} @ {args.regime}",
        ["machine", "exec time", "miss rate", "PP occ", "mem occ", "util"],
        rows,
    ))
    print(f"\ncost of flexibility: {slowdown(flash, ideal):.1%}")
    return 0


def cmd_trace(args) -> int:
    """One traced (uncached) run: latency decomposition and/or Chrome JSON."""
    import json

    from . import experiments
    from ..stats import timeseries
    from ..stats.critpath import render_critpath
    from ..stats.trace import (
        parse_nodes, render_decomposition, validate_trace_events,
    )

    trace_spec = {}
    if args.buf is not None:
        trace_spec["buf"] = args.buf
    if args.nodes is not None:
        trace_spec["nodes"] = parse_nodes(args.nodes)
    if args.sample is not None:
        trace_spec["sample"] = args.sample
    overrides = envopts.smoke_overrides(args.app, args.fast)
    spec = experiments.normalize_spec(
        args.app, kind=args.kind, regime=args.regime, n_procs=args.procs,
        workload_overrides=overrides, trace=trace_spec or True)
    result, tracer = experiments.run_traced(spec)
    if args.summary or not args.out:
        title = (f"{args.app}/{args.kind} regime={args.regime} "
                 f"latency decomposition "
                 f"({result.references} refs, T={result.execution_time:.0f})")
        print(render_decomposition(result.latency_decomposition, result,
                                   title=title))
        if result.critpath is not None:
            print()
            print(render_critpath(result.critpath))
        hot = timeseries.hot_windows(tracer)
        if any(hot.values()):
            print("\nhottest sampling windows:")
            for metric, windows in sorted(hot.items()):
                cells = ", ".join(
                    f"t={row['t']:.0f} node{row['node']}={row['value']:.3g}"
                    for row in windows)
                print(f"  {metric:17} {cells}")
    if args.out:
        categories = None
        if args.filter:
            categories = [part.strip()
                          for part in args.filter.replace("+", ",").split(",")
                          if part.strip()]
        payload = tracer.to_trace_events(categories=categories)
        count = validate_trace_events(payload)
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
        print(f"wrote {count} trace events to {args.out}"
              f" (chrome://tracing or https://ui.perfetto.dev)")
    return 0


def cmd_suite(args) -> int:
    report = None
    if args.jobs > 1:
        # Farm the whole sweep up front; the loop below then hits the memo.
        # Resilient mode: a crashing/hanging configuration degrades to a
        # FAILED row instead of sinking the whole suite.
        report = runfarm.run_specs_resilient(
            runfarm.sweep_specs(regime=args.regime),
            jobs=args.jobs, policy=_farm_policy(args))
        for failure in report.failures:
            print(f"  FAILED {failure.describe()}", file=sys.stderr)
    rows = []
    for app in APP_ORDER:
        try:
            flash, ideal = run_flash_ideal(app, regime=args.regime)
        except Exception as exc:  # noqa: BLE001 — degrade to a FAILED row
            rows.append((app, "FAILED", "FAILED", f"{type(exc).__name__}"))
            print(f"  {app}: FAILED ({exc})", file=sys.stderr)
            continue
        rows.append((app, f"{flash.execution_time:.0f}",
                     f"{ideal.execution_time:.0f}",
                     f"{slowdown(flash, ideal):.1%}"))
        print(f"  {app}: {slowdown(flash, ideal):.1%}", file=sys.stderr)
    print(render_table(
        f"FLASH vs ideal, regime={args.regime} (paper: 2-12% optimized,"
        " ~25% MP3D)",
        ["app", "FLASH", "ideal", "slowdown"], rows,
    ))
    if report is not None and not report.ok:
        return 1
    return 0


def cmd_faults(args) -> int:
    """Robustness sweep: one app under increasing uniform fault rates.

    A raising run (stall, protocol error, watchdog trip) becomes a FAILED
    row instead of sinking the sweep, and the command exits nonzero if any
    swept rate failed; ``--json`` emits a machine-readable report (a
    ``record`` of the swept rates, the ``failures`` and an ok/fail
    ``status``) for scripted robustness gates."""
    import json

    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    overrides = envopts.smoke_overrides(args.app, args.fast)
    failures = []
    try:
        clean = run_app(args.app, regime=args.regime, n_procs=args.procs,
                        workload_overrides=overrides)
    except Exception as exc:  # noqa: BLE001 — report and bail: no baseline
        print(f"faults: clean run failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        if args.json:
            print(json.dumps({
                "record": {"app": args.app, "regime": args.regime,
                           "seed": args.seed, "rates": []},
                "failures": [{"rate": 0.0, "error_type": type(exc).__name__,
                              "error": str(exc)}],
                "status": "fail",
            }, sort_keys=True, indent=2))
        return 1
    rows = [("0 (clean)", f"{clean.execution_time:.0f}", "-", "-", "-", "-")]
    records = [{"rate": 0.0, "execution_time": clean.execution_time,
                "slowdown": 0.0}]
    for rate in rates:
        plan = FaultPlan.uniform(rate, seed=args.seed)
        try:
            result = run_app(args.app, regime=args.regime, n_procs=args.procs,
                             workload_overrides=overrides, faults=plan)
        except Exception as exc:  # noqa: BLE001 — a FAILED row, not a crash
            rows.append((f"{rate:g}", "FAILED", type(exc).__name__,
                         "-", "-", "-"))
            failures.append({"rate": rate, "error_type": type(exc).__name__,
                             "error": str(exc)})
            print(f"  rate {rate:g}: FAILED ({exc})", file=sys.stderr)
            continue
        counters = getattr(result, "fault_counters", None)
        # A run served from the cache carries no live counters (they are
        # diagnostic, not part of the serialized result).
        delays = str(counters["delays"]) if counters else "?"
        drops = str(counters["drops"]) if counters else "?"
        slows = str(counters["pp_slowdowns"]) if counters else "?"
        slow = result.execution_time / clean.execution_time - 1.0
        rows.append((
            f"{rate:g}", f"{result.execution_time:.0f}", f"{slow:+.1%}",
            delays, drops, slows,
        ))
        records.append({
            "rate": rate, "execution_time": result.execution_time,
            "slowdown": slow,
            "counters": dict(counters) if counters else None,
        })
    if args.json:
        print(json.dumps({
            "record": {"app": args.app, "regime": args.regime,
                       "seed": args.seed, "rates": records},
            "failures": failures,
            "status": "fail" if failures else "ok",
        }, sort_keys=True, indent=2))
    else:
        print(render_table(
            f"{args.app} @ {args.regime} under injected faults"
            f" (seed={args.seed})",
            ["fault rate", "exec time", "slowdown", "delays", "drops",
             "PP slow"],
            rows,
        ))
    return 1 if failures else 0


def cmd_check(args) -> int:
    """Coherence model checker: sweep seeds x shapes x protocols x fault
    plans under the SWMR/SC oracle and quiesce-point invariant walks;
    shrink any failure to a replayable reproducer."""
    import json

    from ..check import (
        CheckSpec, iter_specs, replay, run_check, save_reproducer, shrink,
    )

    if args.replay:
        report = replay(args.replay)
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        else:
            status = "PASS" if report.ok else "FAIL"
            print(f"{status} {report.spec.describe()}"
                  f" (checked_ops={report.checked_ops})")
            if not report.ok:
                print(report.error)
        # Replaying a reproducer is *expected* to fail — that's its job —
        # so the exit code reports replay fidelity, not pass/fail.
        return 0

    seeds = ([int(s) for s in args.seeds.split(",") if s.strip()]
             if args.seeds else [args.seed])
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    fault_rates = [float(r) for r in args.faults.split(",") if r.strip()]
    out_dir = args.out_dir or envopts.check_dir()
    reports = []
    failed = []
    for spec in iter_specs(seeds, ops=args.ops, nodes=args.nodes,
                           lines=args.lines, protocols=protocols,
                           kinds=kinds, fault_rates=fault_rates,
                           mutation=args.mutate):
        report = run_check(spec)
        if not report.ok and args.shrink:
            best, attempts = shrink(report)
            artifact = save_reproducer(best, spec, attempts, out_dir)
            report.shrunk = {
                "spec": best.spec.to_dict(),
                "attempts": attempts,
                "artifact": artifact,
            }
        reports.append(report)
        if report.ok:
            print(f"  PASS {spec.describe()}"
                  f" (checked_ops={report.checked_ops},"
                  f" quiesce={report.quiesce_checks})", file=sys.stderr)
        else:
            failed.append(report)
            print(f"  FAIL {spec.describe()}: {report.error_type}",
                  file=sys.stderr)
            if report.shrunk:
                print(f"       reproducer: {report.shrunk['artifact']}"
                      f" (ops {spec.ops} -> {report.shrunk['spec']['ops']})",
                      file=sys.stderr)
    summary = {
        "status": "fail" if failed else "ok",
        "total": len(reports),
        "passed": len(reports) - len(failed),
        "failed": len(failed),
        "checked_ops": sum(r.checked_ops for r in reports),
        "quiesce_checks": sum(r.quiesce_checks for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(f"check: {summary['passed']}/{summary['total']} passed,"
              f" {summary['checked_ops']} ops checked,"
              f" {summary['quiesce_checks']} quiesce walks")
        for report in failed:
            print(f"\nFAIL {report.spec.describe()}")
            print(report.error)
    return 1 if failed else 0


def cmd_loadlat(args) -> int:
    """Open-loop load-vs-tail-latency sweep with saturation-knee detection.

    Steps offered load across a gap ladder for FLASH and the ideal machine
    (farmed, disk-cached), prints per-kind p50/p90/p99/p99.9 curve tables
    with the detected knee and its growing component, and optionally emits
    the whole sweep as JSON (``--json`` / ``--out FILE``)."""
    import json

    if args.gaps:
        gaps = [float(g) for g in args.gaps.split(",") if g.strip()]
    else:
        gaps = loadlat.gap_ladder(args.min_gap, args.max_gap, args.points)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    requests = args.requests if args.requests is not None \
        else (64 if args.fast else 256)

    def live(kind, point):
        print(f"  {kind} gap={point['mean_gap']:.0f}:"
              f" p99={point['p99']:.0f}"
              f" ({point['completed']}/{point['generated']} done)",
              file=sys.stderr)

    sweep = loadlat.sweep_curves(
        args.shape, kinds, gaps, requests=requests, regime=args.regime,
        n_procs=args.procs, seed=args.seed, arrival=args.arrival,
        trace=not args.no_trace, factor=args.factor, jobs=args.jobs,
        policy=_farm_policy(args), log=live)
    payload = json.dumps(sweep, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote curve JSON to {args.out}", file=sys.stderr)
    if args.json:
        print(payload)
    else:
        print(loadlat.render_curves(sweep))
    complete = all(len(curve["points"]) == len(gaps)
                   for curve in sweep["curves"].values())
    return 0 if complete else 1


def cmd_whatif(args) -> int:
    """Coz-style causal profile: scale individual handler costs across a
    farmed ladder and compare the measured execution-time delta against the
    critical-path prediction (see ``repro.harness.whatif``)."""
    import json

    from . import whatif

    handlers = None
    if args.handlers:
        handlers = [h.strip() for h in args.handlers.split(",") if h.strip()]
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
    overrides = envopts.smoke_overrides(args.app, args.fast)
    try:
        report = whatif.run_whatif(
            args.app, kind=args.kind, regime=args.regime, n_procs=args.procs,
            workload_overrides=overrides, handlers=handlers, scales=scales,
            top=args.top, tolerance=args.tolerance, jobs=args.jobs,
            policy=_farm_policy(args))
    except ValueError as exc:
        print(f"whatif: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote causal profile JSON to {args.out}", file=sys.stderr)
    if args.json:
        print(payload)
    else:
        print(whatif.render_whatif(report))
    return 0


def cmd_summary(args) -> int:
    """One-screen (or JSON) ``RunResult.summary()`` for a single run."""
    import json

    overrides = envopts.smoke_overrides(args.app, args.fast)
    result = run_app(args.app, kind=args.kind, regime=args.regime,
                     n_procs=args.procs, workload_overrides=overrides)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        for key, value in summary.items():
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{key:22} {text}")
    return 0


def _load_result(token: str, args):
    """One side of a diff: a RunResult JSON file, a disk-cache entry file,
    or an ``app[/kind][@regime]`` token run live (with metrics on)."""
    import json
    import os

    from ..stats.report import RunResult

    if os.path.exists(token):
        with open(token) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict) and "schema" not in payload \
                and isinstance(payload.get("result"), dict):
            payload = payload["result"]   # a ``.repro_cache`` entry
        return RunResult.from_dict(payload)
    name, _, regime = token.partition("@")
    app, _, kind = name.partition("/")
    if app not in APP_ORDER and app != "openloop":
        raise SystemExit(
            f"diff: {token!r} is neither an existing file nor"
            f" <app>[/kind][@regime] (apps:"
            f" {', '.join(APP_ORDER + ['openloop'])})")
    return run_app(app, kind=kind or "flash", regime=regime or args.regime,
                   n_procs=args.procs,
                   workload_overrides=envopts.smoke_overrides(app, args.fast),
                   metrics=True, trace=True,
                   loadlat=True if app == "openloop" else None)


def _render_run_diff(result_a, result_b, a_name: str, b_name: str,
                     args) -> int:
    """Shared body of ``diff`` and ``compare``: delta table, PP-occupancy
    reconciliation, threshold gate (exit 1 on breach)."""
    from ..stats.metrics import (
        breaches, diff_rows, flatten_result, pp_reconciliation, render_diff,
    )

    per_node = getattr(args, "per_node", False)
    rows = diff_rows(flatten_result(result_a, per_node=per_node),
                     flatten_result(result_b, per_node=per_node))
    print(render_diff(rows, f"run diff: A={a_name}  B={b_name}",
                      changed_only=args.changed_only))
    for side, result in (("A", result_a), ("B", result_b)):
        reconciliation = pp_reconciliation(result)
        if reconciliation is not None:
            print(f"{side}: PP occupancy from per-handler busy cycles ="
                  f" {reconciliation['pp_occupancy_from_metrics']:.4%}"
                  f" (aggregate avg_pp_occupancy ="
                  f" {reconciliation['avg_pp_occupancy']:.4%})")
    bad = breaches(rows, args.threshold)
    if bad:
        print(f"\n{len(bad)} metric(s) exceed the"
              f" {args.threshold:.0%} relative-change threshold:",
              file=sys.stderr)
        for name, a, b, _delta, rel in bad:
            change = "new" if rel == float("inf") else f"{rel:+.1%}"
            print(f"  {name}: {a:g} -> {b:g} ({change})", file=sys.stderr)
        return 1
    return 0


def cmd_diff(args) -> int:
    """Per-metric delta table between two runs (live, cached, or files)."""
    result_a = _load_result(args.a, args)
    result_b = _load_result(args.b, args)
    return _render_run_diff(result_a, result_b, args.a, args.b, args)


def cmd_compare(args) -> int:
    """FLASH-vs-ideal (or vs a second FLASH config) metric diff for one app."""
    overrides = envopts.smoke_overrides(args.app, args.fast)
    monitor = True if args.app == "openloop" else None
    flash = run_app(args.app, kind="flash", regime=args.regime,
                    n_procs=args.procs, workload_overrides=overrides,
                    metrics=True, trace=True, loadlat=monitor)
    other = run_app(args.app, kind=args.vs, regime=args.regime,
                    n_procs=args.procs, workload_overrides=overrides,
                    metrics=True, trace=True, loadlat=monitor)
    return _render_run_diff(flash, other, f"{args.app}/flash",
                            f"{args.app}/{args.vs}", args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.harness")
    parser.add_argument(
        "--jobs", "-j", type=int, default=runfarm.default_jobs(),
        metavar="N",
        help="worker processes for independent runs (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget on farmed runs (worker is killed and"
             " the run retried; default: unlimited)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per failing farmed run before giving up (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list").set_defaults(fn=cmd_list)
    sub.add_parser("latencies").set_defaults(fn=cmd_latencies)
    sub.add_parser("clear", help="wipe the on-disk result cache"
                   ).set_defaults(fn=cmd_clear)
    run = sub.add_parser("run")
    run.add_argument("app", choices=APP_ORDER)
    run.add_argument("--regime", default="large",
                     choices=["large", "medium", "small"])
    run.add_argument("--procs", type=int, default=None)
    run.set_defaults(fn=cmd_run)
    suite = sub.add_parser("suite")
    suite.add_argument("--regime", default="large")
    suite.set_defaults(fn=cmd_suite)
    trace = sub.add_parser(
        "trace", help="trace one run: latency decomposition, occupancy"
                      " timelines, Chrome trace_event JSON export")
    trace.add_argument("app", choices=APP_ORDER)
    trace.add_argument("--kind", default="flash", choices=["flash", "ideal"])
    trace.add_argument("--regime", default="large",
                       choices=["large", "medium", "small"])
    trace.add_argument("--procs", type=int, default=None)
    trace.add_argument("--fast", action="store_true",
                       help="seconds-scale smoke problem sizes")
    trace.add_argument("--summary", action="store_true",
                       help="print the latency-decomposition table (default"
                            " unless --out is given)")
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="write Chrome trace_event JSON to FILE")
    trace.add_argument("--filter", metavar="CAT,...", default=None,
                       help="span categories to export (cpu,inbox,pp,memory,"
                            "net,pi); default: all")
    trace.add_argument("--nodes", metavar="SPEC", default=None,
                       help="record spans for these nodes only, e.g. 0+3"
                            " or 0-3 (component totals stay machine-wide)")
    trace.add_argument("--buf", type=int, default=None, metavar="N",
                       help="span ring-buffer capacity (default: 200000)")
    trace.add_argument("--sample", type=float, default=None, metavar="CYCLES",
                       help="occupancy/queue-depth sampling interval"
                            " (default: 2048 cycles)")
    trace.set_defaults(fn=cmd_trace)
    faults = sub.add_parser(
        "faults", help="sweep one app under increasing injected-fault rates")
    faults.add_argument("app", choices=APP_ORDER)
    faults.add_argument("--rates", default="0.01,0.05,0.1", metavar="R,R,...",
                        help="comma-separated uniform fault rates"
                             " (default: 0.01,0.05,0.1)")
    faults.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (default: 0)")
    faults.add_argument("--regime", default="large",
                        choices=["large", "medium", "small"])
    faults.add_argument("--procs", type=int, default=None)
    faults.add_argument("--fast", action="store_true",
                        help="seconds-scale smoke problem sizes")
    faults.add_argument("--json", action="store_true",
                        help="machine-readable sweep report on stdout"
                             " (record, failures and status)")
    faults.set_defaults(fn=cmd_faults)
    check = sub.add_parser(
        "check", help="coherence model checker: random traffic under"
                      " SWMR/SC oracles and quiesce-point invariants,"
                      " with failure shrinking")
    check.add_argument("--seed", type=int, default=0,
                       help="single workload/fault seed (default: 0)")
    check.add_argument("--seeds", metavar="S,S,...", default=None,
                       help="comma-separated seed sweep (overrides --seed)")
    check.add_argument("--ops", type=int, default=400,
                       help="operations per processor (default: 400)")
    check.add_argument("--nodes", type=int, default=4,
                       help="processors per checked machine (default: 4)")
    check.add_argument("--lines", type=int, default=8,
                       help="contended cache lines (default: 8)")
    check.add_argument("--protocols", metavar="P,P,...",
                       default="base,migratory,transfer",
                       help="protocol axis: base, migratory, transfer"
                            " (default: all three)")
    check.add_argument("--kinds", metavar="K,K,...", default="flash,ideal",
                       help="machine kinds (default: flash,ideal)")
    check.add_argument("--faults", metavar="R,R,...", default="0",
                       help="uniform fault rates; nonzero rates run on"
                            " flash/table only (default: 0)")
    check.add_argument("--mutate", metavar="NAME", default=None,
                       help="run with a deliberate protocol mutation"
                            " (drop_sharer, stale_reply, skip_inval, no_ack)"
                            " — the checker self-test")
    check.add_argument("--shrink", action="store_true", default=True,
                       help="shrink failures to minimal reproducers"
                            " (default)")
    check.add_argument("--no-shrink", action="store_false", dest="shrink",
                       help="skip shrinking (fast triage)")
    check.add_argument("--out-dir", metavar="DIR", default=None,
                       help="reproducer artifact directory (default:"
                            " $REPRO_CHECK_DIR or .repro_check)")
    check.add_argument("--replay", metavar="FILE", default=None,
                       help="re-run a saved reproducer instead of sweeping")
    check.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    check.set_defaults(fn=cmd_check)
    ll = sub.add_parser(
        "loadlat", help="open-loop load vs tail-latency sweep (FLASH vs"
                        " ideal) with saturation-knee detection")
    ll.add_argument("shape", choices=sorted(LOADLAT_PROFILES),
                    help="traffic shape: an openloop profile (fft ="
                         " read-heavy scans, mp3d = write-heavy contended,"
                         " uniform = between)")
    ll.add_argument("--kinds", default="flash,ideal", metavar="K,K",
                    help="machine kinds to sweep (default: flash,ideal)")
    ll.add_argument("--points", type=int, default=loadlat.DEFAULT_POINTS,
                    help=f"sweep points on the geometric gap ladder"
                         f" (default: {loadlat.DEFAULT_POINTS})")
    ll.add_argument("--min-gap", type=float, dest="min_gap",
                    default=loadlat.DEFAULT_MIN_GAP, metavar="CYCLES",
                    help="heaviest-load mean inter-arrival gap"
                         f" (default: {loadlat.DEFAULT_MIN_GAP:g})")
    ll.add_argument("--max-gap", type=float, dest="max_gap",
                    default=loadlat.DEFAULT_MAX_GAP, metavar="CYCLES",
                    help="lightest-load mean inter-arrival gap — the"
                         " latency baseline"
                         f" (default: {loadlat.DEFAULT_MAX_GAP:g})")
    ll.add_argument("--gaps", metavar="G,G,...", default=None,
                    help="explicit gap list (overrides the ladder)")
    ll.add_argument("--requests", type=int, default=None,
                    help="requests per node per run (default: 256;"
                         " 64 with --fast)")
    ll.add_argument("--regime", default="large",
                    choices=["large", "medium", "small"])
    ll.add_argument("--procs", type=int, default=None)
    ll.add_argument("--seed", type=int, default=0)
    ll.add_argument("--arrival", default="poisson",
                    choices=["poisson", "bursty"])
    ll.add_argument("--factor", type=float,
                    default=loadlat.DEFAULT_KNEE_FACTOR, metavar="F",
                    help="p99 multiple of the light-load baseline that"
                         " defines the saturation knee"
                         f" (default: {loadlat.DEFAULT_KNEE_FACTOR:g})")
    ll.add_argument("--fast", action="store_true",
                    help="seconds-scale sweep (fewer requests per node)")
    ll.add_argument("--no-trace", action="store_true", dest="no_trace",
                    help="skip the tracer (no tail-exemplar decomposition"
                         " or knee attribution)")
    ll.add_argument("--json", action="store_true",
                    help="machine-readable sweep on stdout")
    ll.add_argument("--out", metavar="FILE", default=None,
                    help="also write the sweep JSON to FILE")
    ll.set_defaults(fn=cmd_loadlat)
    whatif = sub.add_parser(
        "whatif", help="Coz-style causal profile: scale handler costs on a"
                       " farmed ladder, measured vs critical-path-predicted"
                       " speedup")
    whatif.add_argument("app", choices=APP_ORDER + ["openloop"])
    whatif.add_argument("--kind", default="flash", choices=["flash"],
                        help="machine kind (flash only: the ideal machine's"
                             " handlers are zero-width)")
    whatif.add_argument("--regime", default="large",
                        choices=["large", "medium", "small"])
    whatif.add_argument("--procs", type=int, default=None)
    whatif.add_argument("--fast", action="store_true",
                        help="seconds-scale smoke problem sizes")
    whatif.add_argument("--handlers", metavar="H,H,...", default=None,
                        help="handlers to scale (default: the top critical-"
                             "path levers)")
    whatif.add_argument("--scales", metavar="S,S,...", default="0.5,2.0",
                        help="cost factors per handler (default: 0.5,2.0)")
    whatif.add_argument("--top", type=int, default=3,
                        help="levers profiled when --handlers is omitted"
                             " (default: 3)")
    whatif.add_argument("--tolerance", type=float, default=None, metavar="R",
                        help="relative measured-vs-predicted divergence that"
                             " flags a handler (default: 0.5)")
    whatif.add_argument("--json", action="store_true",
                        help="machine-readable causal profile on stdout")
    whatif.add_argument("--out", metavar="FILE", default=None,
                        help="also write the profile JSON to FILE")
    whatif.set_defaults(fn=cmd_whatif)
    summary = sub.add_parser(
        "summary", help="RunResult.summary() scalars for one run")
    summary.add_argument("app", choices=APP_ORDER)
    summary.add_argument("--kind", default="flash", choices=["flash", "ideal"])
    summary.add_argument("--regime", default="large",
                         choices=["large", "medium", "small"])
    summary.add_argument("--procs", type=int, default=None)
    summary.add_argument("--fast", action="store_true",
                         help="seconds-scale smoke problem sizes")
    summary.add_argument("--json", action="store_true",
                         help="machine-readable summary on stdout")
    summary.set_defaults(fn=cmd_summary)

    def _diff_common(p) -> None:
        p.add_argument("--regime", default="large",
                       choices=["large", "medium", "small"])
        p.add_argument("--procs", type=int, default=None)
        p.add_argument("--fast", action="store_true",
                       help="seconds-scale smoke problem sizes for live runs")
        p.add_argument("--per-node", action="store_true", dest="per_node",
                       help="keep per-node family labels instead of summing"
                            " them machine-wide")
        p.add_argument("--changed-only", action="store_true",
                       dest="changed_only",
                       help="hide metrics whose delta is zero")
        p.add_argument("--threshold", type=float, default=None, metavar="R",
                       help="exit nonzero when any |relative change| exceeds"
                            " R (e.g. 0.1 = 10%%)")

    diff = sub.add_parser(
        "diff", help="per-metric delta table between two runs; each side is"
                     " a RunResult/cache-entry JSON file or <app>[/kind]"
                     "[@regime] run live with metrics on")
    diff.add_argument("a", metavar="A")
    diff.add_argument("b", metavar="B")
    _diff_common(diff)
    diff.set_defaults(fn=cmd_diff)
    compare = sub.add_parser(
        "compare", help="FLASH-vs-ideal metric diff for one app"
                        " (the Table 4.2 view)")
    compare.add_argument("app", choices=APP_ORDER + ["openloop"])
    compare.add_argument("--vs", default="ideal", choices=["ideal", "flash"],
                         help="machine kind on the B side (default: ideal)")
    _diff_common(compare)
    compare.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
