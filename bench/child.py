"""One benchmark repeat in a fresh interpreter; ``bench/run.py`` starts it.

Usage: ``python bench/child.py '<job json>'`` with ``src`` on PYTHONPATH.
It builds the workload's FLASH and ideal machines through
``experiments.normalize_spec`` -> ``build_machine`` (never ``run_app``, so
no memo, disk cache or run farm can stand in for a run), runs FLASH and then
the ideal machine, checks the quiesce invariants after each, and prints one
JSON record as its last line of output.

Job modes: ``setup`` stops once both machines are built; ``plain`` also
runs them; ``traced`` runs them under :class:`layers.Recorder` and writes
the span buffer as Chrome trace JSON to ``span_file``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

KINDS = ("flash", "ideal")

#: RunResult blocks only observed runs carry; the core hash leaves them out
#: so an observed run can be compared with the plain run of the same traffic.
OBSERVER_BLOCKS = ("latency_decomposition", "metrics", "critpath",
                   "load_latency")


def _sha(state) -> str:
    text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_hashes(result):
    """(full, core) SHA-256 of the canonical ``RunResult`` JSON."""
    state = result.to_dict()
    full = _sha(state)
    for key in OBSERVER_BLOCKS:
        state.pop(key, None)
    return full, _sha(state)


def simulated(result, machine):
    """Exact per-machine statistics: a perf-only change leaves them all
    identical."""
    from repro.protocol.coherence import MissClass

    breakdown = result.breakdown
    total = sum(breakdown.values())
    classes = result.miss_classes
    read_misses = sum(classes.values())
    remote_dirty = (classes[MissClass.REMOTE_DIRTY_HOME]
                    + classes[MissClass.REMOTE_DIRTY_REMOTE])
    fused = sum(sum(node.controller.dispatch_fused.values())
                for node in machine.nodes)
    stepwise = sum(sum(node.controller.dispatch_stepwise.values())
                   for node in machine.nodes)
    return {
        "refs": result.references,
        "exec_cycles": result.execution_time,
        "miss_rate": result.miss_rate,
        "read_stall_share": breakdown["read"] / total,
        "write_stall_share": breakdown["write"] / total,
        "pp_occupancy_avg": result.avg_pp_occupancy,
        "pp_occupancy_max": result.max_pp_occupancy,
        "handlers": result.handler_invocations,
        "fused_share": fused / (fused + stepwise) if fused + stepwise else 0.0,
        "memory_occupancy_avg": result.avg_memory_occupancy,
        "messages": result.network_messages,
        "remote_dirty_share": remote_dirty / read_misses if read_misses
        else 0.0,
    }


def _materialise(ops):
    return [list(stream) for stream in ops]


def run_kind(machine, ops, recorder):
    if recorder is not None:
        ops = recorder.call("apps.generate", _materialise, ops)
    start = time.perf_counter()
    result = machine.run(ops)
    run_s = time.perf_counter() - start
    machine.assert_quiesced()
    full, core = result_hashes(result)
    return {"run_s": run_s, "sha": full, "core_sha": core,
            "sim": simulated(result, machine)}


def main(job) -> dict:
    start = time.perf_counter()
    from repro.harness import experiments

    recorder = None
    if job["mode"] == "traced":
        from layers import Recorder
        recorder = Recorder()
        recorder.install()
    try:
        overrides = (dict(experiments.SMOKE_SIZES[job["app"]])
                     if job["smoke"] else {})
        overrides.update(job["overrides"])
        observe = True if job["observed"] else None
        built = {}
        for kind in KINDS:
            spec = experiments.normalize_spec(
                job["app"], kind=kind, regime=job["regime"],
                workload_overrides=overrides, trace=observe, metrics=observe)
            machine, ops, _ = experiments.build_machine(spec)
            built[kind] = (machine, ops)
        record = {"setup_s": time.perf_counter() - start}
        if job["mode"] == "setup":
            return record
        record["kinds"] = {kind: run_kind(*built.pop(kind), recorder)
                           for kind in KINDS}
    finally:
        if recorder is not None:
            recorder.uninstall()
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        from repro.stats.trace import validate_trace_events
        payload = recorder.trace_events()
        events = validate_trace_events(payload)
        with open(job["span_file"], "w") as handle:
            json.dump(payload, handle)
        record["layers"] = recorder.stats
        record["spans"] = {"file": job["span_file"], "events": events,
                           "dropped": recorder.spans_dropped()}
    return record


if __name__ == "__main__":
    try:
        record = main(json.loads(sys.argv[1]))
    except Exception as exc:  # reported to the parent as a failed run
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        sys.exit(1)
    print(json.dumps(record))
