"""Compare two benchmark records under the bounds in ``BENCHMARK.json``.

Usage: ``python bench/compare.py A.json B.json`` where both files were
written by ``bench/run.py --out``; A is the baseline.

One row per workload present in both.  Each end-to-end metric shows B's
change against A, signed so that positive is better, and a verdict:

* ``ok``: B is not worse than A by more than the metric's bound;
* ``REGRESSED``: B is worse by more than the bound;
* ``unresolved``: the repeat spread (IQR over median) of A or B is wider
  than the bound, so the two cannot be told apart, unless every repeat of
  B reads better than every repeat of A (then ``ok``).

Exact metrics (the simulated statistics, ``*.calls`` counts, ``fail_frac``,
``paper_gap_pp``) and ``result_sha`` must be identical; any that differ are
listed as ``CHANGED``.  Exit code 1 when any row has a ``REGRESSED`` or
``CHANGED`` entry or B has failed runs, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(metric: dict) -> float:
    return metric["iqr"] / metric["median"] if metric.get("median") else 0.0


def verdict(a: dict, b: dict, bound: dict):
    """(signed relative change, positive = better; verdict)."""
    higher = bound["better"] == "higher"
    change = (b["value"] - a["value"]) / a["value"]
    gain = change if higher else -change
    if max(spread(a), spread(b)) > bound["bound"]:
        a_samples, b_samples = a.get("samples", []), b.get("samples", [])
        clear = a_samples and b_samples and (
            min(b_samples) > max(a_samples) if higher
            else max(b_samples) < min(a_samples))
        return gain, "ok" if clear else "unresolved"
    return gain, "REGRESSED" if gain < -bound["bound"] else "ok"


def compare_workload(a: dict, b: dict, bounds: dict):
    """The row's cells and whether the row fails."""
    cells, failing = [], False
    for name, bound in bounds.items():
        if name not in a["metrics"] or name not in b["metrics"]:
            cells.append(f"{name} missing")
            failing = True
            continue
        gain, word = verdict(a["metrics"][name], b["metrics"][name], bound)
        cells.append(f"{name} {gain:+.1%} {word}")
        failing |= word == "REGRESSED"
    exact = sorted(name for name, metric in a["metrics"].items()
                   if metric.get("exact") and name in b["metrics"])
    changed = [name for name in exact
               if a["metrics"][name]["value"] != b["metrics"][name]["value"]]
    if a["result_sha"] != b["result_sha"]:
        changed.append("result_sha")
    if changed:
        cells.append("CHANGED " + ",".join(changed))
        failing = True
    else:
        cells.append(f"exact identical ({len(exact)} + result_sha)")
    if b["failed"]:
        cells.append(f"{b['failed']}/{b['attempted']} runs FAILED")
        failing = True
    return cells, failing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    bounds = load_bounds()
    failing = False
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        cells, bad = compare_workload(a, b, bounds)
        failing |= bad
        print(f"{name:14s} " + " | ".join(cells))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
