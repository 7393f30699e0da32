"""Smoke tests of the benchmark itself: ``pytest bench -q``.

They run ``bench/run.py --smoke`` (seconds-scale problem sizes, one round)
and check the output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One plain and two traced smoke invocations over every workload."""
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for name, flags in (("plain", []), ("traced_a", ["--trace"]),
                        ("traced_b", ["--trace", "1"])):
        path = out / f"{name}.json"
        proc = run_bench("--smoke", "--out", str(path), *flags)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[name] = (proc.stdout, json.loads(path.read_text()), path)
    return runs


def printed(stdout: str):
    """{(workload, metric): unit} from the human-readable lines, and the
    final JSON object."""
    lines = stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] in WORKLOADS:
            table[(fields[0], fields[1])] = fields[3]
    return table, json.loads(lines[-1])


def test_workloads_match_spec():
    sys.path.insert(0, str(BENCH))
    import run
    assert list(run.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("run_name,section", [("plain", "end_to_end"),
                                              ("traced_a", "per_layer")])
def test_every_metric_printed_with_unit(smoke, run_name, section):
    table, result = printed(smoke[run_name][0])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}/{m['name']}": m["unit"]
                for w in WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            assert table[(workload, metric["name"])] == metric["unit"]


def test_smoke_runs_repeat_exactly(smoke):
    a, b = smoke["traced_a"][1], smoke["traced_b"][1]
    for workload in WORKLOADS:
        ma, mb = a["workloads"][workload], b["workloads"][workload]
        exact = {n for n, m in ma["metrics"].items() if m.get("exact")}
        assert {n for n in exact if n.endswith(".calls")}
        assert {n for n in exact if n.startswith("sim.")}
        for name in exact:
            assert ma["metrics"][name]["value"] == \
                mb["metrics"][name]["value"], (workload, name)
        assert ma["result_sha"] == mb["result_sha"]
        assert ma["spans"]["events"] > 0


def test_observers_reach_only_the_observed_workload(smoke):
    metrics = {w: r["metrics"]
               for w, r in smoke["traced_a"][1]["workloads"].items()}
    assert metrics["mp3d"]["stats.trace.calls"]["value"] == 0
    assert metrics["mp3d_observed"]["stats.trace.calls"]["value"] > 0
    assert metrics["mp3d_observed"]["magic.fused_share.flash"]["value"] == 0


def test_compare_accepts_identical_records(smoke):
    path = smoke["traced_a"][2]
    proc = subprocess.run([sys.executable, "bench/compare.py", str(path),
                           str(path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert [row.split()[0] for row in rows] == WORKLOADS
    assert "REGRESSED" not in proc.stdout and "CHANGED" not in proc.stdout


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("--workload", "mp3d", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
