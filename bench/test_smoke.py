"""Tiny-size smoke test of the benchmark.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    report, metrics = result_of(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in metrics.items()} == expected
    for name, unit in list(expected.items()) + [("failed_share", "ratio")]:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in report), name
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first = result_of(run(workload, 1))[1]
    second = result_of(run(workload, 1))[1]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in first.items()} == units
    exact = [n for n, u in units.items() if u in ("count", "ratio") and n != "trace.overhead"]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert any(first[n]["value"] for n in exact)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))["map"]
    mapped = [n for row in layer_map for n in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in layer_map:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["bypass"]) <= set(WORKLOADS)
