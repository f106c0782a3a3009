"""Steadiness mode: two sets of runs per workload, medians compared with the bounds.

    python3 bench/steady.py

Each set runs ``bench/run.py`` untraced 10 times on every workload of
``BENCHMARK.json`` for its ``run_seconds``, each run with another seed
(set 1 takes seeds 1-10, set 2 seeds 11-20), then once traced at seed 1.
Per end-to-end metric and workload it prints both medians, each set's
spread (the distance between the first and third quartile as a share of
the median) and the metric's bound from ``BENCHMARK.json``; a metric is
steady when the medians differ by at most the bound and each spread is
within the bound.
Traced layer counts and ratios must be identical between the sets.  The
last line is a JSON summary; the exit code is 0 only when everything is
steady.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(2):
        runs, layers = {}, {}
        for w in workloads:
            seeds = range(1 + k * RUNS, 1 + (k + 1) * RUNS)
            runs[w] = [run_once(w, s, seconds, 0) for s in seeds]
            layers[w] = run_once(w, 1, seconds, 1)
            print(f"set {k + 1} {w}: {RUNS} runs done", file=sys.stderr, flush=True)
        sets.append((runs, layers))

    steady = True
    rows = []
    print(f"{'workload':<10} {'metric':<16} {'median 1':>11} {'median 2':>11} "
          f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v1 = [r[name] for r in sets[0][0][w]]
            v2 = [r[name] for r in sets[1][0][w]]
            med1, med2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            ok = abs(med2 - med1) <= bound * med1 and s1 <= bound and s2 <= bound
            steady = steady and ok
            rows.append({"workload": w, "metric": name, "median1": med1, "median2": med2,
                         "spread1": s1, "spread2": s2, "bound": bound, "steady": ok})
            print(f"{w:<10} {name:<16} {med1:>11.5g} {med2:>11.5g} {s1:>9.4f} {s2:>9.4f} "
                  f"{bound:>6}  {'ok' if ok else 'UNSTEADY'}")
        l1, l2 = sets[0][1][w], sets[1][1][w]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        differing = [n for n in l1 if units[n] in ("count", "ratio")
                     and n != "trace.overhead" and l1[n] != l2[n]]
        steady = steady and not differing
        print(f"{w:<10} layer counts {'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
    print(json.dumps({"steady": steady, "rows": rows}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
