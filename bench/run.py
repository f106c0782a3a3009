"""realtrop benchmark: one seeded workload per process, results checked.

    python3 bench/run.py --workload valuated --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: valuated, oriented, seminorm, cli (see workloads.py).  Each
makes a set of at least 100 instances from the seed.

With ``--trace 0`` it runs one untimed warm-up cycle, then times passes
over the set, untraced, until ``--seconds`` have passed and every instance
ran once; an instance's time is the median over its runs.  Every time is
a wall time scaled to the speed of the reference machine (``MachineClock``),
because other tenants of a shared machine change its speed by up to a
factor of two over seconds to minutes.  It prints the end-to-end metrics:

  setup_s          median time of a fresh interpreter importing
                   ``realtrop`` and ``realtrop.cli``, measured against
                   the start of a bare interpreter (s)
  instances_per_s  instances in the set over the sum of their times (1/s)
  latency_p50_ms   median time of one instance (ms)
  latency_p90_ms   p90 time of one instance; with 100 or more instances,
                   at least 10 lie beyond it (ms)
  peak_rss_mb      ru_maxrss of the process (MB)

plus ``failed_share``, the share of attempted runs that raised, failed a
check or, at the default seed, produced an output whose digest differs
from ``digests.json``; the result line carries it as ``failed`` over
``attempted``.  A run that reaches its deadline before every instance
of the set ran once is not correct.

With ``--trace 1`` it runs one shape cycle with spans recorded around
every public layer function (tracer.py), writes the spans to
``bench/out/`` and prints the per-layer counts and self times.  It then
runs each instance of the cycle untraced and traced, back to back, and
prints the tracing overhead: the summed median traced time over the
summed median untraced time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--tiny`` runs the smallest
shapes, for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 15
IMPORT = "import realtrop, realtrop.cli"
OVERHEAD_ROUNDS = 5  # untraced/traced pairs per instance behind trace.overhead
DEADLINE_S = 150.0  # stop timing here whatever the sample count, to exit within 180 s
# reference_kernel() on an idle core of the machine baseline.json was recorded on
REFERENCE_S = 0.0016
# ``python3 -c pass`` on an idle core of the same machine
BARE_START_S = 0.048
_START = time.perf_counter()


def reference_kernel() -> None:
    """Fixed pure-Python work that does not touch realtrop: Fraction
    arithmetic and dict updates, like the library's inner loops."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 400):
        q = Fraction(i % 13 - 6, i % 7 + 1)
        acc += q * q
        key = (i % 17, i % 5)
        seen[key] = seen.get(key, 0) + 1


def kernel_seconds() -> float:
    """Fastest of three reference kernel runs in a row, so the first run
    warms the caches the timed call before it left cold.  The collector
    is off, so the library's heap size cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class MachineClock:
    """Scales wall times to the speed of the reference machine.

    Other tenants of a shared machine slow it, by up to half for seconds
    to minutes at a time, and every wall time moves with it.  The clock
    runs the reference kernel between consecutive timed calls and scales
    each call's wall time by REFERENCE_S over the mean kernel time just
    before and just after it, so what remains is the program's own cost.
    """

    def __init__(self):
        self._before = kernel_seconds()
        self.factors: list[float] = []

    def scale(self, wall: float) -> float:
        after = kernel_seconds()
        factor = 2 * REFERENCE_S / (self._before + after)
        self._before = after
        self.factors.append(factor)
        return wall * factor


def setup_seconds(repeats: int) -> float:
    """Median time of a fresh interpreter importing the library and CLI,
    scaled to the reference machine.

    Each import run sits between two runs of a bare interpreter, and its
    time is divided by their mean; the median of these ratios, times
    BARE_START_S, is the set-up time.  Starting an interpreter is the same
    kind of work as importing (exec, file reads, unmarshalling bytecode),
    so the ratio does not move with the machine's speed while work added
    to ``import realtrop`` still raises it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    wall(IMPORT)  # may write bytecode caches
    bare = [wall("pass")]
    ratios = []
    for _ in range(repeats):
        imported = wall(IMPORT)
        bare.append(wall("pass"))
        ratios.append(2 * imported / (bare[-2] + bare[-1]))
    return BARE_START_S * statistics.median(ratios)


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def expected_digests(workload: str, seed: int, tiny: bool):
    if seed != DEFAULT_SEED or tiny:
        return None
    return json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))[workload]


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None
        self.complete = True  # every instance of the set was timed

    def run(self, wl, inputs, expected=None):
        """Run one instance; return its latency in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = wl.run(inputs)
        except Exception as exc:  # noqa: BLE001 - a failed instance is counted, not fatal
            latency = time.perf_counter() - t0
            self._fail(f"{type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - t0
        if expected is not None and digest(result) != expected:
            self._fail("output differs from the recorded digest")
        return latency

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            print(f"instance failed: {message}", file=sys.stderr)


def warm_up(wl, instances, tiny: bool) -> None:
    """Untimed pass over one shape cycle, so lazy set-up is done before timing."""
    sink = Outcome()
    for inputs in instances[: wl.trace_count(tiny)]:
        sink.run(wl, inputs)


def timed(wl, instances, seconds: float, expected):
    """Time passes over the instance set until ``seconds`` have passed and
    every instance ran at least once; return each instance's median scaled
    time."""
    outcome = Outcome()
    clock = MachineClock()
    times: list[list[float]] = [[] for _ in instances]
    start = time.perf_counter()
    passes = 0
    while True:
        for k, inputs in enumerate(instances):
            wall = outcome.run(wl, inputs, expected[k] if expected else None)
            times[k].append(clock.scale(wall))
            now = time.perf_counter()
            if (passes and now - start >= seconds) or now - _START >= DEADLINE_S:
                samples = [statistics.median(t) for t in times if t]
                if len(samples) < len(instances):
                    outcome.complete = False
                    print(f"deadline passed after {len(samples)} of {len(instances)} instances",
                          file=sys.stderr)
                return outcome, samples, statistics.median(clock.factors), now - start
        passes += 1


def end_to_end(wl, instances, args):
    setup = setup_seconds(2 if args.tiny else SETUP_REPEATS)
    expected = expected_digests(wl.name, args.seed, args.tiny)
    warm_up(wl, instances, args.tiny)
    outcome, samples, speed, elapsed = timed(wl, instances, args.seconds, expected)
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    beyond = sum(1 for s in samples if s > p90)
    metrics = {
        "setup_s": (setup, "s"),
        "instances_per_s": (len(samples) / math.fsum(samples), "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed_share = outcome.failed / outcome.attempted
    print(f"workload {wl.name} seed {args.seed}: {len(samples)} instances, {outcome.attempted} runs "
          f"in {elapsed:.2f} s wall, {beyond} instances beyond p90; times scaled to the "
          f"reference machine, which this one ran at {1 / speed:.2f}x the time of (median)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  {'failed_share':<16} {failed_share:.6g} ratio")
    return outcome, metrics


def traced(wl, instances, args):
    from tracer import Tracer, layer_metrics

    warm_up(wl, instances, args.tiny)
    subset = instances[: wl.trace_count(args.tiny)]
    outcome = Outcome()
    tracer = Tracer()
    tracer.install()

    def one_run(i: int, record: bool) -> float:
        tracer.instance = i
        tracer.active = record
        try:
            return outcome.run(wl, subset[i])
        finally:
            tracer.active = False

    try:
        for i in range(len(subset)):
            one_run(i, True)
        metrics = layer_metrics(tracer)
        out = BENCH_DIR / "out" / f"spans-{wl.name}-seed{args.seed}.tsv"
        tracer.write_spans(str(out))
        spans = len(tracer.spans)
        # Each instance runs untraced and traced back to back, in turn
        # first, so the machine's speed is the same for both and cancels.
        plain: list[list[float]] = [[] for _ in subset]
        recorded: list[list[float]] = [[] for _ in subset]
        rounds = 1 if args.tiny else OVERHEAD_ROUNDS
        for r in range(rounds):
            for i in range(len(subset)):
                for record in ((False, True) if r % 2 == 0 else (True, False)):
                    (recorded if record else plain)[i].append(one_run(i, record))
    finally:
        tracer.uninstall()
    overhead = (math.fsum(statistics.median(t) for t in recorded)
                / math.fsum(statistics.median(t) for t in plain))
    metrics["trace.overhead"] = (overhead, "ratio")
    print(f"workload {wl.name} seed {args.seed}: traced {len(subset)} instances, "
          f"{spans} spans written to {out.relative_to(ROOT)}; overhead from "
          f"{rounds} untraced and traced runs of each")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("valuated", "oriented", "seminorm", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest shapes and few samples, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "realtrop" / "__init__.py").is_file():
        print(f"realtrop sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    instances = wl.instances(args.seed, args.tiny)
    run = traced if args.trace else end_to_end
    outcome, metrics = run(wl, instances, args)
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.complete,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
