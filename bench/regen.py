"""Rewrite the benchmark's reference outputs from the current library.

    python3 bench/regen.py

Writes ``cli/golden/<case>.out``, the exact stdout of every CLI case, and
``digests.json``, one digest per instance of each workload's set at the
default seed.  Run it only when a change to the library's output is
intended; otherwise the benchmark counts changed outputs as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import BENCH_DIR, DEFAULT_SEED, SRC, digest

sys.path.insert(0, str(SRC))

import realtrop.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli = workloads.Cli()
    for case in cli.cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = realtrop.cli.main(cli.argv(case))
        if code != 0:
            raise SystemExit(f"CLI case {case['name']} exited with {code}")
        (workloads.CLI_DIR / "golden" / f"{case['name']}.out").write_text(buf.getvalue(), encoding="utf-8")
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        digests[name] = [digest(wl.run(inputs)) for inputs in wl.instances(DEFAULT_SEED, False)]
        print(f"{name}: {len(digests[name])} digests", file=sys.stderr)
    (BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
