"""fogsim benchmark: time one workload for one seed and print one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload apps-grid --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``apps-grid`` and ``deadline-storm``.
Everything runs in this one process with ``workers=1``: passes over the
workload run back to back (a closed loop) until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: median
set-up time of fresh interpreters (setup_probe.py), median pass wall time,
simulated tasks per host second, peak RSS, and the simulated mean delay and
SLA-violation share of the pass's runs. ``--trace 1`` runs one untraced
pass and one traced pass (tracer.py) and prints the per-layer metrics; the
difference between the two passes is ``trace.overhead_pct``.

Every run is checked (workloads.run_problems), every pass's sorted report
rows are hashed and must agree with each other and with the digest recorded
for that seed in digests.json, and a small reference pass with a recorded
digest runs each time. The last line of output is
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts failed
runs, and the lines above it give failed_pct with both counts.

``--record-digests 0-20`` rewrites digests.json from checked, traced runs of
every workload (or only ``--workload``) for those seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_fogsim() -> None:
    """Put the checkout's sources first on the path, or exit with an error."""
    package = SRC / "fogsim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fogsim sources at {package}")
    sys.path.insert(0, str(SRC))
    import fogsim

    if Path(fogsim.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported fogsim from {fogsim.__file__}, not {package}")


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_fogsim()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    import workloads

    if args.workload not in workloads.NAMES and not (args.record_digests and args.workload is None):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        harness.record_digests(int(first), int(last or first),
                               (args.workload,) if args.workload else workloads.NAMES)
        return 0
    if args.trace:
        tally, values, notes, _digest = harness.trace(args.workload, args.seed,
                                                      harness.load_digests())
        wanted = spec["per_layer"]
    else:
        tally, values, notes, _digest = harness.measure(args.workload, args.seed, args.seconds,
                                                        harness.load_digests())
        wanted = spec["end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"seed {args.seed}, trace {args.trace}, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}, commit {_commit()}")
    for note in notes:
        print(note)
    for name, (value, unit) in sorted(values.items()):
        print(f"{name} {value} {unit}")
    print(f"failed_pct {100.0 * tally.failed / max(tally.attempted, 1)} % "
          f"({tally.failed} of {tally.attempted} runs failed)")
    for problem in tally.problems[:20]:
        print(f"PROBLEM {problem}")
    metrics = {}
    for metric in wanted:
        value, unit = values[metric["name"]]
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']}: unit {unit} != {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
