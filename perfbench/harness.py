"""Measure, trace and check one workload; record the reference digests.

run.py is the command line around these functions; the smoke test calls
them directly. fogsim must already be importable (run.py puts the
checkout's ``src`` first on the path).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fogsim import config

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 7
REFERENCE_SEED = 1


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def _setup_seconds(config_path: Path) -> float:
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Runs attempted, runs failed and what went wrong, over one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, result) -> None:
        self.attempted += result.runs
        self.failed += result.failed
        self.problems += result.problems

    def digest_mismatch(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def _reference_check(workload: str, tally: Tally, recorded: dict,
                     checked_direct: bool = False) -> str:
    """Run the smoke-size pass at the reference seed; compare with its recorded digest.

    With ``checked_direct`` the apps grid's runs are also repeated directly
    and checked run by run (the sweep itself returns only report rows).
    """
    path = workloads.write_config(workload, REFERENCE_SEED, "smoke", OUT)
    cfg = config.load_config(str(path))
    scenarios = workloads.pass_scenarios(workload, cfg, REFERENCE_SEED, "smoke")
    result = workloads.run_pass(workload, cfg, scenarios, OUT / f"ref-{os.getpid()}")
    tally.add_pass(result)
    if workload == "apps-grid" and checked_direct:
        tally.attempted += len(scenarios)
        found = workloads.check_grid_against_direct(scenarios, cfg, result)
        tally.failed += bool(found)
        tally.problems += found
    want = recorded.get(workload, {}).get("smoke", {}).get(str(REFERENCE_SEED))
    if want is None:
        tally.problems.append(f"no recorded smoke digest for {workload}")
    elif result.digest != want:
        tally.digest_mismatch(f"reference pass digest {result.digest} != recorded {want}")
    return result.digest


def _check_seed_digest(workload: str, seed: int, digest: str, tally: Tally,
                       recorded: dict) -> str:
    want = recorded.get(workload, {}).get("full", {}).get(str(seed))
    if want is None:
        return f"{digest} (no digest recorded for seed {seed})"
    if digest != want:
        tally.digest_mismatch(f"pass digest {digest} != recorded {want} for seed {seed}")
        return f"{digest} (MISMATCH, recorded {want})"
    return f"{digest} (matches recorded)"


def measure(workload: str, seed: int, seconds: float,
            recorded: dict) -> tuple[Tally, dict, list[str], str]:
    """Untraced closed-loop passes: the end-to-end metrics."""
    tally = Tally()
    path = workloads.write_config(workload, seed, "full", OUT)
    setup_s = _setup_seconds(path)
    cfg = config.load_config(str(path))
    scenarios = workloads.pass_scenarios(workload, cfg, seed, "full")
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = workloads.run_pass(workload, cfg, scenarios, OUT / f"sweep-{os.getpid()}")
        tally.add_pass(result)
        passes.append(result)
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        tally.digest_mismatch(f"passes of one seed disagree: {digests}")
    seed_note = _check_seed_digest(workload, seed, passes[0].digest, tally, recorded)
    ref_digest = _reference_check(workload, tally, recorded)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    good = [p for p in passes if p.rows]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "tasks_per_s": (statistics.median(p.tasks / p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sim_avg_delay_s": (good[0].sim_mean("avg_delay_s") if good else 0.0, "s"),
        "sim_sla_violation_pct": (good[0].sim_mean("sla_violation_pct") if good else 0.0, "%"),
    }
    notes = [
        f"passes {len(passes)}, runs per pass {len(scenarios)}, "
        f"tasks per pass {passes[0].tasks}",
        "pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes),
        f"digest {seed_note}",
        f"reference digest {ref_digest}",
    ]
    return tally, values, notes, passes[0].digest


def trace(workload: str, seed: int, recorded: dict) -> tuple[Tally, dict, list[str], str]:
    """One untraced and one traced pass: the per-layer metrics."""
    tally = Tally()
    path = workloads.write_config(workload, seed, "full", OUT)
    cfg = config.load_config(str(path))
    plain = workloads.run_pass(workload, cfg, workloads.pass_scenarios(workload, cfg, seed, "full"),
                               OUT / f"sweep-{os.getpid()}")
    tally.add_pass(plain)
    tracer = Tracer()
    with tracer:
        traced_cfg = config.load_config(str(path))
        scenarios = workloads.pass_scenarios(workload, traced_cfg, seed, "full")
        traced = workloads.run_pass(workload, traced_cfg, scenarios,
                                    OUT / f"sweep-{os.getpid()}")
    tally.add_pass(traced)
    found = tracer.problems + tracer.reconcile()
    if tracer.runs_checked != len(scenarios):
        found.append(f"tracer checked {tracer.runs_checked} of {len(scenarios)} runs")
    tally.problems += [p for p in dict.fromkeys(found) if p not in tally.problems]
    tally.failed += bool(found)
    if traced.digest != plain.digest:
        tally.digest_mismatch(f"traced digest {traced.digest} != untraced {plain.digest}")
    seed_note = _check_seed_digest(workload, seed, plain.digest, tally, recorded)
    ref_digest = _reference_check(workload, tally, recorded)
    values = tracer.layer_metrics()
    values["trace.overhead_pct"] = ((traced.wall_s / plain.wall_s - 1.0) * 100.0, "%")
    OUT.mkdir(parents=True, exist_ok=True)
    names = sorted({s[2] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    spans_path = OUT / f"spans-{workload}.json"
    spans_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "names": names,
        "fields": ["id", "parent", "name", "start", "end"],
        "spans": [[i, p, index[n], s, e] for i, p, n, s, e in tracer.spans],
    }, separators=(",", ":")))
    notes = [
        f"untraced pass {plain.wall_s:.4f} s, traced pass {traced.wall_s:.4f} s",
        f"records {tracer.records}, record migrations {tracer.migrations}, "
        f"useful done {tracer.useful_done}, runs checked {tracer.runs_checked}",
        f"digest {seed_note}",
        f"reference digest {ref_digest}",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return tally, values, notes, plain.digest


def record_digests(first: int, last: int, names: tuple[str, ...]) -> None:
    """Checked traced passes of the named workloads for seeds first..last; write their digests."""
    recorded = load_digests()
    for workload in names:
        tally = Tally()
        digest = _reference_check(workload, tally, {}, checked_direct=True)
        if tally.failed:
            sys.exit(f"perfbench: {workload} reference pass is not correct: {tally.problems[:5]}")
        recorded.setdefault(workload, {})["smoke"] = {str(REFERENCE_SEED): digest}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for workload in names:
        full = recorded[workload].setdefault("full", {})
        for seed in range(first, last + 1):
            full.pop(str(seed), None)
            tally, _values, _notes, digest = trace(workload, seed, recorded)
            if tally.problems:
                sys.exit(f"perfbench: {workload} seed {seed} is not correct: {tally.problems[:5]}")
            full[str(seed)] = digest
            print(f"{workload} seed {seed} {digest}", flush=True)
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
