"""Workload definitions, one timed pass of each, and the output checks.

A workload is a config file (written by :func:`write_config`, read back
through ``fogsim.config.load_config``) plus the list of runs that make
one pass over it. The benchmark seed decides every generated input; the
program under test only ever receives the resulting ``Scenario`` objects.

Sizes: ``full`` is what the benchmark times, ``smoke`` is the same
workload shrunk so that the smoke test and the per-invocation reference
check finish in about a second.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import random
import shutil
import time
from pathlib import Path

from fogsim import config, engine, experiments, metrics

# The acceptance scenario of the apps-axis criteria (12 devices, 2 clusters),
# copied here so the benchmark does not depend on the test suite.
ACCEPT_SCENARIO = dict(
    clusters=2,
    devices_per_cluster=6,
    submit_interval=5.0,
    fluctuation_interval=2.0,
    deadline_range=[6.0, 16.0],
    reservation_period=60.0,
    cluster_block=4,
    admission_optimism=1.5,
    reservation_cap_fraction=0.3,
    distance_range=[5.0, 30.0],
    device_mips=[3000.0, 6000.0],
    initial_utilisation=[0.2, 0.55],
)

# (policy, reservation) variants of each workload.
VARIANTS = {
    "apps-grid": (("mc", True), ("baseline", True), ("mc", False)),
    "deadline-storm": (("mc", True), ("baseline", True)),
}
NAMES = tuple(VARIANTS)

# Scenario section per workload and size; "seeds" is scenario seeds per pass.
SIZES = {
    "apps-grid": {
        "full": {"tasks_per_app": 10},
        # the axis fixes the app counts; fewer, denser arrivals and slower
        # fluctuation ticks keep the smoke grid to about a second
        "smoke": {"tasks_per_app": 1, "submit_interval": 0.5, "fluctuation_interval": 10.0},
    },
    "deadline-storm": {
        "full": {"app_count": 60, "seeds": 8},
        "smoke": {"app_count": 6, "seeds": 1},
    },
}

STORM = dict(deadline_variation_pct=80.0, deadline_changes_per_task=3,
             utilisation_band=[0.1, 0.5])


def acceptance_fleet(seed: int) -> list[dict]:
    """Explicit fleet in the acceptance scenario's ranges.

    The device specs are drawn once from a fixed stream; the benchmark seed
    only shuffles which slot (and so which id, fluctuation stream and tie
    order) each spec takes inside its cluster. Cluster capacity stays the
    same for every seed, so one seed's pass costs about as much as
    another's, while the runs themselves differ.
    """
    sc = engine.Scenario(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in ACCEPT_SCENARIO.items()})
    spec_rng = random.Random("perfbench:fleet")
    slot_rng = random.Random(f"perfbench:{seed}:slots")
    fleet = []
    for c in range(sc.clusters):
        devices = []
        for _ in range(sc.devices_per_cluster):
            u0 = spec_rng.uniform(*sc.initial_utilisation)
            devices.append(dict(
                tier="fog_device", cluster=c, bandwidth=sc.device_bandwidth,
                cpu_capacity=spec_rng.uniform(*sc.device_mips),
                free_resource_fraction=1.0 - u0, native_utilisation=u0,
                battery_charge=spec_rng.uniform(*sc.battery_range),
                discharge_rates=[round(spec_rng.uniform(*sc.discharge_range), 3)],
                distance=spec_rng.uniform(*sc.distance_range),
                caf_score=spec_rng.uniform(*sc.caf_range),
            ))
        slot_rng.shuffle(devices)
        fleet.extend(dict(spec, id=f"c{c}d{d:02d}") for d, spec in enumerate(devices))
        for s in range(sc.servers_per_cluster):
            fleet.append(dict(
                id=f"c{c}s{s}", tier="fog_server", cluster=c, bandwidth=sc.server_bandwidth,
                cpu_capacity=sc.server_mips, free_resource_fraction=1.0,
                native_utilisation=0.0, battery_charge=100.0, discharge_rates=[],
                distance=spec_rng.uniform(*sc.distance_range), caf_score=1.0,
            ))
    return fleet


def scenario_seeds(workload: str, seed: int, size: str) -> list[int]:
    """Scenario seeds of one pass; apps-grid takes its seeds from the sweep."""
    count = SIZES[workload][size].get("seeds", 1)
    return [seed * 1000 + i + 1 for i in range(count)]


def config_data(workload: str, seed: int, size: str) -> dict:
    """The config file contents for one workload, size and benchmark seed."""
    sized = {k: v for k, v in SIZES[workload][size].items() if k != "seeds"}
    first = scenario_seeds(workload, seed, size)[0]
    if workload == "apps-grid":
        scenario = dict(ACCEPT_SCENARIO, app_count=70, seed=1, **sized)
        return {"scenario": dict(scenario, policy="mc", reservation=True),
                "fleet": acceptance_fleet(seed)}
    extra = STORM if workload == "deadline-storm" else {}
    scenario = dict(sized, seed=first, **extra)
    return {"scenario": dict(scenario, policy="mc", reservation=True)}


def write_config(workload: str, seed: int, size: str, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"config-{workload}-{size}-s{seed}.json"
    path.write_text(json.dumps(config_data(workload, seed, size), indent=1))
    return path


def pass_scenarios(workload: str, cfg: config.RunConfig, seed: int,
                   size: str) -> list[engine.Scenario]:
    """Every run of one pass, as the scenarios the program receives.

    For apps-grid these are the runs ``experiments.sweep`` makes itself;
    they are listed so that checked direct runs can be compared with it.
    """
    out = []
    if workload == "apps-grid":
        for value, overrides in experiments.axis_cells("apps"):
            for policy, reservation in VARIANTS[workload]:
                sid = experiments.scenario_id("apps", value, policy, reservation, 1)
                out.append(dataclasses.replace(cfg.scenario, seed=1, policy=policy,
                                               reservation=reservation, label=sid,
                                               **overrides))
        return out
    value = str(cfg.scenario.app_count)
    for scenario_seed in scenario_seeds(workload, seed, size):
        for policy, reservation in VARIANTS[workload]:
            sid = experiments.scenario_id(workload, value, policy, reservation, scenario_seed)
            out.append(dataclasses.replace(cfg.scenario, seed=scenario_seed, policy=policy,
                                           reservation=reservation, label=sid))
    return out


@dataclasses.dataclass
class PassResult:
    wall_s: float
    runs: int
    tasks: int
    failed: int
    problems: list[str]
    rows: list[dict]

    @property
    def digest(self) -> str:
        return rows_digest(self.rows)

    def sim_mean(self, column: str) -> float:
        per_run = [float(r[column]) for r in self.rows if r["seed"] != "mean"]
        return sum(per_run) / len(per_run)


def rows_digest(rows: list[dict]) -> str:
    """SHA-256 of the report rows, sorted, one canonical JSON line each."""
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_problems(scenario: engine.Scenario, sim: engine.Simulation,
                 trace: metrics.RunTrace, report) -> list[str]:
    """Everything that makes one finished run wrong; empty when it is fine."""
    label = scenario.label
    problems = []
    expected = scenario.app_count * scenario.tasks_per_app
    if len(trace.records) != expected:
        problems.append(f"{label}: {len(trace.records)} records for {expected} tasks")
    early = sum(1 for r in trace.records if r.completion_time < r.submit_time)
    if early:
        problems.append(f"{label}: {early} records complete before submission")
    if sim.max_load_ratio > 1.0 + 1e-9:
        problems.append(f"{label}: max_load_ratio {sim.max_load_ratio!r} above 1")
    for f in dataclasses.fields(report):
        if not all(math.isfinite(v) for v in _numbers(getattr(report, f.name))):
            problems.append(f"{label}: report field {f.name} is not finite")
    return problems


def _numbers(value) -> list:
    """The numbers inside one report field; bools and strings hold none."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


def _run_direct(scenarios, cfg) -> PassResult:
    """Simulation(...).run() plus build_report per scenario, timed run by run."""
    wall = 0.0
    tasks = failed = 0
    problems: list[str] = []
    rows = []
    for sc in scenarios:
        start = time.perf_counter()
        try:
            sim = engine.Simulation(sc)
            trace = sim.run()
            report = metrics.build_report(trace, cfg.prices, cfg.sla)
        except Exception as exc:  # a raising run is a failed run, not a crash
            wall += time.perf_counter() - start
            failed += 1
            problems.append(f"{sc.label}: raised {type(exc).__name__}: {exc}")
            continue
        wall += time.perf_counter() - start
        found = run_problems(sc, sim, trace, report)
        failed += bool(found)
        problems += found
        tasks += len(trace.records)
        rows.append(experiments.report_row(sc.label, str(sc.app_count), report))
    return PassResult(wall, len(scenarios), tasks, failed, problems, rows)


def _run_sweep(scenarios, cfg, work_dir: Path) -> PassResult:
    """The apps grid through experiments.sweep, in a directory of its own.

    sweep caches finished cells under ``<out>/cells``; a fresh directory per
    pass keeps every repetition a full computation.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    variants = VARIANTS["apps-grid"]
    on = [p for p, r in variants if r]
    off = [p for p, r in variants if not r]
    start = time.perf_counter()
    try:
        paths = [experiments.sweep(cfg, "apps", 1, str(work_dir / "on"), workers=1,
                                   policies=on, reservations=[True]),
                 experiments.sweep(cfg, "apps", 1, str(work_dir / "off"), workers=1,
                                   policies=off, reservations=[False])]
    except Exception as exc:  # a raising sweep fails every run in it
        wall = time.perf_counter() - start
        shutil.rmtree(work_dir, ignore_errors=True)
        return PassResult(wall, len(scenarios), 0, len(scenarios),
                          [f"sweep raised {type(exc).__name__}: {exc}"], [])
    wall = time.perf_counter() - start
    rows = []
    for path in paths:
        with open(path, newline="") as fh:
            rows += list(csv.DictReader(fh))
    shutil.rmtree(work_dir, ignore_errors=True)
    problems = []
    per_run = [r for r in rows if r["seed"] != "mean"]
    if len(per_run) != len(scenarios):
        problems.append(f"sweep wrote {len(per_run)} run rows for {len(scenarios)} runs")
    for row in rows:
        for col in experiments.CSV_COLUMNS[5:]:
            if not math.isfinite(float(row[col])):
                problems.append(f"{row['scenario_id']}: {col} is not finite")
    tasks = sum(sc.app_count * sc.tasks_per_app for sc in scenarios)
    return PassResult(wall, len(scenarios), tasks, len(scenarios) if problems else 0,
                      problems, rows)


def run_pass(workload: str, cfg: config.RunConfig, scenarios: list[engine.Scenario],
             work_dir: Path) -> PassResult:
    if workload == "apps-grid":
        return _run_sweep(scenarios, cfg, work_dir)
    return _run_direct(scenarios, cfg)


def check_grid_against_direct(scenarios, cfg, grid: PassResult) -> list[str]:
    """Run the grid's scenarios directly, checked run by run, and compare rows.

    The sweep only returns formatted rows; this is where its runs get the
    record-level checks.
    """
    direct = _run_direct(scenarios, cfg)
    swept = sorted((r for r in grid.rows if r["seed"] != "mean"),
                   key=lambda r: r["scenario_id"])
    direct_rows = sorted(direct.rows, key=lambda r: r["scenario_id"])
    problems = list(direct.problems)
    if swept != direct_rows:
        problems.append("sweep rows differ from the checked direct runs")
    return problems
