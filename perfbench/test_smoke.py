"""Smoke test of the benchmark: every workload at its smoke size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import heapq  # noqa: E402

from fogsim import config, engine  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = harness.REFERENCE_SEED


def _smoke(workload, tmp_path):
    path = workloads.write_config(workload, SEED, "smoke", tmp_path)
    cfg = config.load_config(str(path))
    return cfg, workloads.pass_scenarios(workload, cfg, SEED, "smoke")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_smoke_pass_reconciles_and_matches_recorded_digest(workload, tmp_path):
    cfg, scenarios = _smoke(workload, tmp_path)
    plain = workloads.run_pass(workload, cfg, scenarios, tmp_path / "plain")
    with Tracer() as tracer:
        traced = workloads.run_pass(workload, cfg, scenarios, tmp_path / "traced")

    assert plain.problems == [] and traced.problems == []
    assert tracer.problems == [] and tracer.reconcile() == []
    assert tracer.runs_checked == len(scenarios)
    expected_tasks = sum(sc.app_count * sc.tasks_per_app for sc in scenarios)
    layers = tracer.layer_metrics()
    assert tracer.records == expected_tasks
    assert layers["engine.events_pushed.arrive"][0] == expected_tasks
    assert layers["engine.events_pushed.app"][0] == sum(sc.app_count for sc in scenarios)
    assert tracer.useful_done == expected_tasks
    recorded = json.loads(harness.DIGESTS.read_text())[workload]["smoke"][str(SEED)]
    assert plain.digest == traced.digest == recorded


def test_tracer_restores_every_patched_name(tmp_path):
    originals = (engine.Simulation.run, engine.Simulation.__init__, engine.generate_workload,
                 engine.cpu_fluctuation_rate, config.load_config)
    cfg, scenarios = _smoke("deadline-storm", tmp_path)
    with Tracer():
        workloads.run_pass("deadline-storm", cfg, scenarios[:1], tmp_path)
    assert (engine.Simulation.run, engine.Simulation.__init__, engine.generate_workload,
            engine.cpu_fluctuation_rate, config.load_config) == originals
    assert engine.heapq is heapq


def test_grid_rows_match_checked_direct_runs(tmp_path):
    cfg, scenarios = _smoke("apps-grid", tmp_path)
    grid = workloads.run_pass("apps-grid", cfg, scenarios, tmp_path / "grid")
    assert len([r for r in grid.rows if r["seed"] != "mean"]) == len(scenarios) == 24
    assert workloads.check_grid_against_direct(scenarios, cfg, grid) == []


def test_run_problems_flags_a_lost_record(tmp_path):
    cfg, scenarios = _smoke("deadline-storm", tmp_path)
    sim = engine.Simulation(scenarios[0])
    trace = sim.run()
    from fogsim import metrics

    report = metrics.build_report(trace, cfg.prices, cfg.sla)
    assert workloads.run_problems(scenarios[0], sim, trace, report) == []
    trace.records.pop()
    assert any("records for" in p for p in workloads.run_problems(scenarios[0], sim, trace, report))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deadline-storm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
