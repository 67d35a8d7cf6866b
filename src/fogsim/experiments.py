"""Experiment grids: axis definitions, per-cell runs, CSV/JSON emission.

Each sweep cell is one (axis value, policy, reservation, seed) scenario.
The cells of one seed form one job, run largest ``app_count`` first on one
``engine.Draws``, so they draw their decision-free inputs once; with fewer
seeds than workers, each (seed, policy, reservation) is a job of its own.
Jobs may run in parallel, and results are merged in scenario-id order so
the output never depends on scheduling. Each cell is cached atomically
under ``<out>/cells`` as soon as it finishes, named by its scenario id plus
a hash of its scenario, prices, SLA terms and the package source, so a
re-run skips exactly the cells whose inputs and code are unchanged. A
cached cell that is not a whole row of its cell (say, one cut short by a
crash, another cell's row or a value that is not a finite number) is
computed again.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
from pathlib import Path

from . import engine, metrics
from .config import ConfigError, RunConfig
from .model import MetricsReport, PriceBook, SlaTerms, fold_sum

CSV_COLUMNS = [
    "scenario_id", "axis_value", "policy", "reservation", "seed",
    "avg_delay_s", "total_delay_s", "max_delay_s", "min_delay_s",
    "avg_processing_s", "total_cost_usd", "sla_violation_pct", "penalty_usd",
]
NUMERIC_COLUMNS = CSV_COLUMNS[5:]  # the values a row reports; the columns before name its cell

AXES = ("apps", "deadline_variation", "free_resource", "battery", "fluctuation")
# The scenario field an axis sets, and the config section whose entries replace it
# (an explicit workload fixes the applications, an explicit fleet the batteries).
OVERRIDDEN_BY = {"apps": ("app_count", "workload"), "battery": ("battery_range", "fleet")}

# Band grids for the variation studies. Free-resource variation widens in
# 10-point steps; battery availability moves up in 15-point windows; the
# fluctuation grid keeps its lower bound and stretches the upper one.
UP_BANDS = [(0.0, 0.10), (0.10, 0.20), (0.20, 0.30), (0.30, 0.40), (0.40, 0.50), (0.50, 0.60)]
BA_BANDS = [(5.0, 15.0), (15.0, 30.0), (30.0, 45.0), (45.0, 60.0), (60.0, 75.0), (75.0, 90.0)]
AF_BANDS = [(0.10, 0.10 + 0.10 * k) for k in range(1, 10)]


def axis_cells(axis: str) -> list[tuple[str, dict]]:
    """(label, scenario overrides) for every cell of the axis."""
    if axis == "apps":
        return [(str(n), {"app_count": n}) for n in range(70, 561, 70)]
    if axis == "deadline_variation":
        return [(str(pct), {"deadline_variation_pct": float(pct)})
                for pct in range(10, 81, 10)]
    if axis == "free_resource":
        return [(f"UP{i+1}", {"utilisation_band": band}) for i, band in enumerate(UP_BANDS)]
    if axis == "battery":
        return [(f"BA{i+1}", {"battery_range": band}) for i, band in enumerate(BA_BANDS)]
    if axis == "fluctuation":
        return [(f"AF{i+1}", {"utilisation_band": band}) for i, band in enumerate(AF_BANDS)]
    raise ConfigError(f"axis: unknown axis {axis!r} (choose from {', '.join(AXES)})")


def scenario_id(axis: str, value: str, policy: str, reservation: bool, seed: int) -> str:
    return f"{axis}-{value}-{policy}-res{'on' if reservation else 'off'}-s{seed}"


def run_cell(scenario: engine.Scenario, prices: PriceBook, sla: SlaTerms,
             draws: engine.Draws | None = None) -> MetricsReport:
    trace = engine.Simulation(scenario, draws).run()
    return metrics.build_report(trace, prices, sla)


def report_row(sid: str, axis_value: str, report: MetricsReport) -> dict:
    return {
        "scenario_id": sid,
        "axis_value": axis_value,
        "policy": report.policy,
        "reservation": "on" if report.reservation else "off",
        "seed": str(report.seed),
        "avg_delay_s": f"{report.avg_delay:.6f}",
        "total_delay_s": f"{report.total_delay:.6f}",
        "max_delay_s": f"{report.max_delay:.6f}",
        "min_delay_s": f"{report.min_delay:.6f}",
        "avg_processing_s": f"{report.avg_processing:.6f}",
        "total_cost_usd": f"{report.usage_cost:.9f}",
        "sla_violation_pct": f"{report.sla_violation_pct:.4f}",
        "penalty_usd": f"{report.penalty_cost:.6f}",
    }


def _mean_row(rows: list[dict], axis_value: str, policy: str, reservation: str) -> dict:
    out = {
        "scenario_id": f"mean-{axis_value}-{policy}-res{reservation}",
        "axis_value": axis_value,
        "policy": policy,
        "reservation": reservation,
        "seed": "mean",
    }
    for col in NUMERIC_COLUMNS:
        values = [float(r[col]) for r in rows]
        out[col] = f"{fold_sum(values) / len(values):.6f}" if values else "0.000000"
    return out


@functools.cache
def _code_fingerprint() -> str:
    """SHA-256 of the package's ``*.py`` bytes, files in name order; computed on first use."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(path.read_bytes() for path in files)).hexdigest()


def _cell_path(cells_dir: Path, sid: str, scenario: engine.Scenario, prices: PriceBook,
              sla: SlaTerms) -> Path:
    """Cache file of one cell: its id plus a short hash of everything it runs with."""
    inputs = json.dumps([dataclasses.asdict(x) for x in (scenario, prices, sla)]
                        + [_code_fingerprint()], sort_keys=True)
    return cells_dir / f"{sid}-{hashlib.sha256(inputs.encode()).hexdigest()[:12]}.json"


def _cached_row(path: Path, identity: dict) -> dict | None:
    """The row cached at ``path``, or None when it is missing or not a whole row of this cell.

    A whole row has exactly the CSV columns, the cell's ``identity`` values
    and, in every numeric column, the text of a finite number.
    """
    try:
        row = json.loads(path.read_text())
        whole = (isinstance(row, dict) and sorted(row) == sorted(CSV_COLUMNS)
                 and all(row[col] == value for col, value in identity.items())
                 and all(isinstance(row[col], str) and math.isfinite(float(row[col]))
                         for col in NUMERIC_COLUMNS))
    except (FileNotFoundError, ValueError):  # ValueError: not JSON, not UTF-8 or not a number
        return None
    return row if whole else None


def _job_cells(job: list):
    """(path, row) of each cell of one job, in job order, each as soon as it is done."""
    draws = engine.Draws()
    for path, sid, axis_value, scenario, prices, sla in job:
        yield path, report_row(sid, axis_value, run_cell(scenario, prices, sla, draws))


def _job_worker(job: list) -> list[tuple[Path, dict]]:
    return list(_job_cells(job))


def _finished_cells(jobs: list, workers: int):
    """(path, row) of every cell of every job, in job order.

    Without a pool each cell comes as soon as it is done; a pool hands back a
    job's cells when the job is done. The pool never has more processes than
    jobs: a forked pool starts them all at once.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield from _job_cells(job)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays its import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for cells in pool.map(_job_worker, jobs):
            yield from cells


def sweep(
    cfg: RunConfig,
    axis: str,
    seeds: int,
    out_dir: str,
    workers: int = 1,
    policies: list[str] | None = None,
    reservations: list[bool] | None = None,
) -> Path:
    """Run the full grid for one axis and write the aggregated CSV.

    Returns the CSV path. Rows cover every (cell, policy, reservation,
    seed) plus one mean row per (cell, policy, reservation). An axis whose
    field the config's ``fleet`` or ``workload`` section overrides would
    write the same row under every value, so it is refused before any cell runs.
    """
    if axis in OVERRIDDEN_BY:
        field, section = OVERRIDDEN_BY[axis]
        if getattr(cfg.scenario, f"explicit_{section}") is not None:
            raise ConfigError(f"axis: {axis!r} sets {field}, which the config's {section!r} "
                              f"section overrides, so every cell would run the same scenario")
    policies = policies or cfg.policy_set
    reservations = reservations if reservations is not None else cfg.reservation_set
    cells_dir = Path(out_dir) / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    # a job per seed, or per (seed, policy, reservation) when the seeds are fewer than the workers
    split = seeds < workers
    by_job: dict[tuple, list] = {}  # job -> its cells to compute
    cells = []
    found: dict[Path, dict] = {}  # cell path -> row, cached or computed
    for value, overrides in axis_cells(axis):
        for policy in policies:
            for reservation in reservations:
                for seed in range(1, seeds + 1):
                    sid = scenario_id(axis, value, policy, reservation, seed)
                    scenario = dataclasses.replace(
                        cfg.scenario, seed=seed, policy=policy,
                        reservation=reservation, label=sid, **overrides)
                    path = _cell_path(cells_dir, sid, scenario, cfg.prices, cfg.sla)
                    cells.append((path, value, policy, reservation))
                    row = _cached_row(path, {
                        "scenario_id": sid, "axis_value": value, "policy": policy,
                        "reservation": "on" if reservation else "off", "seed": str(seed)})
                    if row is None:
                        job = (seed, policy, reservation) if split else (seed,)
                        by_job.setdefault(job, []).append(
                            (path, sid, value, scenario, cfg.prices, cfg.sla))
                    else:
                        found[path] = row
    # largest app_count first, so a smaller cell reads a prefix of the workload drawn
    jobs = [sorted(job, key=lambda cell: -cell[3].app_count) for job in by_job.values()]
    for path, row in _finished_cells(jobs, workers):
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(row, sort_keys=True))
        os.replace(tmp, path)  # a reader sees the whole cell or none of it
        found[path] = row

    rows = []
    grouped: dict[tuple[str, str, str], list[dict]] = {}
    for path, value, policy, reservation in cells:
        row = found[path]
        rows.append(row)
        grouped.setdefault((value, policy, "on" if reservation else "off"), []).append(row)
    for (value, policy, res), group in sorted(grouped.items()):
        rows.append(_mean_row(group, value, policy, res))
    rows.sort(key=lambda r: (r["axis_value"], r["policy"], r["reservation"],
                             r["seed"] == "mean", r["seed"].zfill(8)))

    csv_path = Path(out_dir) / f"sweep-{axis}.csv"
    write_csv(csv_path, rows)
    return csv_path


def write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def run_scenario(cfg: RunConfig, out_dir: str) -> tuple[Path, Path]:
    """Execute one configured scenario for every policy x reservation cell.

    Writes one CSV (a row per cell) and one JSON file with the full reports,
    into ``out_dir``, which is created before any cell runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    reports = {}
    draws = engine.Draws()  # the cells differ only in policy and reservation
    for policy in cfg.policy_set:
        for reservation in cfg.reservation_set:
            sid = scenario_id("run", str(cfg.scenario.app_count), policy,
                              reservation, cfg.scenario.seed)
            scenario = dataclasses.replace(cfg.scenario, policy=policy,
                                           reservation=reservation, label=sid)
            report = run_cell(scenario, cfg.prices, cfg.sla, draws)
            rows.append(report_row(sid, str(cfg.scenario.app_count), report))
            reports[sid] = _report_json(report)
    rows.sort(key=lambda r: r["scenario_id"])
    csv_path = out / "run.csv"
    write_csv(csv_path, rows)
    json_path = out / "run.json"
    json_path.write_text(json.dumps(reports, sort_keys=True, indent=2))
    return csv_path, json_path


def _report_json(report: MetricsReport) -> dict:
    data = dataclasses.asdict(report)
    data["tc_per_request"] = [round(v, 12) for v in report.tc_per_request]
    return data
