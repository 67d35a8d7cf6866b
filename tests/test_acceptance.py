"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (add ``-s`` to see the summary prints). Criteria 3 and 4 share
one experiment grid: the application-count sweep at twenty seeds per cell,
executed once per policy/reservation variant and cached for the session.
"""

import dataclasses
import json
import random
import time

import pytest

from fogsim.cli import main
from fogsim.config import RunConfig
from fogsim.engine import Scenario, Simulation, run
from fogsim.experiments import sweep
from fogsim.fixtures import EXPECTED, fd_table_nodes, fd_table_task, migration_times_from
from fogsim.metrics import completion_metrics, sla_penalty
from fogsim.model import FogNode, NetworkLink, NetworkPath, PriceBook, SlaTerms, Task, Tier
from fogsim.network import available_bandwidth, link_bandwidth, path_bandwidth
from fogsim.policies import handle_deadline_change, mc_allocate
from fogsim.scoring import availability_score, completion_time

SEEDS = 20

ACCEPT_SCENARIO = Scenario(
    clusters=2,
    devices_per_cluster=6,
    submit_interval=5.0,
    fluctuation_interval=2.0,
    deadline_range=(6.0, 16.0),
    reservation_period=60.0,
    cluster_block=4,
    admission_optimism=1.5,
    reservation_cap_fraction=0.3,
    distance_range=(5.0, 30.0),
    device_mips=(3000.0, 6000.0),
    initial_utilisation=(0.2, 0.55),
)


def test_criterion_1_golden_table_reproduction():
    start = time.perf_counter()
    got_ct = {}
    got_as = {}
    for node in fd_table_nodes():
        e_t = EXPECTED[node.id]["e_t"]
        c_t = completion_time(e_t, node.free_resource_fraction, node.caf_score,
                              1.0 - node.distance / node.max_supported_distance)
        a_v = node.battery_charge / sum(node.discharge_rates)
        got_ct[node.id] = c_t
        got_as[node.id] = availability_score(a_v, c_t)
    want_ct = {"FD1": 4.44, "FD2": 5.21, "FD3": 66.67, "FD4": 1.37, "FD5": 3.37}
    want_as = {"FD1": 2.25, "FD2": 2.304, "FD3": 0.3, "FD4": 21.84, "FD5": 1.485}
    for name in want_ct:
        assert got_ct[name] == pytest.approx(want_ct[name], abs=0.01), name
        assert got_as[name] == pytest.approx(want_as[name], abs=0.01), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - golden five-device table reproduced (+/-0.01) in {elapsed:.3f}s")


def test_criterion_2_worked_example_decisions():
    start = time.perf_counter()
    nodes = {n.id: n for n in fd_table_nodes()}
    task = fd_table_task()

    ranked = mc_allocate(task, list(nodes.values()))
    assert ranked[0].id == "FD4"

    congested = nodes["FD4"]
    congested.free_resource_fraction = 0.01
    decision = handle_deadline_change(
        task, [nodes[i] for i in ("FD1", "FD2", "FD5")], 5.0, current=congested,
        migration_times=migration_times_from("FD4"))
    assert decision.target_id == "FD1"
    assert "FD5" in decision.feasible and "FD2" not in decision.feasible
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS - fresh pick FD4, migration pick FD1 over FD5 in {elapsed:.3f}s")


@pytest.fixture(scope="module")
def apps_sweep(tmp_path_factory):
    """Apps-axis grid (70..560, 20 seeds) for mc/on, baseline/on and mc/off."""
    out = tmp_path_factory.mktemp("sweep")
    cfg = RunConfig(scenario=ACCEPT_SCENARIO, prices=PriceBook(), sla=SlaTerms(),
                    policy_set=["mc"], reservation_set=[True])
    start = time.perf_counter()
    sweep(cfg, "apps", SEEDS, str(out), workers=2,
          policies=["mc", "baseline"], reservations=[True])
    sweep(cfg, "apps", SEEDS, str(out), workers=2,
          policies=["mc"], reservations=[False])
    elapsed = time.perf_counter() - start
    rows = {}
    for cell_file in (out / "cells").glob("*.json"):
        row = json.loads(cell_file.read_text())
        key = (row["axis_value"], row["policy"], row["reservation"], row["seed"])
        rows[key] = row
    return rows, elapsed


def test_criterion_3_directional_delay(apps_sweep):
    rows, elapsed = apps_sweep
    wins = 0
    pairs = 0
    mc_avgs = []
    ba_avgs = []
    for cell in range(70, 561, 70):
        for seed in range(1, SEEDS + 1):
            mc = rows[(str(cell), "mc", "on", str(seed))]
            ba = rows[(str(cell), "baseline", "on", str(seed))]
            pairs += 1
            wins += float(mc["total_delay_s"]) < float(ba["total_delay_s"])
            mc_avgs.append(float(mc["avg_delay_s"]))
            ba_avgs.append(float(ba["avg_delay_s"]))
    share = wins / pairs
    mc_mean = sum(mc_avgs) / len(mc_avgs)
    ba_mean = sum(ba_avgs) / len(ba_avgs)
    assert share >= 0.80, f"multi-criteria won only {share:.0%} of {pairs} paired seeds"
    assert mc_mean <= ba_mean
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s (target 300s)"
    print(f"\nACCEPTANCE 3 PASS - total-delay wins {share:.0%} of {pairs} pairs; "
          f"mean avg delay {mc_mean:.3f}s vs {ba_mean:.3f}s; grid in {elapsed:.0f}s")


def test_criterion_4_reservation_effect(apps_sweep):
    rows, _ = apps_sweep
    sla_on = []
    sla_off = []
    pen_on = []
    pen_off = []
    for cell in range(70, 561, 70):
        for seed in range(1, SEEDS + 1):
            on = rows[(str(cell), "mc", "on", str(seed))]
            off = rows[(str(cell), "mc", "off", str(seed))]
            sla_on.append(float(on["sla_violation_pct"]))
            sla_off.append(float(off["sla_violation_pct"]))
            pen_on.append(float(on["penalty_usd"]))
            pen_off.append(float(off["penalty_usd"]))
    n = len(sla_on)
    mean_sla_on, mean_sla_off = sum(sla_on) / n, sum(sla_off) / n
    mean_pen_on, mean_pen_off = sum(pen_on) / n, sum(pen_off) / n
    assert mean_sla_on <= mean_sla_off
    assert mean_pen_on <= mean_pen_off
    print(f"\nACCEPTANCE 4 PASS - mean SLA violation {mean_sla_on:.3f}% (reserved) "
          f"<= {mean_sla_off:.3f}% (unreserved); penalty {mean_pen_on:.2f} <= {mean_pen_off:.2f}")


def test_criterion_5_cost_neutrality(apps_sweep):
    rows, _ = apps_sweep
    worst = 0.0
    for cell in range(70, 561, 70):
        for seed in range(1, SEEDS + 1):
            mc = float(rows[(str(cell), "mc", "on", str(seed))]["total_cost_usd"])
            ba = float(rows[(str(cell), "baseline", "on", str(seed))]["total_cost_usd"])
            rel = abs(mc - ba) / max(ba, 1e-12)
            worst = max(worst, rel)
            assert rel < 0.001, (cell, seed, mc, ba)
    print(f"\nACCEPTANCE 5 PASS - usage cost identical across policies "
          f"(worst relative difference {worst:.2e})")


def test_criterion_6_determinism(tmp_path):
    config = {
        "scenario": dict(seed=11, app_count=4, clusters=2, devices_per_cluster=3,
                         submit_interval=4.0, deadline_range=[6.0, 16.0],
                         deadline_variation_pct=40.0)
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(path), "--out", str(out)]) == 0
        outs.append(((out / "run.csv").read_bytes(), (out / "run.json").read_bytes()))
    assert outs[0] == outs[1]
    fd = []
    for name in ("fa", "fb"):
        out = tmp_path / name
        assert main(["run", "fixtures/fd-table", "--out", str(out)]) == 0
        fd.append((out / "run.csv").read_bytes())
    assert fd[0] == fd[1]
    print("\nACCEPTANCE 6 PASS - repeated runs byte-identical (generated and fixture scenarios)")


def _random_fleet(rng, count):
    fleet = []
    for i in range(count):
        free = rng.uniform(0.1, 0.9)
        fleet.append(FogNode(
            id=f"n{i:02d}", tier=Tier.FOG_DEVICE,
            cpu_capacity=rng.uniform(500, 6000),
            free_resource_fraction=free, native_utilisation=1.0 - free,
            battery_charge=rng.uniform(20, 90), discharge_rates=[rng.uniform(0.1, 1.0)],
            distance=rng.uniform(0, 39), max_supported_distance=40.0,
            caf_score=rng.uniform(0.5, 1.3)))
    return fleet


def test_criterion_7_oracle_equivalence():
    rng = random.Random(2024)
    for trial in range(120):
        fleet = _random_fleet(rng, rng.randint(1, 10))
        task = Task(id="t", app_id="a", length=rng.uniform(100, 5000),
                    data_size=40960, deadline=5.0,
                    completed_work=rng.uniform(0, 50))
        ranked = mc_allocate(task, fleet)

        def oracle_completion(node):
            # independent recomputation, straight from the definitions
            e_t = (task.length - task.completed_work) / node.cpu_capacity
            t_bd = 1.0 - node.distance / node.max_supported_distance
            return e_t / (node.free_resource_fraction * node.caf_score * t_bd)

        brute = sorted(fleet, key=lambda n: (oracle_completion(n), n.id))
        assert [n.id for n in ranked] == [n.id for n in brute], trial

    scenario = dataclasses.replace(ACCEPT_SCENARIO, app_count=12, seed=7)
    trace = run(scenario)
    got = completion_metrics(trace.records)
    by_app = {}
    for r in trace.records:
        by_app.setdefault(r.app_id, []).append(r.delay + r.internal_delay + r.processing_time)
    for app, parts in by_app.items():
        assert got.cta_by_app[app] == pytest.approx(sum(parts), rel=1e-9)
    flat = [p for parts in by_app.values() for p in parts]
    assert got.cta_avg == pytest.approx(sum(flat) / len(flat), rel=1e-9)
    assert got.ctu_avg == pytest.approx(sum(flat) / len(flat), rel=1e-9)
    print("\nACCEPTANCE 7 PASS - allocator matches brute-force ordering on 120 instances; "
          "completion metrics match trace re-summation at 1e-9")


def test_criterion_8_invariant_suites():
    rng = random.Random(512)

    for _ in range(1000):  # fairness: shares never exceed the raw link rate
        a, b = rng.uniform(1e3, 1e9), rng.uniform(1e3, 1e9)
        link = NetworkLink(endpoint_bandwidths=(a, b),
                           sharing_users=rng.randint(1, 500),
                           medium_throughput=rng.uniform(0.01, 1.0))
        assert link.sharing_users * available_bandwidth(link) <= link_bandwidth(link) * (1 + 1e-12)

    for _ in range(1000):  # bottleneck monotonicity
        widths = [rng.uniform(1e3, 1e9) for _ in range(rng.randint(1, 6))]
        links = [NetworkLink(endpoint_bandwidths=(w, w)) for w in widths]
        extra = NetworkLink(endpoint_bandwidths=(rng.uniform(1e3, 1e9),) * 2)
        assert path_bandwidth(NetworkPath(links=links + [extra])) <= \
            path_bandwidth(NetworkPath(links=links))

    for _ in range(1000):  # availability identity
        e_t = rng.uniform(1e-3, 1e3)
        c_t = completion_time(e_t, rng.uniform(0.05, 1.0), rng.uniform(0.05, 3.0),
                              rng.uniform(0.05, 1.0))
        a_v = rng.uniform(0.0, 1e4)
        assert availability_score(a_v, c_t) * c_t == pytest.approx(a_v, rel=1e-12, abs=1e-12)

    for _ in range(1000):  # penalty monotone in delay
        alpha, beta = rng.uniform(0, 5), rng.uniform(0, 5)
        dt = rng.uniform(0, 1e3)
        assert sla_penalty(SlaTerms(alpha, beta, dt + rng.uniform(0, 100))) >= \
            sla_penalty(SlaTerms(alpha, beta, dt))

    conserved = 0
    for case in range(1000):  # work conservation + capacity bound on tiny runs
        scenario = Scenario(
            seed=rng.randint(1, 100_000),
            app_count=rng.randint(1, 3),
            tasks_per_app=rng.randint(1, 3),
            clusters=rng.choice((1, 2)),
            devices_per_cluster=rng.randint(1, 3),
            submit_interval=rng.uniform(0.5, 2.0),
            fluctuation_interval=rng.uniform(0.5, 2.0),
            deadline_variation_pct=rng.choice((0.0, 40.0)),
            reservation=rng.random() < 0.5,
            task_length=rng.uniform(200.0, 1500.0),
            reservation_period=5.0,
        )
        sim = Simulation(scenario)
        sim.run()
        submitted = scenario.app_count * scenario.tasks_per_app * scenario.task_length
        completed = sum(t.progress for t in sim.tasks.values())
        assert completed == pytest.approx(submitted), scenario
        assert sim.max_load_ratio <= 1.0 + 1e-9, scenario
        conserved += 1
    assert conserved == 1000
    print("\nACCEPTANCE 8 PASS - fairness, bottleneck, availability identity, penalty "
          "monotonicity, work conservation and capacity bound each over 1000 cases")
