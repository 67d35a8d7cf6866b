import copy
import dataclasses
import gc
import heapq
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogsim import engine
from fogsim.config import _check_fleet, load_config
from fogsim.engine import (
    Scenario,
    Simulation,
    _minutes,
    _TaskRt,
    deadline_change_events,
    fleet_specs,
    generate_workload,
    hash_cluster,
    next_fluctuation,
    run,
)
from fogsim.fixtures import fd_table_task
from fogsim.metrics import MESSAGE_KB, RequestRecord, account, build_report
from fogsim.model import NetworkLink, PriceBook, ReservationState, SlaTerms, Task, fold_sum
from fogsim.network import link_bandwidth, link_delay, processing_delay
from fogsim.policies import (
    MigrationDecision,
    baseline_allocate,
    handle_deadline_change,
    mc_allocate,
    migration_bound_ok,
    migration_order,
    rank,
)
from fogsim.scoring import (InvalidNodeError, availability_score, battery_minutes,
                            completion_time, cpu_fluctuation_rate, execution_seconds,
                            execution_time, fluctuation_step, migration_time,
                            throughput_by_distance)


def small_scenario(**overrides):
    base = dict(
        seed=1, app_count=6, clusters=2, devices_per_cluster=3,
        submit_interval=4.0, fluctuation_interval=2.0,
        deadline_range=(6.0, 16.0), reservation_period=20.0,
        distance_range=(5.0, 30.0), device_mips=(3000.0, 6000.0),
        initial_utilisation=(0.2, 0.55),
    )
    base.update(overrides)
    return Scenario(**base)


def accept_scenario(**overrides):
    """The acceptance scenario (tests/test_acceptance.py) at 70 apps."""
    base = dict(
        app_count=70, clusters=2, devices_per_cluster=6, submit_interval=5.0,
        fluctuation_interval=2.0, deadline_range=(6.0, 16.0), reservation_period=60.0,
        cluster_block=4, admission_optimism=1.5, reservation_cap_fraction=0.3,
        distance_range=(5.0, 30.0), device_mips=(3000.0, 6000.0),
        initial_utilisation=(0.2, 0.55),
    )
    base.update(overrides)
    return Scenario(**base)


class TestWorkload:
    def test_app_count_times_tasks(self):
        apps = generate_workload(Scenario(app_count=70))
        assert len(apps) == 70
        assert sum(len(a.tasks) for a in apps) == 700

    def test_same_seed_identical(self):
        a = generate_workload(Scenario(seed=9, app_count=12))
        b = generate_workload(Scenario(seed=9, app_count=12))
        assert a == b

    def test_empty(self):
        assert generate_workload(Scenario(app_count=0)) == []

    def test_field_ranges(self):
        for app in generate_workload(Scenario(seed=3, app_count=20)):
            for task in app.tasks:
                assert task.length == 3000.0
                assert task.data_size >= 5120 * 8
                assert task.deadline >= 4.0


def logged_arrivals(sim):
    """(time, node id) of each arrival ``sim`` handles, logged from outside the engine."""
    arrivals = []
    on_arrive = sim._on_arrive

    def logging_arrive(trt, node_id):
        arrivals.append((sim.now, node_id))
        on_arrive(trt, node_id)

    sim._on_arrive = logging_arrive
    return arrivals


def fd4_with_history(deadline):
    """The fixture fleet with reservation history and task t0 running on FD4."""
    sim = Simulation(load_config("fixtures/fd-table").scenario)
    for i, nid in enumerate(sim.device_ids):
        sim.nodes[nid].reservation = ReservationState(
            reserved_value=100.0 * i, last_app_request=600.0, total_apps_processed=2)
    trt = _TaskRt(task=fd_table_task(), cluster=0, deadline_abs=deadline,
                  cloud_bound=False)
    sim.tasks["t0"] = trt
    sim._on_arrive(trt, "FD4")
    return sim, trt


def received_tasks(monkeypatch):
    """Each ``Task`` the runs to come receive, by id: a finished record keeps none.

    Captured by wrapping the engine's ``generate_workload``, so these are the
    objects the engine held while the tasks ran.
    """
    tasks = {}

    def capturing(scenario):
        apps = generate_workload(scenario)
        tasks.update((task.id, task) for app in apps for task in app.tasks)
        return apps

    monkeypatch.setattr("fogsim.engine.generate_workload", capturing)
    return tasks


class TestFixtureRun:
    def test_single_task_runs_on_fd4(self):
        cfg = load_config("fixtures/fd-table")
        sim = Simulation(cfg.scenario)
        arrivals = logged_arrivals(sim)
        trace = sim.run()
        assert len(trace.records) == 1
        assert [node_id for _, node_id in arrivals] == ["FD4"]
        span = trace.records[0].completion_time - arrivals[0][0]
        assert span == pytest.approx(1.37, abs=0.01)

    def test_utilisation_spike_migrates_to_fd1(self):
        cfg = load_config("fixtures/fd-table")
        scenario = dataclasses.replace(
            cfg.scenario, scripted_utilisation=((1.05, "FD4", 0.002),))
        sim = Simulation(scenario)
        arrivals = logged_arrivals(sim)
        trace = sim.run()
        assert [node_id for _, node_id in arrivals][:2] == ["FD4", "FD1"]
        assert trace.records[0].migrations >= 1

    def test_migration_applies_reservation(self):
        sim, trt = fd4_with_history(deadline=0.5)  # FD4 cannot make it
        sim._attempt_migration(trt)
        cap = sim.sc.reservation_cap_fraction
        for i, nid in enumerate(sim.device_ids):
            nrt = sim.nodes[nid]
            if nid == "FD4":  # not a candidate: keeps its reservation
                assert nrt.reservation.reserved_value == 100.0 * i
            else:  # min((R_v + L_AR) / T_AP, cap * CPU_s)
                assert nrt.reservation.reserved_value == min(
                    (100.0 * i + 600.0) / 2, cap * nrt.node.cpu_capacity)

    def test_no_migration_search_keeps_reservations(self):
        sim, trt = fd4_with_history(deadline=50.0)  # FD4 still fits
        sim._attempt_migration(trt)
        assert [sim.nodes[nid].reservation.reserved_value
                for nid in sim.device_ids] == [100.0 * i for i in range(5)]

    def test_empty_workload_all_zero(self):
        cfg = load_config("fixtures/fd-table")
        scenario = dataclasses.replace(cfg.scenario, explicit_workload=[], app_count=0)
        report = build_report(run(scenario), PriceBook(), SlaTerms())
        assert report.requests == 0
        assert report.total_delay == 0.0
        assert report.usage_cost == 0.0
        assert report.empty


def fluctuation_trace(scenario, rng, steps):
    """Available fractions of device c0d00 over ``steps`` fluctuation ticks."""
    available = Simulation(scenario).nodes["c0d00"].available
    values = []
    for _ in range(steps):
        available = next_fluctuation(available, scenario.utilisation_band, rng,
                                     scenario.min_available)
        values.append(available)
    return values


class TestFluctuationProcess:
    def test_zero_band_constant(self):
        scenario = small_scenario(utilisation_band=(0.0, 0.0))
        values = fluctuation_trace(scenario, random.Random("x"), steps=5)
        assert len(set(values)) == 1
        assert cpu_fluctuation_rate([v * 100 for v in values]) == 0.0

    def test_reproducible_trace(self):
        scenario = small_scenario()
        a = fluctuation_trace(scenario, random.Random("s"), steps=10)
        b = fluctuation_trace(scenario, random.Random("s"), steps=10)
        assert a == b

    def test_step_respects_floor_and_ceiling(self):
        rng = random.Random(4)
        value = 0.5
        for _ in range(500):
            value = next_fluctuation(value, (0.1, 0.9), rng, floor=0.02)
            assert 0.02 <= value <= 0.98

    @pytest.mark.parametrize("band", [(0.0, 0.0), (0.1, 0.4), (0.1, 1.0), (0.5, 2.0)])
    def test_step_equals_the_uniform_expression(self, band):
        def reference(available, rng, floor):
            step = rng.uniform(*band)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            return min(max(available + sign * step, floor), 0.98)

        new, old = random.Random(f"pair:{band}"), random.Random(f"pair:{band}")
        value = want = 0.5
        clamped = Counter()
        for _ in range(5000):
            value = next_fluctuation(value, band, new, 0.02)
            want = reference(want, old, 0.02)
            assert value == want
            if value in (0.02, 0.98):
                clamped[value] += 1
        assert new.getstate() == old.getstate()  # the same draws, in the same order
        if band[1] >= 0.5:  # wide bands reflect at both ends
            assert clamped[0.02] > 0 and clamped[0.98] > 0

    def test_wide_band_causes_more_migrations(self):
        # widest fluctuation grid cell versus the narrowest, paired seeds
        narrow_total = 0
        wide_total = 0
        for seed in range(1, 21):
            base = small_scenario(seed=seed, app_count=12)
            narrow = dataclasses.replace(base, utilisation_band=(0.10, 0.20))
            wide = dataclasses.replace(base, utilisation_band=(0.10, 1.00))
            narrow_total += build_report(run(narrow), PriceBook(), SlaTerms()).migrations
            wide_total += build_report(run(wide), PriceBook(), SlaTerms()).migrations
        assert wide_total > narrow_total


class TestDeadlineChangeProcess:
    def test_zero_variation_no_events(self):
        apps = generate_workload(small_scenario())
        assert deadline_change_events(apps[0], 0.0, random.Random(1)) == []

    def test_reproducible_sequence(self):
        apps = generate_workload(small_scenario())
        a = deadline_change_events(apps[0], 80.0, random.Random("d"))
        b = deadline_change_events(apps[0], 80.0, random.Random("d"))
        assert a == b
        assert len(a) == len(apps[0].tasks)

    @pytest.mark.parametrize("changes", [0, 1, 3])
    def test_changes_per_task_sets_the_deadline_events(self, changes):
        scenario = small_scenario(deadline_variation_pct=40.0, deadline_changes_per_task=changes)
        sim = Simulation(scenario)
        kinds = []
        push = sim._push

        def counting_push(time, kind, *args):
            kinds.append(kind)
            push(time, kind, *args)

        sim._push = counting_push
        sim.run()
        tasks = scenario.app_count * scenario.tasks_per_app
        assert kinds.count("deadline") == changes * tasks

    def test_tightening_triggers_migration_or_flag(self):
        sim, trt = fd4_with_history(deadline=50.0)  # t0 running on FD4, well within its deadline
        # replay the policy step the engine would take on a hard tighten
        sim.now = 0.9
        trt.deadline_abs = 1.0
        trt.no_target = False
        before = trt.migrations
        sim._attempt_migration(trt)
        # 0.1 s is too little for any device: the task stays, with no target
        assert trt.migrations == before
        assert trt.no_target


class TestDeterminismAndConservation:
    def test_identical_reports(self):
        scenario = small_scenario(app_count=10, deadline_variation_pct=40.0)
        r1 = build_report(run(scenario), PriceBook(), SlaTerms())
        r2 = build_report(run(scenario), PriceBook(), SlaTerms())
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)

    def test_work_conserved_and_capacity_respected(self):
        scenario = small_scenario(app_count=10, deadline_variation_pct=30.0)
        sim = Simulation(scenario)
        trace = sim.run()
        submitted = sum(len(a.tasks) for a in generate_workload(scenario)) * 3000.0
        completed = sum(t.progress for t in sim.tasks.values())
        assert completed == pytest.approx(submitted)
        assert len(trace.records) == int(submitted / 3000.0)
        assert sim.max_load_ratio <= 1.0 + 1e-9

    def test_a_second_run_is_refused(self):
        sim = Simulation(Scenario(app_count=3))
        trace = sim.run()
        records, ledger = list(trace.records), copy.deepcopy(trace.ledger)
        with pytest.raises(RuntimeError, match="build a new one"):
            sim.run()
        # the first run's outputs stand: one record per task, each request billed once
        assert trace.records == records and len(records) == 30
        assert trace.ledger == ledger

    def test_policies_share_workload_and_ledger(self):
        base = small_scenario(app_count=8, seed=5)
        mc = run(dataclasses.replace(base, policy="mc"))
        ba = run(dataclasses.replace(base, policy="baseline"))
        assert mc.ledger == ba.ledger


class TestRecordAccounting:
    def test_internal_messages_count_subtasks_migrations_and_cloud(self, monkeypatch):
        scenario = accept_scenario()
        received = received_tasks(monkeypatch)
        sim = Simulation(scenario)
        trace = sim.run()
        assert received.keys() == sim.tasks.keys()
        subtasks = sum(math.ceil(t.length / scenario.subtask_length) for t in received.values())
        migrations = sum(t.migrations for t in sim.tasks.values())
        # every cloud leg carries CLOUD_LATENCY, so a cloud copy's legs take time
        cloud_bound = sum(t.cloud_legs_time > 0 for t in sim.tasks.values())
        assert migrations > 0 and cloud_bound > 0
        messages = sum(r.internal_messages for r in trace.records)
        assert messages == subtasks + migrations + cloud_bound
        report = build_report(trace, PriceBook(), SlaTerms())
        assert report.avg_internal_delay == report.total_internal_delay / messages


class TestWorkConservation:
    @pytest.mark.parametrize("policy,reservation",
                             [("mc", True), ("baseline", True), ("mc", False)])
    def test_integrated_progress_matches_length(self, policy, reservation, monkeypatch):
        # the progress the engine integrates, task by task
        received = received_tasks(monkeypatch)
        sim = Simulation(accept_scenario(policy=policy, reservation=reservation))
        sim.run()
        assert len(sim.tasks) == 700 and received.keys() == sim.tasks.keys()
        for tid, trt in sim.tasks.items():
            length = received[tid].length
            assert type(trt) is RequestRecord
            assert abs(trt.progress - length) <= 1e-9 * length, tid


def _snapshot(sim, nrt, n_next, peer):
    """The ``FogNode`` a ranking scores: the engine's node over ``n_next`` shares.

    The free fraction is the available fraction per share, with reserved
    capacity hidden from a peer-cluster requester; each share adds one base
    drain; the score is the live one. A copy, so the engine's nodes stay untouched.
    """
    avail = nrt.available
    if peer and sim.sc.reservation:
        avail = max(avail - nrt.reservation.reserved_value / nrt.node.cpu_capacity, 0.0)
    n = max(n_next, 1)
    return dataclasses.replace(nrt.node, free_resource_fraction=max(min(avail / n, 1.0), 1e-6),
                               discharge_rates=[nrt.base_drain] * n, caf_score=nrt.caf)


def _device_link(sim, nrt):
    """A generated device's link, built from the scenario as the engine's fleet is."""
    bw = sim.sc.device_bandwidth
    per_frame = processing_delay(sim.sc.frame_bits, bw)
    return NetworkLink(endpoint_bandwidths=(bw, bw), capacity=bw, medium_throughput=nrt.t_bd,
                       propagation_delay=nrt.node.distance / 1000.0 * 5e-6,
                       processing_delay=per_frame, transmission_delay=per_frame,
                       frame_length=sim.sc.frame_bits, transmission_rate=bw)


class TestRankingFromEngineState:
    """The engine ranks from its own state; the FogNode policies are the oracle."""

    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    def test_orders_and_targets_match_fognode_policies(self, policy):
        sim = Simulation(accept_scenario(policy=policy, reservation=True))
        links = {nid: _device_link(sim, sim.nodes[nid]) for nid in sim.device_ids}
        for nid, link in links.items():
            assert sim.nodes[nid].rtt == link_delay(link)
            assert sim.nodes[nid].move_bw == link_bandwidth(link) * sim.nodes[nid].t_bd
        checked = Counter()
        ranking, search, baseline_target = sim._ranking, sim._migration_search, sim._baseline_target
        attempt, moving = sim._attempt_migration, []

        def tracked_attempt(trt):
            moving.append(trt)
            attempt(trt)

        def done_so_far(trt, work):
            """The task as the ``FogNode`` policies take it: its work done so far as ``t_j``."""
            task = dataclasses.replace(trt.task, completed_work=min(trt.progress, trt.task.length))
            assert task.remaining_work == work
            return task

        def snapshots(trt, nodes):
            return [_snapshot(sim, nrt, len(nrt.running) + nrt.pending + 1,
                              nrt.cluster != trt.cluster) for nrt in nodes]

        def checked_ranking(trt):
            rows = ranking(trt)
            snaps = snapshots(trt, sim._devices)
            if policy == "baseline":
                want = baseline_allocate(trt.task, snaps, links=links)
            else:
                want = mc_allocate(trt.task, snaps)
            assert [row[1] for row in rows] == [n.id for n in want]
            assert all(nrt is sim.nodes[nid] for _, nid, nrt in rows)
            checked["fresh"] += 1
            return rows

        def checked_baseline_target(work, current):
            target = baseline_target(work, current)
            trt = moving[-1]
            others = [nrt for nrt in sim._devices if nrt is not current]
            want = baseline_allocate(done_so_far(trt, work), snapshots(trt, others),
                                     links=links)[0]
            assert target.node.id == want.id
            checked["migration"] += 1
            return target

        def checked_search(trt, work, current, others, budget):
            first = search(trt, work, current, others, budget)
            assert trt is moving[-1]
            snaps = [_snapshot(sim, nrt, len(nrt.running) + nrt.pending + 1,
                               nrt.cluster != trt.cluster) for nrt in others]
            decision = handle_deadline_change(
                done_so_far(trt, work), snaps, budget,
                current=_snapshot(sim, current, len(current.running) + current.pending, False),
                migration_times={n.id: migration_time(trt.task, links[n.id]) for n in snaps})
            if first is None:
                assert decision == MigrationDecision(None, (), (), False)
                checked["stay"] += 1
                return first
            # the engine takes the first row unsorted; sort the same rows for the full order
            ordered = migration_order(sim._score_pass(work, trt.task.data_size, trt.cluster,
                                                      others, budget=budget), budget)
            assert first == ordered[0]
            target = first[0] if migration_bound_ok(first, budget) else None
            assert decision.ranked == tuple(row[0] for row in ordered)
            assert (decision.target_id, decision.violation_flagged) == (target, target is None)
            checked["migration"] += 1
            return first

        sim._ranking, sim._migration_search = checked_ranking, checked_search
        sim._baseline_target, sim._attempt_migration = checked_baseline_target, tracked_attempt
        sim.run()
        assert checked["fresh"] == 700 and checked["migration"] > 0
        if policy == "mc":
            assert checked["stay"] > 0

    def test_one_live_completion_per_node_and_one_tick_per_interval(self):
        sim = Simulation(accept_scenario())
        ticks = []
        push = sim._push

        def checked_push(time, kind, key="", payload=()):
            if kind == "done":
                version = sim.nodes[key].version
                assert payload[0] == version
                assert not [e for e in sim._heap
                            if e[2] == "done" and e[3] == key and e[4][0] == version]
            elif kind == "fluct":
                ticks.append(time)
            push(time, kind, key, payload)

        sim._push = checked_push
        trace = sim.run()
        interval = sim.sc.fluctuation_interval
        expected = [interval]
        while len(expected) < len(ticks):
            expected.append(expected[-1] + interval)
        assert ticks == expected
        last = max(r.completion_time for r in trace.records)
        assert ticks[-2] <= last <= ticks[-1]


class TestBaselineTarget:
    """The early-exit pass picks the other device that ``min`` over all rows picks."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(devices=st.lists(st.tuples(st.sampled_from([1000.0, 2000.0, 3000.0, 4000.0]),
                                      st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])),
                            min_size=2, max_size=8),
           work=st.sampled_from([0.0, 1000.0, 3000.0]), current=st.integers(0, 7))
    # equal costs: d0 (E_t 1.0, rtt 0) ties d1 (E_t 0.5, rtt 0.5) and wins on id,
    # so a pass that stops at E_t == best cost misses it
    @example(devices=[(1000.0, 0.0), (2000.0, 0.5), (4000.0, 0.0)], work=1000.0, current=2)
    def test_target_is_the_cheapest_row(self, devices, work, current):
        fleet = [dict(id=f"d{i}", cpu_capacity=capacity) for i, (capacity, _) in enumerate(devices)]
        sim = Simulation(Scenario(explicit_fleet=fleet, app_count=0))
        for nrt, (_, rtt) in zip(sim._devices, devices):
            nrt.rtt = rtt
        sim._min_rtt = min(rtt for _, rtt in devices)  # fixed with the fleet
        here = sim._devices[current % len(devices)]
        _, want = min((execution_seconds(work, nrt.node.cpu_capacity) + nrt.rtt, nrt.node.id)
                      for nrt in sim._devices if nrt is not here)
        assert sim._baseline_target(work, here).node.id == want


class TestDistanceThroughput:
    def test_engine_takes_scoring_distance_throughput(self, tmp_path):
        # 1 - 44/45 is below the 0.05 floor the engine used to apply
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"fleet": [
            {"id": "d0", "cpu_capacity": 4000.0, "distance": 44.0},
            {"id": "s0", "cpu_capacity": 8000.0, "tier": "fog_server", "distance": 5.0}]}))
        sim = Simulation(load_config(str(path)).scenario)
        for nrt in sim.nodes.values():
            assert nrt.t_bd == throughput_by_distance(nrt.node)
        assert sim.nodes["d0"].t_bd == 1.0 - 44.0 / 45.0


class TestClusterAssignment:
    def test_single_cluster(self):
        assert hash_cluster("user0005", 1) == 0

    def test_blocked_waves(self):
        homes = [hash_cluster(f"user{i:04d}", 2, block=8) for i in range(32)]
        assert homes[:8] == [0] * 8
        assert homes[8:16] == [1] * 8

    def test_non_numeric_ids_still_stable(self):
        assert hash_cluster("alpha", 3) == hash_cluster("alpha", 3)


class TestInvariantSweep:
    def test_thousand_generated_runs_conserve_work_and_capacity(self):
        rng = random.Random(99)
        for case in range(1000):
            scenario = Scenario(
                seed=rng.randint(1, 10_000),
                app_count=rng.randint(1, 3),
                tasks_per_app=rng.randint(1, 3),
                clusters=rng.choice((1, 2)),
                devices_per_cluster=rng.randint(1, 3),
                submit_interval=rng.uniform(0.5, 2.0),
                fluctuation_interval=rng.uniform(0.5, 2.0),
                deadline_range=(4.0, 10.0),
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


class TestEventType:
    def test_events_order_by_time_then_sequence(self):
        import heapq
        sim = Simulation(small_scenario())
        sim._heap.clear()
        sim._push(2.0, "b")
        sim._push(1.0, "a")
        sim._push(1.0, "c")
        ordered = [heapq.heappop(sim._heap) for _ in range(3)]
        # equal times pop in the order they were pushed
        assert [(when, kind) for when, _seq, kind, _key, _payload in ordered] == [
            (1.0, "a"), (1.0, "c"), (2.0, "b")]
        assert ordered[0][1] < ordered[1][1]


def storm_scenario(**overrides):
    """A short run shaped like the deadline-storm benchmark: 80% swings, three per task."""
    base = dict(app_count=8, deadline_variation_pct=80.0, deadline_changes_per_task=3,
                utilisation_band=(0.1, 0.5))
    base.update(overrides)
    return Scenario(**base)


class TestCachedFluctuationSteps:
    """The rate each load-path step takes from its cached steps; the window's rate is the oracle."""

    @pytest.mark.parametrize("scenario", [
        accept_scenario(), accept_scenario(history_window=2),
        storm_scenario(), storm_scenario(history_window=2)],
        ids=["accept", "accept-window-2", "storm", "storm-window-2"])
    def test_every_step_matches_the_window_rate(self, scenario, monkeypatch):
        sim = Simulation(scenario)
        extend = engine._LoadPath.extend
        lo, hi = scenario.caf_range
        checked = Counter()

        def checked_extend(path, tick):
            while len(path.available) <= tick:  # one step at a time
                caf_before = path.caf[-1]
                extend(path, len(path.available))
                # the device's last samples: its loads after the latest ticks, none before the first
                start = max(len(path.available) - scenario.history_window, 1)
                history = [available * 100.0 for available in path.available[start:]]
                assert path._steps == [fluctuation_step(prev, cur)
                                       for prev, cur in zip(history, history[1:])]
                if len(history) < 2:
                    assert path.caf[-1] == caf_before
                    continue
                rate = cpu_fluctuation_rate(history)
                assert fold_sum(path._steps) / len(path._steps) == rate
                want = min(max(rate / 100.0, lo), hi) if rate > 0 else caf_before
                assert path.caf[-1] == want
                checked["full" if len(history) == scenario.history_window else "filling"] += 1

        monkeypatch.setattr(engine._LoadPath, "extend", checked_extend)
        sim.run()
        assert checked["full"] > 0
        assert (checked["filling"] > 0) == (scenario.history_window > 2)


class EagerTicks(Simulation):
    """The tick before lazy steps: every device stepped at its turn, nothing caught up on read."""

    def _catch_up(self, nrt):
        pass

    def _on_tick(self):
        self._next_tick = self.now + self.sc.fluctuation_interval
        for nrt in self._devices:
            path = nrt.path
            path.extend(len(path.available))  # one step
            nrt.available, nrt.caf = path.available[-1], path.caf[-1]
            if nrt.running:
                self._recheck(nrt)
        if self.remaining > 0:
            self._push(self._next_tick, "fluct")


# tests/test_golden_outputs.py's collision scenario: scripted loads on exact tick times
COLLISION = Scenario(app_count=24, deadline_variation_pct=80.0, deadline_changes_per_task=3,
                     fluctuation_interval=1.0, reservation_period=1.0,
                     scripted_utilisation=((2.0, "c0d03", 0.05), (8.0, "c1d07", 0.03),
                                           (15.0, "c0d11", 0.9), (23.0, "c1d00", 0.04),
                                           (31.0, "c0d00", 0.05), (40.0, "c1d12", 0.6)))


def _load_paths(sim):
    """Each device's load path in the run to come; held here, as a finished run lets go of it."""
    return {nid: sim.nodes[nid].path for nid in sim.device_ids}


def _steps(paths):
    """Each device's load steps: the load before, the load and score after."""
    return {nid: list(zip(path.available, path.available[1:], path.caf[1:]))
            for nid, path in paths.items()}


class TestLazySteps:
    """Stepping idle devices only when read runs exactly like stepping every device each tick."""

    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    @pytest.mark.parametrize("scenario", [accept_scenario(), storm_scenario(), COLLISION],
                             ids=["accept", "storm", "collision"])
    def test_runs_equal_the_eager_tick(self, scenario, policy):
        scenario = dataclasses.replace(scenario, policy=policy)
        lazy_sim, eager_sim = Simulation(scenario), EagerTicks(scenario)
        lazy_paths, eager_paths = _load_paths(lazy_sim), _load_paths(eager_sim)
        lazy, eager = lazy_sim.run(), eager_sim.run()
        assert lazy.records and lazy.records == eager.records
        assert lazy.ledger == eager.ledger
        # an idle device's load is as of its last read; caught up, it took the eager steps
        for nrt in lazy_sim._devices:
            assert nrt.stepped <= lazy_sim._ticks
            lazy_paths[nrt.node.id].extend(lazy_sim._ticks)
        assert _steps(lazy_paths) == _steps(eager_paths)

    def test_baseline_storm_skips_steps(self):
        sim = Simulation(storm_scenario(policy="baseline"))
        sim.run()
        stepped = sum(nrt.stepped for nrt in sim._devices)
        assert 0 < stepped < sim._ticks * len(sim._devices)


class TestRunWritesNoFogNode:
    """A run keeps each node's live state in its node record and leaves its ``FogNode`` as built."""

    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    @pytest.mark.parametrize("scenario", [accept_scenario(), storm_scenario(), COLLISION],
                             ids=["accept", "storm", "collision"])
    def test_nodes_equal_their_fleet_entries(self, scenario, policy):
        sim = Simulation(dataclasses.replace(scenario, policy=policy))
        built = {nid: copy.deepcopy(nrt.node) for nid, nrt in sim.nodes.items()}
        start = {nid: (nrt.caf, nrt.reservation.reserved_value) for nid, nrt in sim.nodes.items()}
        sim.run()
        assert {nid: nrt.node for nid, nrt in sim.nodes.items()} == built
        # the live state did move, so the nodes stayed put for a reason
        assert any(nrt.caf != start[nid][0] for nid, nrt in sim.nodes.items())
        assert any(nrt.reservation.reserved_value != start[nid][1]
                   for nid, nrt in sim.nodes.items())


class TestRunWritesNoTask:
    """A run keeps each task's work done in its task record and leaves its ``Task`` as generated."""

    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    @pytest.mark.parametrize("scenario", [accept_scenario(), storm_scenario(), COLLISION],
                             ids=["accept", "storm", "collision"])
    def test_tasks_equal_their_workload_entries(self, scenario, policy, monkeypatch):
        scenario = dataclasses.replace(scenario, policy=policy)
        received = received_tasks(monkeypatch)
        sim = Simulation(scenario)
        sim.run()
        fresh = {t.id: t for app in generate_workload(scenario) for t in app.tasks}
        assert received == fresh and received.keys() == sim.tasks.keys()
        # tasks did run and move, so they stayed put for a reason
        assert all(type(trt) is RequestRecord and trt.progress > 0 for trt in sim.tasks.values())
        assert any(trt.migrations for trt in sim.tasks.values())


class TestLiveWindow:
    """A run holds only what is live: changes wait for their app, a finished task's Task goes."""

    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    @pytest.mark.parametrize("scenario", [accept_scenario(), storm_scenario(), COLLISION],
                             ids=["accept", "storm", "collision"])
    def test_deadline_pushes_name_open_tasks(self, scenario, policy):
        sim = Simulation(dataclasses.replace(scenario, policy=policy))
        push = sim._push
        pushed = Counter()

        def checked_push(time, kind, key="", payload=()):
            if kind == "deadline":
                assert key in sim.tasks and time > sim.now, (key, time, sim.now)
                pushed[key] += 1
            push(time, kind, key, payload)

        sim._push = checked_push
        sim.run()
        # every task's changes were pushed, none twice
        assert pushed == {tid: scenario.deadline_changes_per_task for tid in sim.tasks}

    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    @pytest.mark.parametrize("scenario", [accept_scenario(), storm_scenario(), COLLISION],
                             ids=["accept", "storm", "collision"])
    def test_finished_records_hold_no_task(self, scenario, policy):
        sim = Simulation(dataclasses.replace(scenario, policy=policy))
        trace = sim.run()
        assert len(sim.tasks) == len(trace.records) > 0
        by_id = {r.task_id: r for r in trace.records}
        for tid, rec in sim.tasks.items():
            assert rec is by_id[tid], tid  # a finished task is held once
            assert not any(isinstance(getattr(rec, f.name), Task)
                           for f in dataclasses.fields(rec)), tid


def varied_lengths(scenario, lengths=(2000.0, 3000.0, 4500.0)):
    """The scenario's generated workload made explicit, each task's length drawn from ``lengths``."""
    rng = random.Random("varied-lengths")
    workload = [dict(id=app.id, user_id=app.user_id, tasks=[
        dict(id=t.id, length=rng.choice(lengths), data_size=t.data_size, deadline=t.deadline,
             submit_time=t.submit_time) for t in app.tasks]) for app in generate_workload(scenario)]
    return dataclasses.replace(scenario, explicit_workload=workload)


class TestFreshIndex:
    """The kept multi-criteria order equals the fresh-request order scored from scratch."""

    @pytest.mark.parametrize("scenario", [
        accept_scenario(), accept_scenario(reservation=False), storm_scenario(), COLLISION,
        # scripts and rotations between ticks: inputs that change with no tick step first
        dataclasses.replace(COLLISION, reservation_period=1.5, scripted_utilisation=tuple(
            (when + 0.5, nid, load) for when, nid, load in COLLISION.scripted_utilisation)),
        # the remaining work changes between a cluster's placements
        varied_lengths(storm_scenario())],
        ids=["accept", "accept-res-off", "storm", "collision", "collision-off-tick",
             "storm-varied-lengths"])
    def test_every_placement_sees_the_full_ranking(self, scenario):
        sim = Simulation(scenario)
        ranking = sim._ranking
        checked = Counter()

        def checked_ranking(trt):
            kept = sim._indexes.get(trt.cluster)
            checked["kept" if kept and kept[0] == trt.task.length else "afresh"] += 1
            rows = ranking(trt)
            want = rank(sim._score_pass(trt.task.length, trt.task.data_size, trt.cluster,
                                        sim._devices))
            assert [(c_t, nid) for c_t, nid, _ in rows] == [(c_t, nid) for c_t, nid, _ in want]
            assert all(nrt is sim.nodes[nid] for _, nid, nrt in rows)
            assert len(sim._indexes) <= len(sim._home_clusters)  # one kept order per cluster
            return rows

        sim._ranking = checked_ranking
        trace = sim.run()
        assert checked["kept"] + checked["afresh"] == len(trace.records)
        assert checked["kept"] > 0 and checked["afresh"] > 0


class TestBaselineMemo:
    """The baseline's kept order equals its fresh-request order ranked from scratch."""

    def test_every_placement_sees_the_full_ranking_from_one_order(self):
        sim = Simulation(varied_lengths(storm_scenario(policy="baseline")))
        ranking = sim._ranking
        checked = Counter()

        def checked_ranking(trt):
            work = trt.task.length
            kept = sim._baseline_order
            checked["kept" if kept and kept[0] == work else "afresh"] += 1
            rows = ranking(trt)
            want = rank([(execution_seconds(work, nrt.node.cpu_capacity) + nrt.rtt,
                          nrt.node.id, nrt) for nrt in sim._devices])
            assert [(cost, nid) for cost, nid, _ in rows] == [(cost, nid) for cost, nid, _ in want]
            assert all(nrt is sim.nodes[nid] for _, nid, nrt in rows)
            assert sim._baseline_order == (work, rows)  # the one order held, for this work
            return rows

        sim._ranking = checked_ranking
        trace = sim.run()
        assert checked["kept"] + checked["afresh"] == len(trace.records)
        assert checked["kept"] > 0 and checked["afresh"] > 0


class TestKeptOrdersAreCaches:
    """Dropping the kept fresh orders at every app event changes no record and no ledger."""

    @pytest.mark.parametrize("reservation", [True, False], ids=["res-on", "res-off"])
    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    def test_cleared_orders_give_the_same_run(self, policy, reservation):
        scenario = storm_scenario(seed=7, app_count=60, policy=policy, reservation=reservation)
        sim = Simulation(scenario)
        on_app = sim._on_app
        cleared = []

        def clearing_on_app(app, changes, clouds):
            cleared.append(bool(sim._indexes or sim._baseline_order))
            sim._indexes.clear()
            sim._baseline_order = None
            on_app(app, changes, clouds)

        sim._on_app = clearing_on_app
        trace = sim.run()
        assert any(cleared)  # some app event found a kept order to drop
        want = run(scenario)
        assert trace.records == want.records
        assert trace.ledger == want.ledger


class TestFreshKeyReservedValue:
    """A kept mc row is rescored for a reservation change only where the ranking reads it."""

    @pytest.mark.parametrize("reservation", [True, False], ids=["res-on", "res-off"])
    def test_refresh_rescores_only_a_hidden_reservation(self, reservation):
        sim = Simulation(small_scenario(reservation=reservation))
        task = Task(id="t", app_id="a", length=3000.0, data_size=8000.0, deadline=10.0)
        trt = _TaskRt(task=task, cluster=0, deadline_abs=10.0, cloud_bound=False)
        sim._ranking(trt)  # keeps cluster 0's rows for this work
        score_pass = sim._score_pass
        rescored = []

        def counted_score_pass(work, data, cluster, nodes, *args):
            rescored.extend(nrt.node.id for nrt in nodes)
            return score_pass(work, data, cluster, nodes, *args)

        sim._score_pass = counted_score_pass
        own = next(nrt for nrt in sim._devices if nrt.cluster == 0)
        peer = next(nrt for nrt in sim._devices if nrt.cluster == 1)
        for nrt in (own, peer):
            nrt.reservation.reserved_value = 0.3 * nrt.node.cpu_capacity
            rows = sim._ranking(trt)
            want = rank(score_pass(task.length, task.data_size, 0, sim._devices))
            assert [(c_t, nid) for c_t, nid, _ in rows] == [(c_t, nid) for c_t, nid, _ in want]
        # only a peer's reservation, and only with reservation on, enters a row of cluster 0
        assert rescored == ([peer.node.id] if reservation else [])


# The sweep axes' sharing check runs small scenarios; the apps axis fixes 70-560 apps,
# so there each app has one task, with arrivals dense enough to load the devices.
AXIS_BASE = {"apps": dict(tasks_per_app=1, submit_interval=0.5, deadline_variation_pct=40.0)}
SHARED_VARIANTS = (("mc", True), ("baseline", True), ("mc", False), ("baseline", False))


class TestSharedDraws:
    """A run on a ``Draws`` shared with other runs equals a run that draws its own."""

    @pytest.mark.parametrize("axis", ["apps", "deadline_variation", "free_resource", "battery",
                                      "fluctuation"])
    def test_every_axis_cell_equals_a_private_run(self, axis):
        from fogsim.experiments import axis_cells

        for seed in (1, 2):
            draws = engine.Draws()  # one per seed, as a sweep's seed job
            base = AXIS_BASE.get(axis, dict(app_count=12, deadline_variation_pct=40.0))
            scenarios = [small_scenario(seed=seed, **{**base, **overrides})
                         for _, overrides in axis_cells(axis)]
            scenarios.sort(key=lambda sc: -sc.app_count)  # the sweep's order
            for sc in scenarios:
                for policy, reservation in SHARED_VARIANTS:
                    sc = dataclasses.replace(sc, policy=policy, reservation=reservation)
                    shared, private = Simulation(sc, draws).run(), Simulation(sc).run()
                    assert shared.records and shared.records == private.records, sc
                    assert shared.ledger == private.ledger, sc

    def test_scripted_runs_equal_private_runs(self):
        draws = engine.Draws()
        for policy, reservation in SHARED_VARIANTS:
            sc = dataclasses.replace(COLLISION, policy=policy, reservation=reservation)
            shared, private = Simulation(sc, draws).run(), Simulation(sc).run()
            assert shared.records and shared.records == private.records, sc
            assert shared.ledger == private.ledger, sc

    def test_a_larger_workload_after_a_smaller_one(self, monkeypatch):
        drawn = []

        def counted(scenario):
            drawn.append(scenario.app_count)
            return generate_workload(scenario)

        monkeypatch.setattr("fogsim.engine.generate_workload", counted)
        draws = engine.Draws()
        shared_draws = []
        for app_count in (4, 9, 6):
            sc = small_scenario(app_count=app_count)
            before = len(drawn)
            shared = Simulation(sc, draws).run()
            shared_draws.append(drawn[before:])
            private = Simulation(sc).run()
            assert len(shared.records) == 10 * app_count
            assert shared.records == private.records and shared.ledger == private.ledger
        # the shared draws grow for the larger workload and serve the smaller one a prefix
        assert shared_draws == [[4], [9], []]

    def test_a_finished_run_lets_go_of_its_draws(self):
        sim = Simulation(small_scenario(), engine.Draws())
        sim.run()
        assert sim._draws is None and all(nrt.path is None for nrt in sim._devices)


class TestMovableTasks:
    """Tick rechecks try only the tasks a migration attempt could still move, by task id."""

    def test_limit_and_passed_deadline_are_left_out(self):
        sim = Simulation(small_scenario(max_migrations_per_task=1))
        sim.now = 5.0
        nrt = sim._devices[0]
        task = dict(app_id="a", length=100.0, data_size=0.0, deadline=1.0)
        for tid, deadline_abs, migrations in [("t3", 9.0, 0), ("t1", 9.0, 0), ("t2", 9.0, 1),
                                              ("t0", 5.0, 0), ("t4", 4.0, 0)]:
            nrt.running[tid] = _TaskRt(task=Task(id=tid, **task), cluster=0,
                                       deadline_abs=deadline_abs, cloud_bound=False,
                                       migrations=migrations)
        assert [trt.task.id for trt in sim._movable(nrt)] == ["t1", "t3"]


class TestMinAvailable:
    """A device whose load may reach all of its capacity is refused before the run."""

    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_non_positive_floor_is_refused(self, value):
        with pytest.raises(ValueError, match="min_available"):
            run(Scenario(app_count=4, min_available=value, utilisation_band=(0.5, 0.9),
                         initial_utilisation=(0.6, 0.9)))


class TestNoFogDevice:
    """A fleet with no fog device to place tasks on is refused before the run."""

    @pytest.mark.parametrize("fleet", [
        None, [{"id": "s0", "cpu_capacity": 8000.0, "tier": "fog_server"}]])
    def test_refused_at_construction(self, fleet):
        with pytest.raises(ValueError, match="^the fleet has no fog device"):
            Simulation(Scenario(app_count=2, devices_per_cluster=0, explicit_fleet=fleet))


class TestStalledPeriod:
    """A period too small to move the clock is refused before a run that could never end."""

    @pytest.mark.parametrize("field", ["fluctuation_interval", "reservation_period"])
    @pytest.mark.parametrize("period", [1e-300, math.ulp(1e6) / 2])
    def test_refused_at_construction(self, field, period):
        with pytest.raises(ValueError, match=f"^{field}: .* too small to move the clock"):
            Simulation(small_scenario(max_sim_time=1e6, **{field: period}))

    @pytest.mark.parametrize("field", ["fluctuation_interval", "reservation_period"])
    def test_one_ulp_is_accepted(self, field):
        Simulation(small_scenario(max_sim_time=1e6, **{field: math.ulp(1e6)}))


class TestPerTaskLayout:
    """Per-task objects are slotted, a run lets go of each app, and records sort by time, id."""

    def test_per_task_objects_have_no_instance_dict(self, monkeypatch):
        received = received_tasks(monkeypatch)
        sim = Simulation(small_scenario())
        trace = sim.run()
        for name, objs in [("Task", list(received.values())), ("RequestRecord", trace.records),
                           ("sim.tasks", list(sim.tasks.values()))]:
            assert objs and not any(hasattr(obj, "__dict__") for obj in objs), name
        assert sim._heap == []  # each app left the heap with its event

    def test_task_record_holds_only_values_and_its_task(self):
        """So a shallow copy of a task's record shares nothing it could write.

        A running record also holds its ``Task`` (see the next tests); a
        finished one holds only values.
        """
        sim = Simulation(small_scenario(deadline_variation_pct=40.0))
        sim.run()
        for trt in sim.tasks.values():
            for f in dataclasses.fields(trt):
                value = getattr(trt, f.name)
                assert isinstance(value, (bool, int, float, str, type(None))), f.name

    def test_a_run_leaves_only_finished_records(self):
        """Each entry is its task's ``RequestRecord``, the very object in the trace."""
        sim = Simulation(small_scenario(deadline_variation_pct=40.0))
        trace = sim.run()
        assert len(sim.tasks) == len(trace.records) == 60
        for rec in trace.records:
            assert sim.tasks[rec.task_id] is rec
        assert "progress" in RequestRecord.__slots__
        assert not hasattr(engine, "_TaskDone") and not hasattr(_TaskRt, "done")

    def test_finish_lets_go_of_the_running_record(self):
        """At completion the finished record takes the running one's place; nothing keeps that."""
        sim = Simulation(small_scenario(deadline_variation_pct=40.0))
        finish = sim._finish
        finished = []

        def checked_finish(trt):
            node, tid = sim.nodes[trt.node_id], trt.task.id
            assert type(trt) is _TaskRt and sim.tasks[tid] is trt and node.running[tid] is trt
            for f in dataclasses.fields(trt):  # the running record, too, holds only values
                value = getattr(trt, f.name)
                assert (value is trt.task if f.name == "task"
                        else isinstance(value, (bool, int, float, str, type(None)))), f.name
            finish(trt)
            done = sim.tasks[tid]
            assert done is sim.trace.records[-1] and done.task_id == tid
            assert ((done.progress, done.migrations, done.cloud_legs_time > 0)
                    == (trt.progress, trt.migrations, trt.cloud_bound))
            assert all(rec is not trt for rec in sim.tasks.values())
            assert all(rec is not trt for nrt in sim.nodes.values() for rec in nrt.running.values())
            finished.append(tid)

        sim._finish = checked_finish
        sim.run()
        assert sorted(finished) == sorted(sim.tasks)

    def test_ledger_tallies_usage_without_an_entry_per_message(self, monkeypatch):
        received = received_tasks(monkeypatch)
        ledger = Simulation(accept_scenario()).run().ledger
        assert len(received) == 700
        for counts in (ledger.device_processing_kb, ledger.server_messages_kb):
            assert counts.keys() == {MESSAGE_KB}
        sizes = {task.data_size for task in received.values()}
        assert len(sizes) > 1 and len(ledger.device_messages_kb) <= len(sizes)
        for minutes in (ledger.cloud_connect_minutes, ledger.server_connect_minutes,
                        ledger.device_connect_minutes):
            assert type(minutes) is float

    def test_tied_completions_come_out_by_task_id(self, monkeypatch):
        device = dict(tier="fog_device", cluster=0, cpu_capacity=4000.0, native_utilisation=0.3,
                      battery_charge=80.0, discharge_rates=[0.2], distance=10.0, caf_score=1.0)
        task = dict(length=3000.0, data_size=40960.0, deadline=8.0, submit_time=1.0)
        scenario = Scenario(
            clusters=1, utilisation_band=(0.0, 0.0), cloud_fraction=0.0,
            deadline_changes_per_task=0,
            explicit_fleet=[dict(device, id="d0"), dict(device, id="d1")],
            # t1 is listed first, and s0 sorts first by id but finishes last
            explicit_workload=[
                {"id": "a0", "user_id": "u0", "tasks": [dict(task, id="t1"), dict(task, id="t0")]},
                {"id": "a1", "user_id": "u1", "tasks": [dict(task, id="s0", submit_time=5.0)]}])
        accounted = []

        def spy(trace, sc, done, *args):
            accounted.append(done.id)
            return account(trace, sc, done, *args)

        monkeypatch.setattr("fogsim.engine.account", spy)
        records = Simulation(scenario).run().records
        assert accounted == ["t1", "t0", "s0"]  # so the order below is the sort's
        assert [r.task_id for r in records] == ["t0", "t1", "s0"]
        assert records[0].completion_time == records[1].completion_time
        assert records[1].completion_time < records[2].completion_time

    def test_live_set_per_task_stays_within_budget(self):
        """What a finished run holds per task, as tracemalloc counts it after ``gc.collect()``.

        A generated 200-app run (2,000 tasks) reads 0.574-0.623 KB per task on
        CPython 3.10-3.13 (0.584 on 3.11.7), so the budget leaves 12-22% headroom;
        a finished entry that kept its ``Task`` again would add about 0.14 KB.
        """
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim = Simulation(Scenario(app_count=200))
            trace = sim.run()
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(sim.tasks) == len(trace.records) == 2000
        kb_per_task = live / len(trace.records) / 1024
        assert kb_per_task <= 0.70, kb_per_task


class TestOwnClusterCount:
    @pytest.mark.parametrize("scenario", [accept_scenario(), storm_scenario(),
                                          storm_scenario(policy="baseline")],
                             ids=["accept", "storm", "storm-baseline"])
    def test_stored_count_equals_the_recount(self, scenario):
        sim = Simulation(scenario)
        replan = sim._replan
        checked = Counter()

        def checked_replan(nrt):
            own = sum(1 for trt in nrt.running.values() if trt.cluster == nrt.cluster)
            assert nrt.n_own == own
            checked["own" if own else "none"] += 1
            checked["peer"] += own < len(nrt.running)
            replan(nrt)

        sim._replan = checked_replan
        sim.run()
        assert checked["own"] > 0 and checked["none"] > 0 and checked["peer"] > 0


class TestCompletionEvents:
    """A replan that pushes no ``done`` event leaves the completion to the pending tick."""

    def test_no_completion_is_lost(self, monkeypatch):
        # a lost completion ends at the guard rather than ticking on to 1e6 s
        sim = Simulation(accept_scenario(max_sim_time=1000.0))
        plans = {}  # node id -> (version, earliest finish) after its latest replan
        skipped = {}  # node id -> earliest finish its latest replan pushed no event for
        live = Counter()  # (node id, version) of each pending done event
        ticks = Counter()  # times of the pending ticks
        counts = Counter()
        push, replan = sim._push, sim._replan

        def checked_push(time, kind, key="", payload=()):
            if kind == "done":
                live[key, payload[0]] += 1
                counts["done"] += 1
            elif kind == "fluct":
                ticks[time] += 1
            push(time, kind, key, payload)

        def checked_replan(nrt):
            nid = nrt.node.id
            if nid in skipped:
                assert sim.now <= skipped.pop(nid), (sim.now, nid)
            pushed = counts["done"]
            replan(nrt)
            if not nrt.running:
                return
            first = min(sim.now if t.task.length - t.progress <= 1e-9
                        else sim.now + (t.task.length - t.progress) / t.rate
                        for t in nrt.running.values())
            plans[nid] = (nrt.version, first)
            if counts["done"] == pushed:
                skipped[nid] = first
                counts["skipped"] += 1

        def check_busy_nodes():
            tick = min(ticks, default=math.inf)
            for nid in sim.device_ids:
                nrt = sim.nodes[nid]
                if not nrt.running:
                    continue
                version, first = plans[nid]
                assert version == nrt.version, nid  # every change of tasks replanned
                assert live[nid, version] == 1 or (live[nid, version] == 0 and tick <= first), (
                    sim.now, nid)
                counts["busy"] += 1

        def checked_pop(heap):
            check_busy_nodes()
            event = heapq.heappop(heap)
            when, _seq, kind, key, payload = event
            if kind == "done":
                live[key, payload[0]] -= 1
            elif kind == "fluct":
                ticks[when] -= 1
                if not ticks[when]:
                    del ticks[when]
            return event

        class CheckedHeapq:
            heappush = staticmethod(heapq.heappush)
            heappop = staticmethod(checked_pop)

        sim._push, sim._replan = checked_push, checked_replan
        monkeypatch.setattr("fogsim.engine.heapq", CheckedHeapq)
        trace = sim.run()
        assert len(trace.records) == 700
        assert not skipped
        assert counts["skipped"] > 0 and counts["busy"] > 0


def _floats(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


CANDIDATE = st.fixed_dictionaries(dict(
    capacity=_floats(1.0, 1e5), available=_floats(1e-4, 1.0), running=st.integers(0, 30),
    pending=st.integers(0, 30), caf=_floats(0.01, 10.0), t_bd=_floats(1e-3, 1.0),
    cluster=st.sampled_from([0, 1]), reserved=_floats(0.0, 1.0),
    charge=_floats(0.0, 100.0), drain=_floats(1e-3, 100.0)))


class TestScorePass:
    """Every row the one-pass scoring yields equals the ``scoring`` formulas on the same numbers."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(candidates=st.lists(CANDIDATE, min_size=1, max_size=6), reservation=st.booleans(),
           requester=st.sampled_from([0, 1]), extra=st.sampled_from([0, 1]),
           length=_floats(1.0, 1e5), done=_floats(0.0, 0.99), data_size=_floats(0.0, 1e7),
           cut=st.integers(0, 6))
    def test_rows_equal_the_scoring_formulas(self, candidates, reservation, requester, extra,
                                             length, done, data_size, cut):
        fleet = [dict(id=f"d{i}", cpu_capacity=c["capacity"], native_utilisation=0.0,
                      battery_charge=c["charge"], discharge_rates=[c["drain"]],
                      cluster=c["cluster"]) for i, c in enumerate(candidates)]
        sim = Simulation(Scenario(explicit_fleet=fleet, reservation=reservation, app_count=0))
        nodes = [sim.nodes[spec["id"]] for spec in fleet]
        for nrt, c in zip(nodes, candidates):
            nrt.available, nrt.pending, nrt.t_bd = c["available"], c["pending"], c["t_bd"]
            nrt.running = {f"r{k}": None for k in range(c["running"])}
            nrt.caf = c["caf"]
            nrt.reservation.reserved_value = c["reserved"] * c["capacity"]
        task = Task(id="t", app_id="a", length=length, data_size=data_size, deadline=10.0,
                    completed_work=length * done)
        work = task.remaining_work
        fresh = sim._score_pass(work, task.data_size, requester, nodes, extra)
        # a budget at one row's C_t, or above them all: rows below it meet it, that row does not
        c_ts = sorted(row[0] for row in fresh)
        budget = c_ts[cut] if cut < len(c_ts) else math.inf
        moving = sim._score_pass(work, task.data_size, requester, nodes, extra, budget=budget)
        assert len(fresh) == len(moving) == len(nodes)
        for nrt, (c_fresh, fresh_id, fresh_nrt), (node_id, c_t, a_s, m_t) in zip(nodes, fresh,
                                                                                 moving):
            node = nrt.node
            shares = max(len(nrt.running) + nrt.pending + extra, 1)
            avail = nrt.available
            if reservation and nrt.cluster != requester:
                avail = max(avail - nrt.reservation.reserved_value / node.cpu_capacity, 0.0)
            free = max(min(avail / shares, 1.0), 1e-6)
            want = completion_time(execution_time(task, node), free, nrt.caf, nrt.t_bd)
            assert fresh_id == node_id == node.id and fresh_nrt is nrt
            assert c_fresh == c_t == want
            if want < budget:  # A_s only where the deadline can be met
                a_v = battery_minutes(node.battery_charge, [nrt.base_drain] * shares)
                assert a_s == availability_score(a_v, want)
                assert nrt.minutes[shares] == a_v
            else:
                assert a_s is None
            assert m_t == task.data_size / nrt.move_bw

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(charge=_floats(0.0, 100.0), drain=_floats(1e-3, 100.0))
    def test_battery_memo_equals_battery_minutes(self, charge, drain):
        fleet = [dict(id="d0", cpu_capacity=1000.0, battery_charge=charge,
                      discharge_rates=[drain])]
        nrt = Simulation(Scenario(explicit_fleet=fleet, app_count=0)).nodes["d0"]
        for shares in range(1, 65):
            want = battery_minutes(charge, [drain] * shares)
            assert _minutes(nrt, shares) == want  # computed
            assert _minutes(nrt, shares) == want  # from the memo
        assert sorted(nrt.minutes) == list(range(1, 65))


class TestDeadlineCrossingReopen:
    """A slowdown reopens the migration search only of tasks it makes late."""

    def test_only_tasks_pushed_past_their_deadline_reopen(self):
        # one 1000-MIPS device, fully available, running three equal tasks
        scenario = Scenario(
            explicit_fleet=[dict(id="d0", cpu_capacity=1000.0, native_utilisation=0.0,
                                 distance=0.0, caf_score=1.0)],
            app_count=0, scripted_utilisation=((0.5, "d0", 0.5),))
        sim = Simulation(scenario)
        # each finishes at 3.0 s at a third of the device, at 5.5 s once it halves at 0.5 s
        deadlines = {"crosses": 4.0, "on-time": 10.0, "already-late": 2.0}
        for tid, deadline in deadlines.items():
            task = Task(id=tid, app_id="a", length=1000.0, data_size=0.0, deadline=deadline)
            trt = sim.tasks[tid] = _TaskRt(task=task, cluster=0, deadline_abs=deadline,
                                           cloud_bound=False)
            sim._on_arrive(trt, "d0")
        for trt in sim.tasks.values():
            assert trt.rate == pytest.approx(1000.0 / 3)
            trt.no_target = True  # their last search found nowhere better
        after_drop = {}
        replan = sim._replan

        def recording_replan(nrt):
            replan(nrt)  # read before the handler's own migration attempts
            after_drop.update((tid, trt.no_target) for tid, trt in nrt.running.items())

        sim._replan = recording_replan
        when, node_id, available = scenario.scripted_utilisation[0]
        sim.now = when
        sim._on_script(node_id, available)
        for trt in sim.tasks.values():
            assert sim.now + (trt.task.length - trt.progress) / trt.rate == pytest.approx(5.5)
        assert after_drop == {"crosses": False, "on-time": True, "already-late": True}


class TestCapacityCheckedAtRegistration:
    @pytest.mark.parametrize("capacity", [0.0, -1.0])
    def test_python_built_fleet_names_the_node(self, capacity):
        # built in Python, so no config check ran on the fleet
        fleet = [dict(id="d0", cpu_capacity=4000.0), dict(id="d1", cpu_capacity=capacity)]
        with pytest.raises(InvalidNodeError, match="node d1 has non-positive capacity"):
            Simulation(Scenario(explicit_fleet=fleet, app_count=2)).run()


FLEET_SCENARIOS = {
    "default": Scenario(),
    "acceptance": accept_scenario(),
    "no-servers": Scenario(servers_per_cluster=0),
    "one-cluster": Scenario(clusters=1),
}


class TestFleetSpecs:
    """The generated fleet is the fleet ``fleet_specs`` lists, entry for entry."""

    @pytest.mark.parametrize("name", FLEET_SCENARIOS)
    def test_nodes_follow_the_specs(self, name):
        sc = FLEET_SCENARIOS[name]
        assert list(Simulation(sc).nodes) == [spec["id"] for spec in fleet_specs(sc)]

    @pytest.mark.parametrize("name", FLEET_SCENARIOS)
    def test_explicit_specs_run_like_the_generated_fleet(self, name):
        sc = FLEET_SCENARIOS[name]
        generated = run(sc)
        explicit = run(dataclasses.replace(sc, explicit_fleet=fleet_specs(sc)))
        assert generated.records and explicit.records == generated.records
        assert explicit.ledger == generated.ledger

    @pytest.mark.parametrize("name", FLEET_SCENARIOS)
    def test_generated_entries_pass_the_config_fleet_checks(self, name):
        sc = FLEET_SCENARIOS[name]
        specs = fleet_specs(sc)
        _check_fleet(dataclasses.replace(sc, explicit_fleet=specs))  # raises ConfigError
        assert fleet_specs(dataclasses.replace(sc, explicit_fleet=specs)) is specs
