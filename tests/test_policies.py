import random

import pytest

from fogsim.fixtures import fd_table_nodes, fd_table_task, migration_times_from
from fogsim.model import FogNode, ReservationState, Task, Tier
from fogsim.policies import (
    baseline_allocate,
    handle_deadline_change,
    mc_allocate,
    reserve,
)
from fogsim.scoring import execution_time, score_device


def nodes_by_id():
    return {n.id: n for n in fd_table_nodes()}


def random_fleet(rng, count):
    fleet = []
    for i in range(count):
        free = rng.uniform(0.1, 0.9)
        fleet.append(FogNode(
            id=f"r{i:02d}",
            tier=Tier.FOG_DEVICE,
            cpu_capacity=rng.uniform(500, 6000),
            free_resource_fraction=free,
            native_utilisation=1.0 - free,
            battery_charge=rng.uniform(20, 90),
            discharge_rates=[rng.uniform(0.1, 1.0)],
            distance=rng.uniform(0, 39),
            max_supported_distance=40.0,
            caf_score=rng.uniform(0.5, 1.3),
        ))
    return fleet


class TestMcAllocateFresh:
    def test_reference_head_is_fd4(self):
        ranked = mc_allocate(fd_table_task(), fd_table_nodes())
        assert [n.id for n in ranked][0] == "FD4"

    def test_reference_full_order(self):
        ranked = mc_allocate(fd_table_task(), fd_table_nodes())
        assert [n.id for n in ranked] == ["FD4", "FD5", "FD1", "FD2", "FD3"]

    def test_singleton(self):
        only = fd_table_nodes()[:1]
        assert mc_allocate(fd_table_task(), only) == only

    def test_empty_returns_none(self):
        assert mc_allocate(fd_table_task(), []) is None

    def test_output_is_permutation_sorted_by_completion(self):
        rng = random.Random(7)
        for trial in range(100):
            fleet = random_fleet(rng, rng.randint(1, 10))
            task = Task(id="t", app_id="a", length=rng.uniform(100, 5000),
                        data_size=40960, deadline=5.0)
            ranked = mc_allocate(task, fleet)
            assert sorted(n.id for n in ranked) == sorted(n.id for n in fleet)
            times = [score_device(task, n).completion_time for n in ranked]
            assert times == sorted(times)

    def test_deterministic(self):
        task = fd_table_task()
        first = [n.id for n in mc_allocate(task, fd_table_nodes())]
        second = [n.id for n in mc_allocate(task, fd_table_nodes())]
        assert first == second


class TestReserve:
    def test_required_reservation_formula(self):
        node = fd_table_nodes()[0]
        node.reservation = ReservationState(reserved_value=100.0, last_app_request=50.0,
                                            total_apps_processed=3)
        util = {node.id: node.native_utilisation}
        assert reserve([node], util) is True
        assert node.reservation.required_reservation == pytest.approx(50.0)
        assert util[node.id] == pytest.approx(node.native_utilisation + 50.0 / node.cpu_capacity)

    def test_no_history_reserves_nothing(self):
        node = fd_table_nodes()[0]
        util = {node.id: 0.4}
        reserve([node], util)
        assert node.reservation.reserved_value == 0.0
        assert util[node.id] == pytest.approx(0.4)

    def test_empty_device_list_fails(self):
        assert reserve([], {}) is False


class TestHandleDeadlineChange:
    def congested_fd4(self, nodes):
        nodes["FD4"].free_resource_fraction = 0.01
        return nodes["FD4"]

    def test_reference_migration_picks_fd1(self):
        nodes = nodes_by_id()
        current = self.congested_fd4(nodes)
        candidates = [nodes[i] for i in ("FD1", "FD2", "FD5")]
        decision = handle_deadline_change(
            fd_table_task(), candidates, 5.0, current=current,
            migration_times=migration_times_from("FD4"))
        assert decision.target_id == "FD1"
        assert decision.feasible == ("FD1", "FD5")  # FD2 misses the deadline at 5.21
        assert not decision.violation_flagged

    def test_current_node_still_fits_means_no_move(self):
        nodes = nodes_by_id()
        decision = handle_deadline_change(
            fd_table_task(), [nodes["FD1"], nodes["FD5"]], 5.0, current=nodes["FD4"],
            migration_times=migration_times_from("FD4"))
        assert decision.target_id is None
        assert not decision.violation_flagged

    def test_impossible_deadline_flags_violation(self):
        nodes = nodes_by_id()
        current = self.congested_fd4(nodes)
        candidates = [nodes[i] for i in ("FD1", "FD2", "FD3", "FD5")]
        decision = handle_deadline_change(
            fd_table_task(), candidates, 1.0, current=current,
            migration_times=migration_times_from("FD4"))
        assert decision.target_id is None
        assert decision.violation_flagged

    def test_never_selects_outside_migration_bound(self):
        rng = random.Random(11)
        for trial in range(200):
            fleet = random_fleet(rng, rng.randint(2, 8))
            task = Task(id="t", app_id="a", length=rng.uniform(100, 4000),
                        data_size=40960, deadline=rng.uniform(1, 20))
            deadline = rng.uniform(0.5, 15.0)
            times = {n.id: rng.uniform(0.1, 4.0) for n in fleet}
            decision = handle_deadline_change(task, fleet, deadline,
                                              migration_times=times)
            if decision.target_id is not None:
                card = score_device(task, next(n for n in fleet if n.id == decision.target_id))
                assert card.completion_time < deadline + times[decision.target_id]

class TestMcAllocateMigration:
    """The multi-criteria policy's migration ranking, via handle_deadline_change."""

    def test_migration_order_prefers_feasible_high_availability(self):
        nodes = nodes_by_id()
        candidates = [nodes[i] for i in ("FD1", "FD2", "FD5")]
        decision = handle_deadline_change(
            fd_table_task(), candidates, 5.0,
            migration_times=migration_times_from("FD4"))
        assert decision.ranked[0] == "FD1"

    def test_migration_applies_reservation(self):
        nodes = nodes_by_id()
        fd1 = nodes["FD1"]
        fd1.reservation = ReservationState(reserved_value=10.0, last_app_request=10.0,
                                           total_apps_processed=2)
        util = {n.id: n.native_utilisation for n in nodes.values()}
        handle_deadline_change(
            fd_table_task(), list(nodes.values()), 5.0, current_util=util,
            migration_times=migration_times_from("FD4"))
        assert fd1.reservation.required_reservation == pytest.approx(10.0)
        assert util["FD1"] > fd1.native_utilisation


class TestBaseline:
    def test_reference_head_is_min_execution_time(self):
        task = fd_table_task()
        fleet = fd_table_nodes()
        ranked = baseline_allocate(task, fleet)
        brute = sorted(fleet, key=lambda n: (execution_time(task, n), n.id))
        assert [n.id for n in ranked] == [n.id for n in brute]

    def test_singleton(self):
        only = fd_table_nodes()[:1]
        assert baseline_allocate(fd_table_task(), only) == only

    def test_ties_break_by_node_id(self):
        a = FogNode(id="a", cpu_capacity=1000.0)
        b = FogNode(id="b", cpu_capacity=1000.0)
        task = Task(id="t", app_id="x", length=500, data_size=1, deadline=1)
        assert [n.id for n in baseline_allocate(task, [b, a])] == ["a", "b"]

    def test_oracle_on_random_instances(self):
        rng = random.Random(23)
        for trial in range(100):
            fleet = random_fleet(rng, rng.randint(1, 10))
            task = Task(id="t", app_id="a", length=rng.uniform(100, 5000),
                        data_size=40960, deadline=5.0)
            ranked = baseline_allocate(task, fleet)
            brute = sorted(fleet, key=lambda n: (task.length / n.cpu_capacity, n.id))
            assert [n.id for n in ranked] == [n.id for n in brute]
