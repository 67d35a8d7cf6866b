import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.fixtures import EXPECTED, PRINTED_CAPACITIES, fd_table_nodes, fd_table_task
from fogsim.model import FogNode, NetworkLink, Task, Tier
from fogsim.scoring import (
    MAINS_AVAILABILITY_MINUTES,
    InsufficientHistoryError,
    InvalidNodeError,
    UndefinedAvailabilityError,
    availability,
    availability_score,
    completion_time,
    cpu_fluctuation_rate,
    execution_time,
    migration_time,
    response_time,
    score_device,
    throughput_by_distance,
)


def task_of(length=1000.0, done=0.0, data=40960.0):
    return Task(id="t", app_id="a", length=length, data_size=data,
                deadline=5.0, completed_work=done)


def node_of(**kw):
    base = dict(id="n", tier=Tier.FOG_DEVICE, cpu_capacity=1000.0,
                free_resource_fraction=0.5, battery_charge=60.0,
                discharge_rates=[1.0], distance=4.0,
                max_supported_distance=40.0, caf_score=0.5)
    base.update(kw)
    return FogNode(**base)


class TestExecutionTime:
    def test_equal_speed(self):
        assert execution_time(task_of(1000), node_of(cpu_capacity=1000)) == 1.0

    def test_slow_device(self):
        assert execution_time(task_of(1000), node_of(cpu_capacity=100)) == 10.0

    def test_fast_device(self):
        assert execution_time(task_of(3000), node_of(cpu_capacity=6000)) == 0.5

    def test_uses_remaining_work(self):
        assert execution_time(task_of(1000, done=400), node_of(cpu_capacity=600)) == 1.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(InvalidNodeError):
            execution_time(task_of(), node_of(cpu_capacity=0.0))


class TestMigrationTime:
    def test_data_over_effective_bandwidth(self):
        link = NetworkLink(endpoint_bandwidths=(100000, 100000))
        assert migration_time(task_of(data=40960), link, throughput=0.8) == pytest.approx(0.512)

    def test_unit_case(self):
        link = NetworkLink(endpoint_bandwidths=(1e5, 1e5))
        assert migration_time(task_of(data=1e5), link, throughput=1.0) == 1.0

    def test_zero_data(self):
        link = NetworkLink(endpoint_bandwidths=(1e5, 1e5))
        assert migration_time(task_of(data=0.0), link) == 0.0


class TestResponseTime:
    def test_sum(self):
        assert response_time(0.5, 1.0, 0.01) == pytest.approx(1.51)

    def test_zero(self):
        assert response_time(0, 0, 0) == 0.0

    def test_single_component(self):
        assert response_time(0, 2.5, 0) == 2.5


class TestAvailability:
    def test_three_apps_draining(self):
        node = node_of(battery_charge=60.0, discharge_rates=[0.5, 0.2, 0.3])
        assert availability(node) == pytest.approx(60.0)

    def test_single_app(self):
        node = node_of(battery_charge=90.0, discharge_rates=[0.9])
        assert availability(node) == pytest.approx(100.0)

    def test_dead_battery(self):
        node = node_of(battery_charge=0.0, discharge_rates=[0.5])
        assert availability(node) == 0.0

    def test_mains_powered_capped(self):
        server = node_of(tier=Tier.FOG_SERVER, discharge_rates=[])
        assert availability(server) == MAINS_AVAILABILITY_MINUTES

    def test_battery_node_without_rates_rejected(self):
        with pytest.raises(UndefinedAvailabilityError):
            availability(node_of(discharge_rates=[]))


class TestThroughputByDistance:
    def test_default_decreasing(self):
        assert throughput_by_distance(node_of(distance=4.0)) == pytest.approx(0.9)

    def test_zero_distance(self):
        assert throughput_by_distance(node_of(distance=0.0)) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidNodeError):
            throughput_by_distance(node_of(distance=50.0))


class TestFluctuationRate:
    def test_reference_steps(self):
        history = [10.0, 20.0, 5.0, 30.0, 20.0]
        steps = [abs(b - a) / a * 100.0 for a, b in zip(history, history[1:])]
        assert steps == pytest.approx([100.0, 75.0, 500.0, 100.0 / 3.0])
        assert cpu_fluctuation_rate(history) == pytest.approx(sum(steps) / 4)

    def test_reference_mean(self):
        assert cpu_fluctuation_rate([10, 20, 5, 30, 20]) == pytest.approx(177.0833, abs=1e-3)

    def test_constant_history(self):
        assert cpu_fluctuation_rate([30.0, 30.0, 30.0]) == 0.0

    def test_short_history_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            cpu_fluctuation_rate([10.0])


class TestCompletionTime:
    def test_fd1(self):
        assert completion_time(1.0, 0.5, 0.5, 0.9) == pytest.approx(4.44, abs=0.01)

    def test_fd3(self):
        assert completion_time(10.0, 0.3, 1.0, 0.5) == pytest.approx(66.67, abs=0.01)

    def test_identity_factors(self):
        assert completion_time(3.7, 1.0, 1.0, 1.0) == 3.7

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            completion_time(1.0, 0.0, 1.0, 1.0)


class TestAvailabilityScore:
    def test_fd1(self):
        c_t = completion_time(1.0, 0.5, 0.5, 0.9)
        assert availability_score(10.0, c_t) == pytest.approx(2.25, abs=0.01)

    def test_fd4(self):
        c_t = completion_time(0.5, 0.4, 1.3, 0.7)
        assert availability_score(30.0, c_t) == pytest.approx(21.84, abs=0.01)

    def test_zero_availability(self):
        assert availability_score(0.0, 4.0) == 0.0

    def test_zero_completion_rejected(self):
        with pytest.raises(ZeroDivisionError):
            availability_score(1.0, 0.0)


class TestGoldenTable:
    """The five-device reference rows, reproduced end to end."""

    def test_score_device_matches_reference(self):
        task = fd_table_task()
        for node in fd_table_nodes():
            card = score_device(task, node)
            want = EXPECTED[node.id]
            assert card.execution_time == pytest.approx(want["e_t"], abs=0.01)
            assert card.completion_time == pytest.approx(want["c_t"], abs=0.01)
            assert card.availability_score == pytest.approx(want["a_s"], abs=0.01)

    def test_printed_capacities_disagree_for_fd4_fd5(self):
        # The reference input rows list capacities ten times smaller for FD4
        # and FD5 than their execution-time column implies; FD1-FD3 agree.
        task = fd_table_task()
        for name, printed in PRINTED_CAPACITIES.items():
            implied = task.length / printed
            tabulated = EXPECTED[name]["e_t"]
            if name in ("FD4", "FD5"):
                assert implied == pytest.approx(tabulated * 10, rel=1e-2)
            else:
                assert implied == pytest.approx(tabulated, rel=1e-2)


factor = st.floats(min_value=0.05, max_value=3.0)
minutes = st.floats(min_value=0.0, max_value=1e4)


@settings(max_examples=1000, deadline=None)
@given(a_v=minutes, e_t=st.floats(min_value=1e-3, max_value=1e3),
       f=factor, caf=factor, t=factor)
def test_score_times_completion_equals_availability(a_v, e_t, f, caf, t):
    c_t = completion_time(e_t, f, caf, t)
    a_s = availability_score(a_v, c_t)
    assert a_s * c_t == pytest.approx(a_v, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(e_t=st.floats(min_value=1e-3, max_value=1e3),
       f=factor, caf=factor, t=factor,
       bump=st.floats(min_value=1.01, max_value=4.0))
def test_completion_monotonicity(e_t, f, caf, t, bump):
    base = completion_time(e_t, f, caf, t)
    assert completion_time(e_t * bump, f, caf, t) > base
    assert completion_time(e_t, f * bump, caf, t) < base
    assert completion_time(e_t, f, caf * bump, t) < base
    assert completion_time(e_t, f, caf, t * bump) < base


@settings(max_examples=300, deadline=None)
@given(history=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=12),
       scale=st.floats(min_value=0.1, max_value=10.0))
def test_fluctuation_scale_invariance(history, scale):
    scaled = [h * scale for h in history]
    assert cpu_fluctuation_rate(scaled) == pytest.approx(
        cpu_fluctuation_rate(history), rel=1e-9, abs=1e-9)


def test_score_device_idle_unit_factors():
    node = node_of(free_resource_fraction=1.0, caf_score=1.0, distance=0.0,
                   battery_charge=50.0, discharge_rates=[0.5])
    card = score_device(task_of(800), node)
    assert card.completion_time == pytest.approx(card.execution_time)
    assert card.availability_score == pytest.approx(100.0 / card.execution_time)
