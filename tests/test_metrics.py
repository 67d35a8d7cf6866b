import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.metrics import (
    InconsistentCountersError,
    RequestRecord,
    RunTrace,
    build_report,
    completion_metrics,
    cost_metrics,
    delay_totals,
    internal_delay_totals,
    sla_penalty,
    sla_violation_rate,
    total_penalty,
)
from fogsim.model import PriceBook, SlaTerms, TrafficCounters, UsageLedger


def record(task="t0", app="a0", delay=1.0, internal=0.5, proc=0.25, cloud=0.0,
           packets=1, violated=False, excess=0.0):
    return RequestRecord(
        task_id=task, app_id=app, submit_time=0.0, completion_time=2.0,
        deadline=5.0, delay=delay, internal_delay=internal, processing_time=proc,
        cloud_legs_time=cloud, packets=packets, violated=violated, excess=excess)


class TestDelayTotals:
    def test_mirrored_times(self):
        tc = TrafficCounters(user_packets=10, cloud_packets=2,
                             t_user=10.0, t_cloud=2.0,
                             t_cloud_response=2.0, t_fog_response=8.0)
        total, avg, empty = delay_totals(tc)
        assert total == pytest.approx(24.0)
        assert avg == pytest.approx(2.4)
        assert not empty

    def test_zero_times(self):
        total, avg, _ = delay_totals(TrafficCounters(user_packets=3))
        assert total == 0.0 and avg == 0.0

    def test_single_leg(self):
        tc = TrafficCounters(user_packets=4, t_user=3.0)
        total, avg, _ = delay_totals(tc)
        assert total == pytest.approx(3.0)

    def test_empty_flagged(self):
        total, avg, empty = delay_totals(TrafficCounters())
        assert (total, avg, empty) == (0.0, 0.0, True)


class TestInternalDelays:
    def test_reference(self):
        tc = TrafficCounters(fog_internal=2, cloud_internal=1,
                             t_fog_internal=1.0, t_fog_internal_response=1.0,
                             t_cloud_internal=2.0, t_cloud_internal_response=2.0)
        total, avg, empty = internal_delay_totals(tc)
        assert total == pytest.approx(6.0)
        assert avg == pytest.approx(2.0)
        assert not empty

    def test_zero(self):
        total, avg, empty = internal_delay_totals(TrafficCounters())
        assert (total, avg, empty) == (0.0, 0.0, True)

    def test_fog_only(self):
        tc = TrafficCounters(fog_internal=2, t_fog_internal=3.0)
        total, avg, _ = internal_delay_totals(tc)
        assert total == pytest.approx(3.0)
        assert avg == pytest.approx(1.5)


class TestCompletionMetrics:
    def test_single_request_identity(self):
        got = completion_metrics([record(delay=2.0, internal=1.0, proc=0.5)])
        assert got.cta_by_app["a0"] == pytest.approx(3.5)
        assert got.cta_avg == pytest.approx(3.5)
        assert got.ctu_avg == pytest.approx(3.5)

    def test_two_identical_requests_double_cta(self):
        records = [record(task="t0"), record(task="t1")]
        got = completion_metrics(records)
        single = completion_metrics(records[:1])
        assert got.cta_by_app["a0"] == pytest.approx(2 * single.cta_by_app["a0"])
        assert got.cta_avg == pytest.approx(single.cta_avg)

    def test_brute_force_resummation(self):
        rng = random.Random(3)
        records = [record(task=f"t{i}", app=f"a{i % 4}", delay=rng.uniform(0, 5),
                          internal=rng.uniform(0, 2), proc=rng.uniform(0, 1))
                   for i in range(60)]
        got = completion_metrics(records)
        apps = {}
        for r in records:
            apps.setdefault(r.app_id, []).append(r.delay + r.internal_delay + r.processing_time)
        for app, parts in apps.items():
            assert got.cta_by_app[app] == pytest.approx(sum(parts), rel=1e-9)
        assert got.cta_avg == pytest.approx(
            sum(sum(p) for p in apps.values()) / len(records), rel=1e-9)

    def test_empty_flagged(self):
        got = completion_metrics([])
        assert got.empty and got.cta_avg == 0.0


class TestCostMetrics:
    def test_zero_duration_request(self):
        tc_req, tc = cost_metrics([record(delay=0, internal=0, proc=0)], 1.0)
        assert tc_req == [0.0] and tc == 0.0

    def test_unit_cost_weighted_times(self):
        records = [record(delay=2.0, internal=1.0, proc=0.5, cloud=0.75)]
        tc_req, tc = cost_metrics(records, 1.0)
        assert tc_req[0] == pytest.approx(3.5 + 0.75)
        assert tc == pytest.approx(tc_req[0])

    def test_additivity_over_identical_requests(self):
        one = [record()]
        five = [record(task=f"t{i}") for i in range(5)]
        _, tc_one = cost_metrics(one, 2.0)
        _, tc_five = cost_metrics(five, 2.0)
        assert tc_five == pytest.approx(5 * tc_one)

    def test_defaults_to_ledger_cost(self):
        ledger = UsageLedger(cloud_connect_minutes=[1e6])  # 0.08 dollars
        trace = RunTrace(records=[record(delay=1.0, internal=0.0, proc=0.0)], ledger=ledger)
        report = build_report(trace, PriceBook(), SlaTerms())
        assert report.usage_cost == pytest.approx(0.08)
        assert report.tc_per_request[0] == pytest.approx(0.08)


class TestSla:
    def test_linear_penalty(self):
        assert sla_penalty(SlaTerms(0.1, 0.05, 2.0)) == pytest.approx(0.2)

    def test_base_only(self):
        assert sla_penalty(SlaTerms(0.1, 0.05, 0.0)) == pytest.approx(0.1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            sla_penalty(SlaTerms(0.1, 0.05, -1.0))

    def test_no_violations(self):
        records = [record(task=f"t{i}") for i in range(4)]
        assert sla_violation_rate(records) == 0.0
        assert total_penalty(records, SlaTerms()) == 0.0

    def test_rate_counts_violations(self):
        records = [record(task="t0", violated=True, excess=1.0),
                   record(task="t1"), record(task="t2"), record(task="t3")]
        assert sla_violation_rate(records) == pytest.approx(25.0)

    def test_rate_invariant_under_reordering(self):
        rng = random.Random(7)
        records = [record(task=f"t{i}", violated=rng.random() < 0.3,
                          excess=rng.uniform(0, 4)) for i in range(40)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert sla_violation_rate(records) == sla_violation_rate(shuffled)
        assert total_penalty(records, SlaTerms()) == pytest.approx(
            total_penalty(shuffled, SlaTerms()))


@settings(max_examples=1000, deadline=None)
@given(dt=st.floats(min_value=0, max_value=1e4),
       bump=st.floats(min_value=0, max_value=1e3),
       alpha=st.floats(min_value=0, max_value=10),
       beta=st.floats(min_value=0, max_value=10))
def test_penalty_monotone_in_delay(dt, bump, alpha, beta):
    low = sla_penalty(SlaTerms(alpha, beta, dt))
    high = sla_penalty(SlaTerms(alpha, beta, dt + bump))
    assert high >= low


@settings(max_examples=300, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
def test_min_avg_max_ordering(delays):
    records = [record(task=f"t{i}", delay=d) for i, d in enumerate(delays)]
    tc = TrafficCounters(user_packets=len(delays), t_user=sum(delays))
    trace = RunTrace(records=records, counters=tc, ledger=UsageLedger())
    report = build_report(trace, PriceBook(), SlaTerms())
    assert report.min_delay <= report.avg_delay <= report.max_delay


def test_delay_formula_matches_per_record_sums():
    # mirror the simulator's accrual: a fog-served request contributes its
    # uplink twice (forward + response); a cloud-bound one contributes the
    # uplink plus three cloud legs (forward + doubly counted response)
    rng = random.Random(5)
    records = []
    tc = TrafficCounters()
    for i in range(30):
        cloud = rng.random() < 0.3
        uplink = rng.uniform(0.1, 2.0)
        tc.user_packets += 1
        tc.t_user += uplink
        if cloud:
            leg = rng.uniform(0.1, 1.0)
            tc.cloud_packets += 1
            tc.t_cloud += leg
            tc.t_cloud_response += leg
            delay = uplink + 3 * leg
        else:
            tc.t_fog_response += uplink
            delay = 2 * uplink
        records.append(record(task=f"t{i}", app=f"a{i % 3}", delay=delay))
    total, _, _ = delay_totals(tc)
    assert total == pytest.approx(sum(r.delay for r in records), rel=1e-9)
