import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.engine import Scenario
from fogsim.metrics import (
    RequestRecord,
    RunTrace,
    account,
    build_report,
    completion_metrics,
    cost_metrics,
    delay_totals,
    internal_delay_totals,
    sla_penalty,
    sla_violation_rate,
    total_penalty,
)
from fogsim.model import PriceBook, SlaTerms, Task, UsageLedger, fold_sum


def record(task="t0", app="a0", delay=1.0, internal=0.5, proc=0.25, cloud=0.0,
           violated=False, excess=0.0, messages=1):
    return RequestRecord(
        task_id=task, app_id=app, submit_time=0.0, completion_time=2.0,
        deadline=5.0, delay=delay, internal_delay=internal, processing_time=proc,
        cloud_legs_time=cloud, violated=violated, excess=excess,
        internal_messages=messages)


class TestDelayTotals:
    def test_mirrored_times(self):
        # a fog-served request: uplink + its mirrored response; a cloud-bound
        # one: uplink + cloud forward leg + the twice-counted cloud response
        fog = [record(task=f"f{i}", delay=1.0 + 1.0) for i in range(8)]
        cloud = [record(task=f"c{i}", delay=1.0 + 1.0 + 2 * 1.0) for i in range(2)]
        total, avg = delay_totals(fog + cloud)
        assert total == pytest.approx(24.0)
        assert avg == pytest.approx(2.4)

    def test_zero_times(self):
        total, avg = delay_totals([record(task=f"t{i}", delay=0.0) for i in range(3)])
        assert total == 0.0 and avg == 0.0

    def test_single_leg(self):
        total, avg = delay_totals([record(task=f"t{i}", delay=0.75) for i in range(4)])
        assert total == pytest.approx(3.0)
        assert avg == pytest.approx(0.75)

    def test_empty_flagged(self):
        assert delay_totals([]) == (0.0, 0.0)
        assert build_report(RunTrace(), PriceBook(), SlaTerms()).empty


class TestInternalDelays:
    def test_reference(self):
        records = [record(task="fog", internal=1.0 + 1.0, messages=2),
                   record(task="cloud", internal=2.0 + 2.0, messages=1)]
        total, avg = internal_delay_totals(records)
        assert total == pytest.approx(6.0)
        assert avg == pytest.approx(2.0)

    def test_zero(self):
        assert internal_delay_totals([]) == (0.0, 0.0)

    def test_fog_only(self):
        total, avg = internal_delay_totals([record(internal=3.0, messages=2)])
        assert total == pytest.approx(3.0)
        assert avg == pytest.approx(1.5)

    def test_no_messages_zero_average(self):
        assert internal_delay_totals([record(internal=3.0, messages=0)]) == (3.0, 0.0)


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

    def test_one_mean_reported_twice(self):
        rng = random.Random(5)
        records = [record(task=f"t{i}", app=f"a{i % 7}", delay=rng.uniform(0, 5),
                          internal=rng.uniform(0, 2), proc=rng.uniform(0, 1))
                   for i in range(200)]
        got = completion_metrics(records)
        per_request = [r.delay + r.internal_delay + r.processing_time for r in records]
        assert got.ctu_avg == got.cta_avg == fold_sum(per_request) / len(records)

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
        ledger = UsageLedger(cloud_connect_minutes=1e6)  # 0.08 dollars
        trace = RunTrace(records=[record(delay=1.0, internal=0.0, proc=0.0)], ledger=ledger)
        report = build_report(trace, PriceBook(), SlaTerms())
        assert report.usage_cost == pytest.approx(0.08)
        assert report.tc_per_request[0] == pytest.approx(0.08)


def test_report_totals_are_record_sums():
    records = [record(task="t0", delay=1.0, internal=0.5, proc=0.25, messages=2),
               record(task="t1", delay=3.0, internal=1.5, proc=0.75, messages=6)]
    report = build_report(RunTrace(records=records), PriceBook(), SlaTerms())
    assert not report.empty and report.requests == 2
    assert (report.total_delay, report.avg_delay) == (4.0, 2.0)
    assert (report.min_delay, report.max_delay) == (1.0, 3.0)
    assert (report.total_internal_delay, report.avg_internal_delay) == (2.0, 0.25)
    assert (report.total_processing, report.avg_processing) == (1.0, 0.5)


class TestAccount:
    """One request's record and ledger usage, against the README's formulas.

    Default scenario: subtask_length 500 MI, server, cloud and cloud-processing
    rates 1e6 bits/s, frame_bits 12000. The task has 1200 MI (3 subtasks) and
    81920 bits (10 KB) of data, and migrated once with 0.5 s of transfer.
    """

    def accounted(self, cloud_bound, completion_time):
        trace = RunTrace()
        task = Task(id="t0", app_id="a0", length=1200.0, data_size=81920.0, deadline=6.0,
                    submit_time=1.0)
        rec = account(trace, Scenario(), task, completion_time=completion_time, deadline=7.0,
                      uplink=0.4, active_time=3.0, migrations=1, migration_time=0.5,
                      cloud_bound=cloud_bound, progress=1200.0)
        assert len(trace.records) == 1 and trace.records[0] is rec
        return rec, trace.ledger

    def test_fog_served(self):
        rec, ledger = self.accounted(cloud_bound=False, completion_time=9.0)
        fog_leg = (5.0 * 8192.0 + 12000.0) / 1e6
        assert (rec.task_id, rec.app_id, rec.submit_time) == ("t0", "a0", 1.0)
        assert (rec.completion_time, rec.deadline) == (9.0, 7.0)
        assert rec.delay == pytest.approx(0.4 + 0.4)
        assert rec.internal_delay == pytest.approx(2 * 3 * fog_leg + 0.5)
        assert rec.processing_time == pytest.approx(3.0 + 3 * 12000.0 / 1e6)
        assert rec.cloud_legs_time == 0.0
        assert rec.internal_messages == 3 + 1
        assert (rec.violated, rec.excess, rec.migrations) == (True, 2.0, 1)
        assert rec.progress == 1200.0
        assert ledger.device_connect_minutes == pytest.approx(1200.0 / 1000.0 / 60.0)
        assert ledger.server_connect_minutes == pytest.approx(1200.0 / 1000.0 / 60.0 / 2)
        assert ledger.device_messages_kb == {10.0: 2}
        assert ledger.device_processing_kb == {5.0: 3}
        assert ledger.server_messages_kb == {5.0: 3}
        assert ledger.cloud_connect_minutes == 0.0 and ledger.cloud_messages_kb == {}
        assert ledger.cloud_processing_kb == ledger.server_processing_kb == {}

    def test_cloud_bound(self):
        rec, ledger = self.accounted(cloud_bound=True, completion_time=6.5)
        fog_leg = (5.0 * 8192.0 + 12000.0) / 1e6
        cloud_fwd = 81920.0 / 1e6 + 0.1
        cloud_leg = 5.0 * 8192.0 / 1e6 + 0.1
        cloud_proc = 81920.0 / 1e6
        assert rec.delay == pytest.approx(0.4 + cloud_fwd + 2 * cloud_fwd)
        assert rec.internal_delay == pytest.approx(2 * 3 * fog_leg + 0.5 + 2 * cloud_leg)
        assert rec.processing_time == pytest.approx(3.0 + 3 * 12000.0 / 1e6 + cloud_proc)
        assert rec.cloud_legs_time == pytest.approx(3 * cloud_fwd + 2 * cloud_leg + cloud_proc)
        assert rec.internal_messages == 3 + 1 + 1
        assert (rec.violated, rec.excess) == (False, 0.0)
        assert ledger.device_messages_kb == {10.0: 2}
        assert ledger.device_processing_kb == ledger.server_messages_kb == {5.0: 3}
        assert ledger.cloud_connect_minutes == pytest.approx(2 * 0.1 / 60.0)
        assert ledger.cloud_messages_kb == {10.0: 1}
        assert ledger.cloud_processing_kb == ledger.server_processing_kb == {}


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
    trace = RunTrace(records=records, ledger=UsageLedger())
    report = build_report(trace, PriceBook(), SlaTerms())
    assert report.min_delay <= report.avg_delay <= report.max_delay
