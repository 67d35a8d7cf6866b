"""Request accounting and run post-processing: delay totals, completion times, cost, SLA.

A trace is a list of :class:`RequestRecord`, one per finished request,
plus the :class:`UsageLedger` of the run. :func:`account` is the only
writer of both: the engine hands it each request's completion facts and
keeps the record it returns as the finished task's entry. Every other
function is pure over a finished trace, and every report total is a sum
over the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .model import MetricsReport, PriceBook, SlaTerms, Task, UsageLedger, fold_sum
from .network import processing_delay
from .pricing import total_app_cost

if TYPE_CHECKING:
    from .engine import Scenario, _TaskRt

MESSAGE_KB = 5.0  # size of one internal message
CLOUD_LATENCY = 0.1  # seconds one way


@dataclass(slots=True)
class RequestRecord:
    """Per-request slice of a run trace."""

    task_id: str
    app_id: str
    submit_time: float
    completion_time: float
    deadline: float  # absolute, after any mid-run change
    delay: float  # network legs for this request (forward + responses)
    internal_delay: float
    processing_time: float  # device + server + cloud processing
    cloud_legs_time: float  # portion of the legs spent on the cloud side
    violated: bool = False
    excess: float = 0.0  # seconds past the deadline when violated
    migrations: int = 0
    internal_messages: int = 0  # subtask messages + migrations + cloud hand-off
    progress: float = 0.0  # MI of work the run did for the request

    @property
    def full_completion(self) -> float:
        """The request's completion: ``delay + internal_delay + processing_time``."""
        return self.delay + self.internal_delay + self.processing_time


@dataclass
class RunTrace:
    records: list[RequestRecord] = field(default_factory=list)
    ledger: UsageLedger = field(default_factory=UsageLedger)
    policy: str = ""
    reservation: bool = False
    seed: int = 0


def account(trace: RunTrace, scenario: Scenario, task: Task | _TaskRt, completion_time: float,
            deadline: float, uplink: float, active_time: float, migrations: int,
            migration_time: float, cloud_bound: bool, progress: float) -> RequestRecord:
    """Append one finished request's record and ledger usage to the trace; return the record.

    Of ``task`` it reads only ``id``, ``app_id``, ``length``, ``data_size``
    and ``submit_time``, so the engine passes its task record.
    ``deadline`` is absolute; ``uplink``, ``active_time`` and
    ``migration_time`` are the seconds the request spent in transfer, in
    execution and in migration transfers; ``progress`` is the MI of work
    done for it.
    """
    sc = scenario
    n_sub = max(int(math.ceil(task.length / sc.subtask_length)), 1)
    data_kb = task.data_size / 8.0 / 1024.0
    frame = processing_delay(sc.frame_bits, sc.server_bandwidth)
    fog_leg = MESSAGE_KB * 8192.0 / sc.server_bandwidth + frame

    ledger = trace.ledger
    nominal_minutes = task.length / 1000.0 / 60.0
    ledger.device_connect_minutes += nominal_minutes
    ledger.server_connect_minutes += nominal_minutes / 2.0
    ledger.device_messages_kb[data_kb] += 2
    ledger.device_processing_kb[MESSAGE_KB] += n_sub
    ledger.server_messages_kb[MESSAGE_KB] += n_sub

    delay = uplink
    internal = n_sub * fog_leg * 2.0 + migration_time
    cloud_legs = cloud_proc = 0.0
    if cloud_bound:
        cloud_fwd = task.data_size / sc.cloud_bandwidth + CLOUD_LATENCY
        cloud_internal_leg = MESSAGE_KB * 8192.0 / sc.cloud_bandwidth + CLOUD_LATENCY
        cloud_proc = task.data_size / sc.cloud_processing_rate
        delay += cloud_fwd + 2.0 * cloud_fwd  # forward + twice-counted response
        internal += 2.0 * cloud_internal_leg
        cloud_legs = 3.0 * cloud_fwd + 2.0 * cloud_internal_leg + cloud_proc
        ledger.cloud_connect_minutes += 2.0 * CLOUD_LATENCY / 60.0
        ledger.cloud_messages_kb[data_kb] += 1
    else:
        delay += uplink  # the fog response mirrors the uplink
    record = RequestRecord(
        task_id=task.id, app_id=task.app_id, submit_time=task.submit_time,
        completion_time=completion_time, deadline=deadline, delay=delay,
        internal_delay=internal, processing_time=active_time + n_sub * frame + cloud_proc,
        cloud_legs_time=cloud_legs, violated=completion_time > deadline,
        excess=max(completion_time - deadline, 0.0), migrations=migrations,
        internal_messages=n_sub + migrations + int(cloud_bound), progress=progress)
    trace.records.append(record)
    return record


def delay_totals(records: list[RequestRecord]) -> tuple[float, float]:
    """Total and per-request delay (0 average for no requests)."""
    total = fold_sum(r.delay for r in records)
    return total, (total / len(records) if records else 0.0)


def internal_delay_totals(records: list[RequestRecord]) -> tuple[float, float]:
    """Total and per-message internal delay (0 average for no messages)."""
    total = fold_sum(r.internal_delay for r in records)
    messages = sum(r.internal_messages for r in records)
    return total, (total / messages if messages else 0.0)


@dataclass(frozen=True)
class CompletionMetrics:
    ctu_avg: float
    cta_by_app: dict[str, float]
    cta_avg: float
    total_processing: float
    empty: bool


def completion_metrics(records: list[RequestRecord]) -> CompletionMetrics:
    """Per-application completion totals and the mean completion over requests.

    A request's completion is its ``full_completion``; its mean over
    requests is summed once and reported as both ``ctu_avg`` and ``cta_avg``.
    """
    if not records:
        return CompletionMetrics(0.0, {}, 0.0, 0.0, True)
    per_request = []
    cta: dict[str, float] = {}
    total_proc = 0.0
    for r in records:
        full = r.full_completion
        per_request.append(full)
        cta[r.app_id] = cta.get(r.app_id, 0.0) + full
        total_proc += r.processing_time
    avg = fold_sum(per_request) / len(records)
    return CompletionMetrics(avg, cta, avg, total_proc, False)


def cost_metrics(records: list[RequestRecord], app_cost: float) -> tuple[list[float], float]:
    """Per-request usage-weighted cost and its total.

    Fog-side and cloud-side time are both priced at ``app_cost``, the run's
    total application cost.
    """
    per_request = []
    for r in records:
        fog_side = r.full_completion * app_cost
        cloud_side = r.cloud_legs_time * app_cost
        per_request.append(fog_side + cloud_side)
    return per_request, fold_sum(per_request)


def sla_penalty(terms: SlaTerms) -> float:
    """Penalty for one violated request: base plus rate times the delay."""
    if terms.delay_time < 0:
        raise ValueError("delay_time must be >= 0")
    return terms.base_penalty + terms.penalty_rate * terms.delay_time


def sla_violation_rate(records: list[RequestRecord]) -> float:
    """Violated requests as a percentage of all requests."""
    if not records:
        return 0.0
    violated = sum(1 for r in records if r.violated)
    return violated / len(records) * 100.0


def total_penalty(records: list[RequestRecord], terms: SlaTerms) -> float:
    cost = 0.0
    for r in records:
        if r.violated:
            cost += sla_penalty(SlaTerms(terms.base_penalty, terms.penalty_rate, r.excess))
    return cost


def build_report(trace: RunTrace, prices: PriceBook, terms: SlaTerms) -> MetricsReport:
    """Assemble the full metrics report for one run."""
    records = trace.records
    dp_total, dp_avg = delay_totals(records)
    dip_total, dip_avg = internal_delay_totals(records)
    completion = completion_metrics(records)
    app_cost = total_app_cost(trace.ledger, prices)
    tc_req, tc = cost_metrics(records, app_cost)
    delays = [r.delay for r in records]
    if delays:
        # summation noise must not push the average outside [min, max]
        dp_avg = min(max(dp_avg, min(delays)), max(delays))
    return MetricsReport(
        policy=trace.policy,
        reservation=trace.reservation,
        seed=trace.seed,
        requests=len(records),
        avg_delay=dp_avg,
        total_delay=dp_total,
        max_delay=max(delays) if delays else 0.0,
        min_delay=min(delays) if delays else 0.0,
        avg_processing=(completion.total_processing / len(records)) if records else 0.0,
        total_processing=completion.total_processing,
        avg_internal_delay=dip_avg,
        total_internal_delay=dip_total,
        ctu_avg=completion.ctu_avg,
        cta_by_app=completion.cta_by_app,
        cta_avg=completion.cta_avg,
        tc_per_request=tc_req,
        tc=tc,
        usage_cost=app_cost,
        sla_violation_pct=sla_violation_rate(records),
        penalty_cost=total_penalty(records, terms),
        migrations=sum(r.migrations for r in records),
        empty=completion.empty,
    )
