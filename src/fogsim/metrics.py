"""Run post-processing: delay totals, completion times, cost, SLA.

All functions are pure over an immutable trace. A trace is a list of
:class:`RequestRecord`, one per finished request, plus the
:class:`UsageLedger` the engine produced for one run. Every report total
is a sum over the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import MetricsReport, PriceBook, SlaTerms, UsageLedger
from .pricing import total_app_cost


@dataclass
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


@dataclass
class RunTrace:
    records: list[RequestRecord] = field(default_factory=list)
    ledger: UsageLedger = field(default_factory=UsageLedger)
    policy: str = ""
    reservation: bool = False
    seed: int = 0


def delay_totals(records: list[RequestRecord]) -> tuple[float, float]:
    """Total and per-request delay (0 average for no requests)."""
    total = sum(r.delay for r in records)
    return total, (total / len(records) if records else 0.0)


def internal_delay_totals(records: list[RequestRecord]) -> tuple[float, float]:
    """Total and per-message internal delay (0 average for no messages)."""
    total = sum(r.internal_delay for r in records)
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
    """Per-user and per-application completion aggregates from the trace."""
    if not records:
        return CompletionMetrics(0.0, {}, 0.0, 0.0, True)
    per_request_ctu = []
    cta: dict[str, float] = {}
    counts: dict[str, int] = {}
    total_proc = 0.0
    for r in records:
        full = r.delay + r.internal_delay + r.processing_time
        per_request_ctu.append(full)
        cta[r.app_id] = cta.get(r.app_id, 0.0) + full
        counts[r.app_id] = counts.get(r.app_id, 0) + 1
        total_proc += r.processing_time
    ctu_avg = sum(per_request_ctu) / len(per_request_ctu)
    cta_avg = sum(cta.values()) / sum(counts.values())
    return CompletionMetrics(ctu_avg, cta, cta_avg, total_proc, False)


def cost_metrics(records: list[RequestRecord], app_cost: float) -> tuple[list[float], float]:
    """Per-request usage-weighted cost and its total.

    Fog-side and cloud-side time are both priced at ``app_cost``, the run's
    total application cost.
    """
    per_request = []
    for r in records:
        fog_side = (r.delay + r.internal_delay + r.processing_time) * app_cost
        cloud_side = r.cloud_legs_time * app_cost
        per_request.append(fog_side + cloud_side)
    return per_request, sum(per_request)


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
