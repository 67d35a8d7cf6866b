"""Run post-processing: delay totals, completion times, cost, SLA.

All functions are pure over an immutable trace. A trace is a list of
:class:`RequestRecord` plus the aggregated :class:`TrafficCounters` and
:class:`UsageLedger` the engine produced for one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import MetricsReport, PriceBook, SlaTerms, TrafficCounters, UsageLedger
from .pricing import total_app_cost


class InconsistentCountersError(ValueError):
    pass


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
    packets: int = 1
    violated: bool = False
    excess: float = 0.0  # seconds past the deadline when violated
    migrations: int = 0


@dataclass
class RunTrace:
    records: list[RequestRecord] = field(default_factory=list)
    counters: TrafficCounters = field(default_factory=TrafficCounters)
    ledger: UsageLedger = field(default_factory=UsageLedger)
    policy: str = ""
    reservation: bool = False
    seed: int = 0


def delay_totals(tc: TrafficCounters) -> tuple[float, float, bool]:
    """Total and per-packet delay; the flag marks an empty denominator."""
    if tc.cloud_packets > tc.user_packets:
        raise InconsistentCountersError("cloud packets exceed user packets")
    total = (tc.t_user + tc.t_cloud + tc.t_cloud_response
             + tc.t_fog_response + tc.t_cloud_response)
    if tc.user_packets == 0:
        return total, 0.0, True
    return total, total / tc.user_packets, False


def internal_delay_totals(tc: TrafficCounters) -> tuple[float, float, bool]:
    """Total and per-communication internal delay; flag marks empty denominator."""
    total = (tc.t_fog_internal + tc.t_fog_internal_response
             + tc.t_cloud_internal + tc.t_cloud_internal_response)
    denom = tc.fog_internal + tc.cloud_internal
    if denom == 0:
        return total, 0.0, True
    return total, total / denom, False


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
        per_request_ctu.append(full / r.packets if r.packets else 0.0)
        cta[r.app_id] = cta.get(r.app_id, 0.0) + full
        counts[r.app_id] = counts.get(r.app_id, 0) + 1
        total_proc += r.processing_time
    ctu_avg = sum(per_request_ctu) / len(per_request_ctu)
    cta_avg = sum(cta.values()) / sum(counts.values())
    return CompletionMetrics(ctu_avg, cta, cta_avg, total_proc, False)


def cost_metrics(
    records: list[RequestRecord],
    prices: PriceBook,
    ledger: UsageLedger,
    fog_unit_cost: float | None = None,
    cloud_unit_cost: float | None = None,
) -> tuple[list[float], float]:
    """Per-request usage-weighted cost and its total.

    Both unit costs default to the ledger's total application cost; pass
    explicit values to price fog and cloud time differently.
    """
    app_cost = total_app_cost(ledger, prices)
    c_fog = app_cost if fog_unit_cost is None else fog_unit_cost
    c_cloud = app_cost if cloud_unit_cost is None else cloud_unit_cost
    per_request = []
    for r in records:
        fog_side = (r.delay + r.internal_delay + r.processing_time) * c_fog
        cloud_side = r.cloud_legs_time * c_cloud
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
    dp_total, dp_avg, empty_dp = delay_totals(trace.counters)
    dip_total, dip_avg, _ = internal_delay_totals(trace.counters)
    completion = completion_metrics(records)
    tc_req, tc = cost_metrics(records, prices, trace.ledger)
    delays = [r.delay for r in records]
    procs = [r.processing_time for r in records]
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
        avg_processing=(sum(procs) / len(procs)) if procs else 0.0,
        total_processing=completion.total_processing,
        avg_internal_delay=dip_avg,
        total_internal_delay=dip_total,
        ctu_avg=completion.ctu_avg,
        cta_by_app=completion.cta_by_app,
        cta_avg=completion.cta_avg,
        tc_per_request=tc_req,
        tc=tc,
        usage_cost=total_app_cost(trace.ledger, prices),
        sla_violation_pct=sla_violation_rate(records),
        penalty_cost=total_penalty(records, terms),
        migrations=sum(r.migrations for r in records),
        empty=empty_dp or completion.empty,
    )
