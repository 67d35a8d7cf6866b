"""Per-(task, node) scoring: the quantities the allocation policy ranks by.

Completion time de-rates raw execution time by the node's free-resource
share, its CPU-availability-fluctuation score and its distance-based
throughput; the availability score relates battery-backed uptime to that
completion time. Fluctuation scores above 1 are applied literally, so a
wildly fluctuating node can score a shorter completion time than its raw
speed suggests; see the worked five-device example in the fixtures module.
"""

from __future__ import annotations

from .model import FogNode, NetworkLink, ScoreCard, Task, Tier
from .network import link_bandwidth, link_delay

# Availability (minutes) assumed for nodes on mains power.
MAINS_AVAILABILITY_MINUTES = 1e4


class InvalidNodeError(ValueError):
    pass


class UndefinedAvailabilityError(ValueError):
    pass


class InsufficientHistoryError(ValueError):
    pass


def execution_time(task: Task, node: FogNode) -> float:
    """Seconds of compute for the task's remaining work at the node's full speed."""
    if node.cpu_capacity <= 0:
        raise InvalidNodeError(f"node {node.id} has non-positive capacity")
    return task.remaining_work / node.cpu_capacity


def migration_time(task: Task, link: NetworkLink, throughput: float | None = None) -> float:
    """Seconds to move the task's data over the link.

    ``throughput`` overrides the link's own medium throughput; callers that
    score a destination node pass its distance-based throughput here.
    """
    t_h = link.medium_throughput if throughput is None else throughput
    bw = link_bandwidth(link)
    if bw * t_h <= 0:
        raise ValueError(f"bandwidth*throughput must be > 0, got {bw}*{t_h}")
    return task.data_size / (bw * t_h)


def response_time(migration: float, execution: float, network_delay: float) -> float:
    """Migration + execution + round-trip link latency."""
    return migration + execution + network_delay


def availability(node: FogNode) -> float:
    """Minutes until the node's battery is exhausted at current drain.

    Fog servers and cloud nodes are treated as mains-powered and return
    ``MAINS_AVAILABILITY_MINUTES``. A battery node with no recorded
    discharge rates has no defined availability.
    """
    if node.tier is not Tier.FOG_DEVICE:
        return MAINS_AVAILABILITY_MINUTES
    total_drain = sum(node.discharge_rates)
    if total_drain <= 0:
        raise UndefinedAvailabilityError(f"node {node.id} has no discharge rates")
    return node.battery_charge / total_drain


def throughput_by_distance(node: FogNode) -> float:
    """Link throughput fraction implied by the node's distance: ``1 - d/d_max``."""
    if node.distance > node.max_supported_distance:
        raise InvalidNodeError(f"node {node.id} distance exceeds its supported range")
    return 1.0 - node.distance / node.max_supported_distance


def cpu_fluctuation_rate(history: list[float]) -> float:
    """Mean percent change between consecutive available-CPU samples."""
    if len(history) < 2:
        raise InsufficientHistoryError("need at least two samples")
    steps = []
    for prev, cur in zip(history, history[1:]):
        if prev <= 0:
            raise ValueError("history samples must be > 0")
        steps.append(abs(cur - prev) / prev * 100.0)
    return sum(steps) / len(steps)


def completion_time(execution: float, free_fraction: float, caf: float, throughput: float) -> float:
    """Execution time de-rated by the three multiplicative availability factors."""
    if free_fraction <= 0 or caf <= 0 or throughput <= 0:
        raise ValueError("de-rating factors must be > 0")
    return execution / (free_fraction * caf * throughput)


def availability_score(avail_minutes: float, completion: float) -> float:
    """Battery availability per unit completion time; the migration tie-breaker."""
    if completion <= 0:
        raise ZeroDivisionError("completion time must be > 0")
    return avail_minutes / completion


def score_device(
    task: Task,
    node: FogNode,
    link: NetworkLink | None = None,
    migration_override: float | None = None,
) -> ScoreCard:
    """Populate a full score card for one candidate node.

    Without a link, migration time and link latency are zero (local or
    fresh placement with negligible transfer). ``migration_override``
    substitutes an externally measured migration time.
    """
    e_t = execution_time(task, node)
    t_bd = throughput_by_distance(node)
    if migration_override is not None:
        m_t = migration_override
        n_dl = link_delay(link) if link is not None else 0.0
    elif link is not None:
        m_t = migration_time(task, link, throughput=t_bd)
        n_dl = link_delay(link)
    else:
        m_t = 0.0
        n_dl = 0.0
    a_v = availability(node)
    c_t = completion_time(e_t, node.free_resource_fraction, node.caf_score, t_bd)
    return ScoreCard(
        node_id=node.id,
        execution_time=e_t,
        migration_time=m_t,
        response_time=response_time(m_t, e_t, n_dl),
        availability=a_v,
        throughput_by_distance=t_bd,
        completion_time=c_t,
        availability_score=availability_score(a_v, c_t),
    )
