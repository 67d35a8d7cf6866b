"""Per-(task, node) scoring: the quantities the allocation policy ranks by.

Completion time de-rates raw execution time by the node's free-resource
share, its CPU-availability-fluctuation score and its distance-based
throughput; the availability score relates battery-backed uptime to that
completion time. Fluctuation scores above 1 are applied literally, so a
wildly fluctuating node can score a shorter completion time than its raw
speed suggests; see the worked five-device example in the fixtures module.
"""

from __future__ import annotations

from .model import FogNode, NetworkLink, ScoreCard, Task, Tier, fold_sum
from .network import link_bandwidth

# Availability (minutes) assumed for nodes on mains power.
MAINS_AVAILABILITY_MINUTES = 1e4


class InvalidNodeError(ValueError):
    pass


class UndefinedAvailabilityError(ValueError):
    pass


class InsufficientHistoryError(ValueError):
    pass


def checked_capacity(node: FogNode) -> float:
    """The node's CPU capacity (MIPS); a node without positive capacity cannot run work."""
    if node.cpu_capacity <= 0:
        raise InvalidNodeError(f"node {node.id} has non-positive capacity")
    return node.cpu_capacity


def execution_seconds(work: float, capacity: float) -> float:
    """``E_t``: seconds of compute for ``work`` MI at ``capacity`` MIPS, full speed."""
    return work / capacity


def execution_time(task: Task, node: FogNode) -> float:
    """Seconds of compute for the task's remaining work at the node's full speed."""
    return execution_seconds(task.remaining_work, checked_capacity(node))


def migration_time(task: Task, link: NetworkLink) -> float:
    """Seconds to move the task's data over the link at its medium throughput."""
    t_h = link.medium_throughput
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
    return battery_minutes(node.battery_charge, node.discharge_rates)


def battery_minutes(charge: float, drains: list[float]) -> float:
    """Minutes until a battery at ``charge`` percent runs out under the summed drains."""
    total_drain = fold_sum(drains)
    if total_drain <= 0:
        raise UndefinedAvailabilityError("battery node has no discharge rates")
    return charge / total_drain


def throughput_by_distance(node: FogNode) -> float:
    """Link throughput fraction implied by the node's distance: ``1 - d/d_max``."""
    if node.distance > node.max_supported_distance:
        raise InvalidNodeError(f"node {node.id} distance exceeds its supported range")
    return 1.0 - node.distance / node.max_supported_distance


def fluctuation_step(prev: float, cur: float) -> float:
    """Percent change from one available-CPU sample to the next."""
    if prev <= 0:
        raise ValueError("history samples must be > 0")
    return abs(cur - prev) / prev * 100.0


def cpu_fluctuation_rate(history: list[float]) -> float:
    """Mean percent change between consecutive available-CPU samples."""
    if len(history) < 2:
        raise InsufficientHistoryError("need at least two samples")
    steps = [fluctuation_step(prev, cur) for prev, cur in zip(history, history[1:])]
    return fold_sum(steps) / len(steps)


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
    migration_override: float | None = None,
) -> ScoreCard:
    """Populate a full score card for one candidate node.

    Migration time is zero (local or fresh placement with negligible
    transfer) unless ``migration_override`` supplies a measured one. Scoring
    sees no link latency, so the response time ``R_t`` is ``M_t + E_t``.
    """
    e_t = execution_time(task, node)
    t_bd = throughput_by_distance(node)
    m_t = 0.0 if migration_override is None else migration_override
    a_v = availability(node)
    c_t = completion_time(e_t, node.free_resource_fraction, node.caf_score, t_bd)
    return ScoreCard(
        node_id=node.id,
        execution_time=e_t,
        migration_time=m_t,
        response_time=response_time(m_t, e_t, 0.0),
        availability=a_v,
        throughput_by_distance=t_bd,
        completion_time=c_t,
        availability_score=availability_score(a_v, c_t),
    )
