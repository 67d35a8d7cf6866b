"""Allocation decisions: multi-criteria ranking, reservation, migration.

The multi-criteria policy ranks candidates by completion time for fresh
requests. For migrations it prefers, among nodes that can still meet the
deadline, the one with the highest availability score; that preference is
what makes it pick a slightly slower but longer-lived device over the
fastest one. The baseline comparator ranks by raw execution time plus link
round-trip only, ignoring every other device characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import FogNode, NetworkLink, ScoreCard, Task
from .network import link_delay
from .scoring import execution_time, score_device


@dataclass(frozen=True)
class MigrationDecision:
    target_id: str | None
    ranked: tuple[str, ...]  # migration-order candidate ids
    feasible: tuple[str, ...]  # ids that can still meet the deadline
    violation_flagged: bool  # no node can meet the deadline


def _score_all(
    task: Task,
    candidates: list[FogNode],
    links: dict[str, NetworkLink] | None = None,
    migration_times: dict[str, float] | None = None,
) -> list[ScoreCard]:
    cards = []
    for node in candidates:
        link = links.get(node.id) if links else None
        override = migration_times.get(node.id) if migration_times else None
        cards.append(score_device(task, node, link, migration_override=override))
    return cards


def _migration_bound_ok(card: ScoreCard, deadline: float) -> bool:
    """A node stays a migration target while ``C_t < deadline + M_t``."""
    return card.completion_time < deadline + card.migration_time


def _migration_order(cards: list[ScoreCard], deadline: float) -> list[ScoreCard]:
    """Deadline-feasible nodes first (highest availability score), then the rest."""
    feasible = [c for c in cards if c.completion_time < deadline]
    rest = [c for c in cards if c.completion_time >= deadline]
    feasible.sort(key=lambda c: (-c.availability_score, c.node_id))
    rest.sort(key=lambda c: (c.completion_time, c.node_id))
    ordered = feasible + rest
    # nodes outside even the migration bound sink to the back
    in_bound = [c for c in ordered if _migration_bound_ok(c, deadline)]
    out_bound = [c for c in ordered if not _migration_bound_ok(c, deadline)]
    return in_bound + out_bound


def mc_allocate(task: Task, candidates: list[FogNode]) -> list[FogNode] | None:
    """Rank candidate nodes for a fresh request; ``None`` when there are none.

    Nodes come back sorted ascending by completion time, ties broken on node
    id, so identical inputs yield identical rankings. Migrations are ranked
    by :func:`handle_deadline_change`.
    """
    if not candidates:
        return None
    by_id = {n.id: n for n in candidates}
    cards = _score_all(task, candidates)
    ordered = sorted(cards, key=lambda c: (c.completion_time, c.node_id))
    return [by_id[c.node_id] for c in ordered]


def reserve(devices: list[FogNode], current_util: dict[str, float]) -> bool:
    """Refresh every device's reservation from its recent request history.

    The required reservation is ``(reserved + last_request) / processed``;
    devices that processed nothing keep a zero reservation. The utilisation
    map is updated in place to current + reservation (as a capacity
    fraction). Returns False when there are no devices to reserve on.
    """
    if not devices:
        return False
    for node in devices:
        state = node.reservation
        if state.total_apps_processed > 0:
            required = (state.reserved_value + state.last_app_request) / state.total_apps_processed
        else:
            required = 0.0
        state.required_reservation = required
        state.reserved_value = required
        base = current_util.get(node.id, node.native_utilisation)
        current_util[node.id] = base + required / node.cpu_capacity
    return True


def handle_deadline_change(
    task: Task,
    candidates: list[FogNode],
    new_deadline: float,
    current: FogNode | None = None,
    links: dict[str, NetworkLink] | None = None,
    migration_times: dict[str, float] | None = None,
    current_util: dict[str, float] | None = None,
) -> MigrationDecision:
    """Pick a migration target after the user tightened the deadline.

    If the current node still meets the new deadline, stay put. Otherwise
    rank candidates, keep those inside the migration bound, and take the
    deadline-feasible one with the highest availability score; when no node
    is deadline-feasible, the nearest in-bound node by completion time is
    taken. With nothing in bound the task stays where it is and the decision
    is flagged as a prospective violation.
    """
    if current is not None:
        current_card = score_device(task, current)
        if current_card.completion_time < new_deadline:
            return MigrationDecision(None, (), (), False)
    others = [n for n in candidates if current is None or n.id != current.id]
    if not others:
        return MigrationDecision(None, (), (), True)
    util = current_util or {n.id: n.native_utilisation for n in others}
    reserve(others, util)
    cards_list = _score_all(task, others, links, migration_times)
    ordered = _migration_order(cards_list, new_deadline)
    ranked = tuple(c.node_id for c in ordered)
    in_bound = [c for c in ordered if _migration_bound_ok(c, new_deadline)]
    feasible = tuple(c.node_id for c in in_bound if c.completion_time < new_deadline)
    if not in_bound:
        return MigrationDecision(None, ranked, (), True)
    return MigrationDecision(in_bound[0].node_id, ranked, feasible, False)


def baseline_allocate(
    task: Task,
    candidates: list[FogNode],
    links: dict[str, NetworkLink] | None = None,
) -> list[FogNode]:
    """Greedy comparator: ascending raw execution time plus link round-trip.

    Deliberately blind to free resources, fluctuation, battery and distance.
    """
    def key(node: FogNode):
        delay = link_delay(links[node.id]) if links and node.id in links else 0.0
        return (execution_time(task, node) + delay, node.id)

    return sorted(candidates, key=key)
