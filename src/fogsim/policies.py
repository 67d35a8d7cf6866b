"""Allocation decisions: multi-criteria ranking, reservation, migration.

The multi-criteria policy ranks candidates by completion time for fresh
requests. For migrations it prefers, among nodes that can still meet the
deadline, the one with the highest availability score; that preference is
what makes it pick a slightly slower but longer-lived device over the
fastest one. The baseline comparator ranks by raw execution time plus link
round-trip only, ignoring every other device characteristic.

Every function here is a pure query: it reads nodes and tasks and writes
nothing. The engine applies the decisions, reservations included. It
scores candidates from its own state and orders them by the row-based
rules (:func:`rank`, :func:`migration_key`); the ``FogNode`` functions
score node snapshots and order them by the same ones.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .model import FogNode, NetworkLink, ReservationState, Task
from .network import link_delay
from .scoring import execution_time, score_device


@dataclass(frozen=True)
class MigrationDecision:
    target_id: str | None
    ranked: tuple[str, ...]  # migration-order candidate ids
    feasible: tuple[str, ...]  # ids that can still meet the deadline
    violation_flagged: bool  # no node can meet the deadline


def rank(rows: list[tuple]) -> list[tuple]:
    """``(cost, node id, ...)`` rows ascending by cost, ties broken on node id.

    The fresh-request order: cost is ``C_t`` for the multi-criteria policy
    and ``E_t`` plus the link round-trip for the baseline. Node ids are
    unique, so fields after the id never decide the order.
    """
    return sorted(rows)


def migration_bound_ok(row: tuple[str, float, float, float], deadline: float) -> bool:
    """A ``(node id, C_t, A_s, M_t)`` row stays a migration target while ``C_t < deadline + M_t``."""
    return row[1] < deadline + row[3]


def migration_key(deadline: float) -> Callable[[tuple], tuple]:
    """The sort key of a ``(node id, C_t, A_s, M_t)`` row in migration order.

    Deadline-feasible nodes come first (highest availability score), then
    the rest by completion time; nodes outside even the migration bound
    sink to the back. ``A_s`` is read only for deadline-feasible rows.
    """
    return lambda r: (not migration_bound_ok(r, deadline), not r[1] < deadline,
                      -r[2] if r[1] < deadline else r[1], r[0])


def migration_order(rows: list[tuple[str, float, float, float]],
                    deadline: float) -> list[tuple[str, float, float, float]]:
    """``(node id, C_t, A_s, M_t)`` rows sorted by :func:`migration_key`.

    The first row is the target when it is in bound.
    """
    return sorted(rows, key=migration_key(deadline))


def mc_allocate(task: Task, candidates: list[FogNode]) -> list[FogNode] | None:
    """Rank candidate nodes for a fresh request; ``None`` when there are none.

    Nodes come back sorted ascending by completion time, ties broken on node
    id, so identical inputs yield identical rankings. Migrations are ranked
    by :func:`handle_deadline_change`.
    """
    if not candidates:
        return None
    by_id = {n.id: n for n in candidates}
    return [by_id[row[1]] for row in rank([(score_device(task, n).completion_time, n.id)
                                          for n in candidates])]


def reserve(states: list[ReservationState]) -> list[float]:
    """Each device's required reservation from its recent request history.

    ``Req_res = (R_v + L_AR) / T_AP``: the reserved value plus the last
    window's request, over the apps that window processed. A device that
    processed nothing requires no reservation.
    """
    required = []
    for state in states:
        if state.total_apps_processed > 0:
            required.append((state.reserved_value + state.last_app_request)
                            / state.total_apps_processed)
        else:
            required.append(0.0)
    return required


def handle_deadline_change(
    task: Task,
    candidates: list[FogNode],
    new_deadline: float,
    current: FogNode | None = None,
    migration_times: dict[str, float] | None = None,
) -> MigrationDecision:
    """Pick a migration target after the user tightened the deadline.

    If the current node still meets the new deadline, stay put. Otherwise
    rank candidates, keep those inside the migration bound, and take the
    deadline-feasible one with the highest availability score; when no node
    is deadline-feasible, the nearest in-bound node by completion time is
    taken. With nothing in bound the task stays where it is and the decision
    is flagged as a prospective violation. Whenever candidates were ranked,
    the engine refreshes their reservations (see :func:`reserve`).
    """
    if current is not None and score_device(task, current).completion_time < new_deadline:
        return MigrationDecision(None, (), (), False)
    others = [n for n in candidates if current is None or n.id != current.id]
    if not others:
        return MigrationDecision(None, (), (), True)
    rows = []
    for node in others:
        override = migration_times.get(node.id) if migration_times else None
        card = score_device(task, node, migration_override=override)
        rows.append((node.id, card.completion_time, card.availability_score,
                     card.migration_time))
    ordered = migration_order(rows, new_deadline)
    ranked = tuple(r[0] for r in ordered)
    in_bound = [r for r in ordered if migration_bound_ok(r, new_deadline)]
    feasible = tuple(r[0] for r in in_bound if r[1] < new_deadline)
    if not in_bound:
        return MigrationDecision(None, ranked, (), True)
    return MigrationDecision(in_bound[0][0], ranked, feasible, False)


def baseline_allocate(
    task: Task,
    candidates: list[FogNode],
    links: dict[str, NetworkLink] | None = None,
) -> list[FogNode]:
    """Greedy comparator: ascending raw execution time plus link round-trip.

    Deliberately blind to free resources, fluctuation, battery and distance.
    """
    def cost(node: FogNode) -> float:
        delay = link_delay(links[node.id]) if links and node.id in links else 0.0
        return execution_time(task, node) + delay

    by_id = {n.id: n for n in candidates}
    return [by_id[row[1]] for row in rank([(cost(n), n.id) for n in candidates])]
