"""Domain types shared by the whole simulator.

Everything here is a plain value type. Nodes and tasks are mutated only by
the single-threaded simulation engine; the scoring, pricing and metrics
modules treat them as read-only snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Tier(str, Enum):
    """Where a compute node sits in the hierarchy."""

    FOG_DEVICE = "fog_device"
    FOG_SERVER = "fog_server"
    CLOUD = "cloud"


@dataclass
class ReservationState:
    """History-based reservation bookkeeping for one node.

    ``reserved_value`` is the capacity (MIPS) currently held back for the
    node's own cluster.  ``last_app_request`` and ``total_apps_processed``
    describe the most recent rotation window and feed the next update.
    """

    reserved_value: float = 0.0
    last_app_request: float = 0.0
    total_apps_processed: int = 0
    required_reservation: float = 0.0


@dataclass
class FogNode:
    """A compute node: fog device, fog server, or cloud endpoint.

    ``free_resource_fraction`` and ``caf_score`` are scoring inputs kept up
    to date by the engine; ``fluctuation_history`` holds per-interval
    available-CPU percentages from which the fluctuation score is derived.
    """

    id: str
    tier: Tier = Tier.FOG_DEVICE
    cpu_capacity: float = 1000.0  # MIPS
    free_resource_fraction: float = 1.0
    native_utilisation: float = 0.0
    battery_charge: float = 100.0  # percent
    discharge_rates: list[float] = field(default_factory=list)  # %/min, one per running app
    distance: float = 0.0  # metres from the access point
    max_supported_distance: float = 100.0
    fluctuation_history: list[float] = field(default_factory=list)
    caf_score: float = 1.0
    reservation: ReservationState = field(default_factory=ReservationState)


def validate(node: FogNode) -> list[str]:
    """Check every node invariant; return the list of violations (empty = ok).

    Total function: never raises, reports all problems at once.
    """
    problems = []
    if node.cpu_capacity <= 0:
        problems.append("cpu_capacity must be > 0")
    if not 0.0 <= node.free_resource_fraction <= 1.0:
        if node.free_resource_fraction > 1.0:
            problems.append("free_resource_fraction > 1")
        else:
            problems.append("free_resource_fraction < 0")
    if not 0.0 <= node.native_utilisation <= 1.0:
        problems.append("native_utilisation outside [0, 1]")
    if not 0.0 <= node.battery_charge <= 100.0:
        problems.append("battery_charge outside [0, 100]")
    for rate in node.discharge_rates:
        if rate <= 0:
            problems.append("discharge rate must be > 0 when listed")
            break
    if node.max_supported_distance <= 0:
        problems.append("max_supported_distance must be > 0")
    if node.distance < 0:
        problems.append("distance must be >= 0")
    elif node.distance > node.max_supported_distance:
        problems.append("distance exceeds max supported distance")
    if node.caf_score <= 0:
        problems.append("caf_score must be > 0")
    return problems


@dataclass
class Task:
    """A unit of work: ``length`` MIPS-seconds of compute with a relative deadline."""

    id: str
    app_id: str
    length: float  # MI
    data_size: float  # bits
    deadline: float  # seconds, relative to submission
    submit_time: float = 0.0
    completed_work: float = 0.0

    @property
    def remaining_work(self) -> float:
        return self.length - self.completed_work


@dataclass
class Application:
    id: str
    tasks: list[Task]
    user_id: str = ""
    deadline_variation: float = 0.0  # percent


@dataclass
class NetworkLink:
    """One hop between two endpoints with its delay decomposition."""

    endpoint_bandwidths: tuple[float, float] = (1e6, 1e6)  # bits/s at each end
    capacity: float = 1e6  # bits/s
    sharing_users: int = 1
    medium_throughput: float = 1.0  # usable fraction of the raw rate
    queuing_delay: float = 0.0  # seconds
    transmission_delay: float = 0.0
    propagation_delay: float = 0.0
    processing_delay: float = 0.0
    frame_length: float = 12000.0  # bits
    transmission_rate: float = 1e6  # bits/s


@dataclass
class NetworkPath:
    """An ordered sequence of links; the bottleneck link bounds the path."""

    links: list[NetworkLink]


@dataclass(frozen=True)
class ScoreCard:
    """Derived per-(task, node) quantities used by the allocation policy."""

    node_id: str
    execution_time: float
    migration_time: float
    response_time: float
    availability: float  # minutes of battery-backed uptime
    throughput_by_distance: float
    completion_time: float
    availability_score: float


@dataclass
class PriceBook:
    """Unit prices (dollars per million billing units) and tier divisors.

    Fog servers are billed at 1/``server_divisor`` of the cloud rate and fog
    devices at 1/``device_divisor``.  ``data_unit`` is the KB granularity of
    one chargeable message or processing request.
    """

    connectivity_unit: float = 0.08
    messaging_unit: float = 1.00
    processing_unit: float = 0.15
    data_unit: float = 5.0  # KB per chargeable unit
    server_divisor: float = 2.0
    device_divisor: float = 3.0


@dataclass
class UsageLedger:
    """Raw usage counters per tier, in the units the pricing formulas expect.

    Connectivity is minutes, messaging/processing entries are per-request
    sizes in KB.
    """

    cloud_connect_minutes: list[float] = field(default_factory=list)
    server_connect_minutes: list[float] = field(default_factory=list)
    device_connect_minutes: list[float] = field(default_factory=list)
    cloud_messages_kb: list[float] = field(default_factory=list)
    server_messages_kb: list[float] = field(default_factory=list)
    device_messages_kb: list[float] = field(default_factory=list)
    cloud_processing_kb: list[float] = field(default_factory=list)
    server_processing_kb: list[float] = field(default_factory=list)
    device_processing_kb: list[float] = field(default_factory=list)

    def combine(self, other: "UsageLedger") -> "UsageLedger":
        """Union of two disjoint ledgers (costs must be additive over this)."""
        merged = UsageLedger()
        for name in self.__dataclass_fields__:
            getattr(merged, name).extend(getattr(self, name))
            getattr(merged, name).extend(getattr(other, name))
        return merged


@dataclass
class TrafficCounters:
    """Packet and timing tallies for one run, split by leg.

    Forward and response legs are tracked independently; by default the
    simulator mirrors responses onto forwards, but nothing here assumes it.
    """

    user_packets: int = 0  # requests sent by users
    cloud_packets: int = 0  # of those, forwarded to the cloud
    cloud_response_packets: int = 0
    fog_response_packets: int = 0  # responses served without the cloud
    fog_internal: int = 0  # fog-side internal communications
    cloud_internal: int = 0
    fog_internal_responses: int = 0
    cloud_internal_responses: int = 0
    t_user: float = 0.0  # time on the user->fog leg
    t_cloud: float = 0.0
    t_cloud_response: float = 0.0
    t_fog_response: float = 0.0
    t_fog_internal: float = 0.0
    t_fog_internal_response: float = 0.0
    t_cloud_internal: float = 0.0
    t_cloud_internal_response: float = 0.0
    t_proc_device: float = 0.0
    t_proc_server: float = 0.0
    t_proc_cloud: float = 0.0


@dataclass
class SlaTerms:
    """Linear penalty: ``base_penalty + penalty_rate * delay_time`` per violation."""

    base_penalty: float = 0.1  # dollars
    penalty_rate: float = 0.05  # dollars per second late
    delay_time: float = 0.0  # seconds past the agreed deadline


@dataclass
class MetricsReport:
    """Headline metrics for one scenario run."""

    policy: str = ""
    reservation: bool = False
    seed: int = 0
    requests: int = 0
    avg_delay: float = 0.0
    total_delay: float = 0.0
    max_delay: float = 0.0
    min_delay: float = 0.0
    avg_processing: float = 0.0
    total_processing: float = 0.0
    avg_internal_delay: float = 0.0
    total_internal_delay: float = 0.0
    ctu_avg: float = 0.0
    cta_by_app: dict[str, float] = field(default_factory=dict)
    cta_avg: float = 0.0
    tc_per_request: list[float] = field(default_factory=list)
    tc: float = 0.0
    usage_cost: float = 0.0  # ledger-priced application cost
    sla_violation_pct: float = 0.0
    penalty_cost: float = 0.0
    migrations: int = 0
    empty: bool = False  # true when averages had no denominator
