"""Seeded discrete-event simulation of task execution on a fog fleet.

One root seed fans out into independent named streams (fleet, workload,
cloud mix, deadline changes, per-node fluctuation), so changing one knob
never perturbs the draws of another and runs with the same seed are
bit-identical.

Execution model: a device runs its fog tasks by equal sharing of its free
capacity; each share is scaled by the node's distance throughput and a
fixed per-device yield factor (its configured fluctuation score, so the
worked example's arithmetic holds: a factor above 1 speeds progress up).
Physical shares never exceed free capacity, so utilisation plus
allocation stays within the device budget at every event. The live
fluctuation history feeds the *scoring* factor only.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from .metrics import RequestRecord, RunTrace
from .model import Application, FogNode, NetworkLink, Task, Tier
from .network import link_bandwidth, link_delay, processing_delay
from .policies import baseline_allocate, handle_deadline_change, mc_allocate, reserve
from .scoring import cpu_fluctuation_rate, migration_time


@dataclass
class Scenario:
    """Everything one run needs: seed, fleet shape, workload and dynamics knobs."""

    seed: int = 1
    app_count: int = 70
    policy: str = "mc"  # "mc" | "baseline"
    reservation: bool = True
    label: str = ""

    # fleet
    clusters: int = 2
    devices_per_cluster: int = 20
    servers_per_cluster: int = 1
    device_mips: tuple[float, float] = (2000.0, 6000.0)
    server_mips: float = 10000.0
    device_bandwidth: float = 100000.0  # bits/s
    server_bandwidth: float = 1000000.0
    distance_range: tuple[float, float] = (5.0, 40.0)  # metres
    max_supported_distance: float = 45.0
    battery_range: tuple[float, float] = (20.0, 90.0)  # percent
    caf_range: tuple[float, float] = (0.5, 1.3)  # initial fluctuation score
    discharge_range: tuple[float, float] = (0.1, 0.5)  # %/min per app
    initial_utilisation: tuple[float, float] = (0.2, 0.7)

    # workload
    tasks_per_app: int = 10
    task_length: float = 3000.0  # MI
    subtask_length: float = 500.0
    data_bytes_range: tuple[int, int] = (5120, 10240)
    deadline_range: tuple[float, float] = (4.0, 12.0)
    min_deadline: float = 4.0
    submit_interval: float = 2.0  # seconds between app arrivals
    task_stagger: float = 0.15  # per-task offset inside one application
    cluster_block: int = 8  # consecutive apps homed to one cluster (demand waves)

    # dynamics
    utilisation_band: tuple[float, float] = (0.10, 0.40)  # absolute step, fraction of capacity
    fluctuation_interval: float = 1.0
    deadline_variation_pct: float = 20.0
    deadline_changes_per_task: int = 1
    reservation_period: float = 60.0
    reservation_cap_fraction: float = 0.4
    admission_optimism: float = 2.0  # accept placements projected within this x budget
    max_migrations_per_task: int = 2
    spike_threshold: float = 0.10  # available fraction that counts as a native-load spike
    min_remaining_deadline: float = 0.25  # floor after a tightening event

    # network / cloud constants
    frame_bits: float = 12000.0
    cloud_latency: float = 0.1  # seconds one way
    cloud_bandwidth: float = 1e6
    cloud_processing_rate: float = 1e6  # bits/s equivalent
    cloud_fraction: float = 0.1  # share of requests also stored in the cloud
    message_kb: float = 5.0  # internal message size
    min_available: float = 0.02
    history_window: int = 16

    # overrides for fixtures and tests
    explicit_fleet: list[dict] | None = None
    explicit_workload: list[dict] | None = None
    scripted_utilisation: tuple[tuple[float, str, float], ...] = ()
    max_sim_time: float = 1e6  # runaway guard; a healthy run never gets close


class SimTimeExceeded(RuntimeError):
    """The run passed ``Scenario.max_sim_time`` with tasks still unfinished."""


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def generate_workload(scenario: Scenario) -> list[Application]:
    """Seeded application list; same scenario, same workload, always."""
    if scenario.explicit_workload is not None:
        apps = []
        for spec in scenario.explicit_workload:
            tasks = [Task(id=t["id"], app_id=spec["id"], length=t["length"],
                          data_size=t["data_size"], deadline=t["deadline"],
                          submit_time=t.get("submit_time", 0.0))
                     for t in spec["tasks"]]
            apps.append(Application(id=spec["id"], tasks=tasks,
                                    user_id=spec.get("user_id", "")))
        return apps
    rng = _stream(scenario.seed, "workload")
    apps = []
    for i in range(scenario.app_count):
        submit = i * scenario.submit_interval + rng.uniform(0, scenario.submit_interval / 2)
        app_id = f"app{i:04d}"
        tasks = []
        for j in range(scenario.tasks_per_app):
            data_bits = rng.randint(*scenario.data_bytes_range) * 8
            deadline = rng.uniform(*scenario.deadline_range)
            tasks.append(Task(
                id=f"{app_id}.t{j:02d}",
                app_id=app_id,
                length=scenario.task_length,
                data_size=float(data_bits),
                deadline=max(deadline, scenario.min_deadline),
                submit_time=submit + j * scenario.task_stagger,
            ))
        apps.append(Application(id=app_id, tasks=tasks, user_id=f"user{i:04d}",
                                deadline_variation=scenario.deadline_variation_pct))
    return apps


# Keys an explicit fleet entry may carry: the node fields node_from_spec
# reads, plus the node's cluster and link bandwidth.
FLEET_SPEC_KEYS = frozenset((
    "id", "tier", "cpu_capacity", "free_resource_fraction", "native_utilisation",
    "battery_charge", "discharge_rates", "distance", "max_supported_distance",
    "caf_score", "cluster", "bandwidth",
))


def node_from_spec(spec: dict, scenario: Scenario) -> FogNode:
    """The node an explicit fleet entry describes; ``id`` and ``cpu_capacity`` are required."""
    return FogNode(
        id=spec["id"],
        tier=Tier(spec.get("tier", "fog_device")),
        cpu_capacity=spec["cpu_capacity"],
        free_resource_fraction=spec.get("free_resource_fraction", 1.0),
        native_utilisation=spec.get("native_utilisation", 0.0),
        battery_charge=spec.get("battery_charge", 80.0),
        discharge_rates=list(spec.get("discharge_rates", [0.2])),
        distance=spec.get("distance", 10.0),
        max_supported_distance=spec.get("max_supported_distance",
                                        scenario.max_supported_distance),
        caf_score=spec.get("caf_score", 1.0),
    )


def next_fluctuation(available: float, band: tuple[float, float], rng: random.Random,
                     floor: float = 0.02) -> float:
    """One fluctuation step: the available fraction moves by an absolute step.

    Steps are percentage points of capacity drawn from the band, with random
    sign, reflected at the floor and at 0.98. Point-sized steps on modest
    bases are what produce the large relative fluctuation rates the scoring
    model expects.
    """
    step = rng.uniform(*band)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return min(max(available + sign * step, floor), 0.98)


def fluctuation_events(node: FogNode, scenario: Scenario, rng: random.Random,
                       horizon: float) -> list[tuple[float, float]]:
    """Deterministic (time, available) trace for one node up to the horizon."""
    events = []
    available = 1.0 - node.native_utilisation
    t = scenario.fluctuation_interval
    while t <= horizon:
        available = next_fluctuation(available, scenario.utilisation_band, rng,
                                     scenario.min_available)
        events.append((t, available))
        t += scenario.fluctuation_interval
    return events


def deadline_change_events(app: Application, variation_pct: float,
                           rng: random.Random) -> list[tuple[float, str, float]]:
    """(time, task_id, factor) triples; one change per task, none at 0 percent."""
    if variation_pct <= 0:
        return []
    events = []
    for task in app.tasks:
        offset = rng.uniform(0.2, 0.6) * task.deadline
        swing = rng.uniform(0.0, variation_pct / 100.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        events.append((task.submit_time + offset, task.id, 1.0 + sign * swing))
    return events


@dataclass
class _TaskRt:
    task: Task
    cluster: int
    deadline_abs: float
    cloud_bound: bool
    node_id: str | None = None
    rate: float = 0.0
    progress: float = 0.0
    last_update: float = 0.0
    version: int = 0
    start_time: float | None = None
    active_time: float = 0.0
    uplink: float = 0.0
    migrations: int = 0
    migration_time_total: float = 0.0
    nodes_visited: list[str] = field(default_factory=list)
    flagged: bool = False
    no_target: bool = False  # last migration attempt found nowhere better
    done: bool = False


@dataclass
class _NodeRt:
    node: FogNode
    cluster: int
    link: NetworkLink
    t_bd: float
    base_drain: float
    available: float
    yield_factor: float = 1.0  # fixed fraction of free cycles usable for fog work
    running: dict[str, _TaskRt] = field(default_factory=dict)
    pending: int = 0  # placements/migrations already bound for this node
    window_count: int = 0
    window_last: float = 0.0


def _share_rate(nrt: _NodeRt, weight: float) -> float:
    """Progress rate (MI/s) of one share when free capacity is split ``weight`` ways.

    The physical share is scaled by the node's yield factor and distance
    throughput.
    """
    return nrt.node.cpu_capacity * nrt.available / weight * nrt.yield_factor * nrt.t_bd


class Simulation:
    """Single-threaded deterministic event loop over one scenario."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []  # (time, seq, kind, key, payload)
        self.nodes: dict[str, _NodeRt] = {}
        self.device_ids: list[str] = []
        self.tasks: dict[str, _TaskRt] = {}
        self.trace = RunTrace(policy=scenario.policy, reservation=scenario.reservation,
                              seed=scenario.seed)
        self.remaining = 0
        self.max_load_ratio = 0.0
        self._fluct_rng: dict[str, random.Random] = {}
        self._build_fleet()

    # -- fleet -----------------------------------------------------------

    def _build_fleet(self) -> None:
        sc = self.sc
        if sc.explicit_fleet is not None:
            for spec in sc.explicit_fleet:
                self._register(node_from_spec(spec, sc), spec.get("cluster", 0),
                               spec.get("bandwidth", sc.device_bandwidth))
            return
        rng = _stream(sc.seed, "fleet")
        for c in range(sc.clusters):
            for d in range(sc.devices_per_cluster):
                u0 = rng.uniform(*sc.initial_utilisation)
                node = FogNode(
                    id=f"c{c}d{d:02d}",
                    tier=Tier.FOG_DEVICE,
                    cpu_capacity=rng.uniform(*sc.device_mips),
                    free_resource_fraction=1.0 - u0,
                    native_utilisation=u0,
                    battery_charge=rng.uniform(*sc.battery_range),
                    discharge_rates=[round(rng.uniform(*sc.discharge_range), 3)],
                    distance=rng.uniform(*sc.distance_range),
                    max_supported_distance=sc.max_supported_distance,
                    caf_score=rng.uniform(*sc.caf_range),
                )
                self._register(node, c, sc.device_bandwidth)
            for s in range(sc.servers_per_cluster):
                node = FogNode(
                    id=f"c{c}s{s}",
                    tier=Tier.FOG_SERVER,
                    cpu_capacity=sc.server_mips,
                    free_resource_fraction=1.0,
                    native_utilisation=0.0,
                    battery_charge=100.0,
                    discharge_rates=[],
                    distance=rng.uniform(*sc.distance_range),
                    max_supported_distance=sc.max_supported_distance,
                    caf_score=1.0,
                )
                self._register(node, c, sc.server_bandwidth)

    def _register(self, node: FogNode, cluster: int, bandwidth: float) -> None:
        sc = self.sc
        t_bd = max(1.0 - node.distance / node.max_supported_distance, 0.05)
        per_frame = processing_delay(sc.frame_bits, bandwidth)
        link = NetworkLink(
            endpoint_bandwidths=(bandwidth, bandwidth),
            capacity=bandwidth,
            medium_throughput=t_bd,
            propagation_delay=node.distance / 1000.0 * 5e-6,
            processing_delay=per_frame,
            transmission_delay=per_frame,
            frame_length=sc.frame_bits,
            transmission_rate=bandwidth,
        )
        drain = sum(node.discharge_rates) or 0.2
        rt = _NodeRt(node=node, cluster=cluster, link=link, t_bd=t_bd,
                     base_drain=drain, available=1.0 - node.native_utilisation,
                     yield_factor=node.caf_score)
        self.nodes[node.id] = rt
        if node.tier is Tier.FOG_DEVICE:
            self.device_ids.append(node.id)
            self._fluct_rng[node.id] = _stream(sc.seed, f"fluct:{node.id}")

    # -- event plumbing ---------------------------------------------------

    def _push(self, time: float, kind: str, key: str = "", payload: tuple = ()) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, key, payload))

    # -- execution model --------------------------------------------------

    def _progress(self, trt: _TaskRt) -> None:
        if trt.node_id is not None and trt.rate > 0:
            dt = self.now - trt.last_update
            trt.progress += trt.rate * dt
            trt.active_time += dt
        trt.last_update = self.now

    def _replan(self, nrt: _NodeRt) -> None:
        """Recompute shares for every task on a node and reschedule completions.

        Free capacity is split equally, except that with reservation active
        peer-cluster tasks are down-weighted by the unreserved fraction:
        the held-back capacity flows to the node's own cluster. The split
        stays work-conserving, so total allocation never exceeds free
        capacity.
        """
        n = len(nrt.running)
        if n == 0:
            return
        fog_free = nrt.node.cpu_capacity * nrt.available
        peer_weight = 1.0
        if self.sc.reservation and fog_free > 0:
            reserved = min(nrt.node.reservation.reserved_value, fog_free)
            peer_weight = max((fog_free - reserved) / fog_free, 0.5)
        n_own = sum(1 for t in nrt.running.values() if t.cluster == nrt.cluster)
        n_peer = n - n_own
        weight_sum = n_own + peer_weight * n_peer
        if n_peer == 0 or n_own == 0:
            weight_sum = float(n)  # single-class nodes share evenly
        allocated = fog_free / weight_sum * weight_sum  # capacity handed out over all shares
        load = nrt.node.cpu_capacity * (1.0 - nrt.available) + allocated
        self.max_load_ratio = max(self.max_load_ratio, load / nrt.node.cpu_capacity)
        base_rate = _share_rate(nrt, weight_sum)
        for trt in nrt.running.values():
            self._progress(trt)
            if n_own and n_peer and trt.cluster != nrt.cluster:
                rate = base_rate * peer_weight
            else:
                rate = base_rate
            remaining_now = trt.task.length - trt.progress
            if trt.rate > 0 and remaining_now > 0:
                was_on_time = self.now + remaining_now / trt.rate <= trt.deadline_abs
                now_late = self.now + remaining_now / rate > trt.deadline_abs
                if was_on_time and now_late:
                    trt.no_target = False  # slowdown crossed the deadline boundary
            trt.rate = rate
            trt.version += 1
            remaining = trt.task.length - trt.progress
            if remaining <= 1e-9:
                self._push(self.now, "done", trt.task.id, (trt.version,))
            else:
                self._push(self.now + remaining / rate, "done", trt.task.id, (trt.version,))

    def _projected_completion(self, trt: _TaskRt) -> float:
        if trt.node_id is None or trt.rate <= 0:
            return math.inf
        remaining = trt.task.length - trt.progress
        return self.now + max(remaining, 0.0) / trt.rate

    # -- scoring snapshots --------------------------------------------------

    def _prep_snapshot(self, nrt: _NodeRt, extra_tasks: int = 1,
                       requester_cluster: int | None = None) -> None:
        node = nrt.node
        n_next = len(nrt.running) + nrt.pending + extra_tasks
        node.native_utilisation = min(1.0 - nrt.available, 1.0)
        avail = nrt.available
        if (requester_cluster is not None and requester_cluster != nrt.cluster
                and self.sc.reservation):
            # reserved capacity is not advertised to peer clusters
            avail = max(avail - node.reservation.reserved_value / node.cpu_capacity, 0.0)
        node.free_resource_fraction = max(min(avail / max(n_next, 1), 1.0), 1e-6)
        if node.tier is Tier.FOG_DEVICE:
            node.discharge_rates = [nrt.base_drain] * max(n_next, 1)

    def _candidates(self, exclude: str | None = None,
                    requester_cluster: int | None = None) -> list[FogNode]:
        out = []
        for nid in self.device_ids:
            if nid == exclude:
                continue
            nrt = self.nodes[nid]
            self._prep_snapshot(nrt, requester_cluster=requester_cluster)
            out.append(nrt.node)
        return out

    def _links(self) -> dict[str, NetworkLink]:
        return {nid: self.nodes[nid].link for nid in self.device_ids}

    def _uplink_time(self, nrt: _NodeRt, data_bits: float, sharing: int | None = None) -> float:
        # transfers contend with other in-flight transfers, not with executing tasks
        if sharing is None:
            sharing = nrt.pending + 1
        eff = link_bandwidth(nrt.link) * nrt.t_bd / max(sharing, 1)
        return data_bits / eff + link_delay(nrt.link) / 2.0

    # -- admission ----------------------------------------------------------

    def _admits(self, nrt: _NodeRt, trt: _TaskRt, peer: bool, transfer: float,
                time_check: bool = True) -> bool:
        budget = trt.deadline_abs - self.now
        if budget <= 0:
            return False
        rate = _share_rate(nrt, len(nrt.running) + nrt.pending + 1)
        if rate <= 0:
            return False
        remaining = trt.task.length - trt.progress
        if time_check and transfer + remaining / rate > budget * self.sc.admission_optimism:
            return False
        if peer and self.sc.reservation and time_check:
            usable = nrt.node.cpu_capacity * nrt.available - nrt.node.reservation.reserved_value
            need_physical = remaining / max(budget - transfer, 1e-9)
            need_physical /= (nrt.yield_factor * nrt.t_bd)
            if usable < need_physical:
                return False
        return True

    # -- allocation -----------------------------------------------------------

    def _rank(self, trt: _TaskRt, candidates: list[FogNode]) -> list[FogNode]:
        if self.sc.policy == "baseline":
            return baseline_allocate(trt.task, candidates, links=self._links())
        return mc_allocate(trt.task, candidates) or []

    def _place_fresh(self, trt: _TaskRt) -> None:
        candidates = self._candidates(requester_cluster=trt.cluster)
        order = self._rank(trt, candidates)
        chosen = None
        for node in order:
            nrt = self.nodes[node.id]
            transfer = self._uplink_time(nrt, trt.task.data_size)
            if self._admits(nrt, trt, peer=nrt.cluster != trt.cluster, transfer=transfer):
                chosen = nrt
                break
        if chosen is None:  # nothing meets the deadline: spread the overload at home
            own = [n for n in order if self.nodes[n.id].cluster == trt.cluster]
            pool = own or order
            chosen = min((self.nodes[n.id] for n in pool),
                         key=lambda nrt: (len(nrt.running) + nrt.pending, nrt.node.id))
        uplink = self._uplink_time(chosen, trt.task.data_size)
        trt.uplink = uplink
        chosen.pending += 1
        self._push(self.now + uplink, "arrive", trt.task.id, (chosen.node.id,))

    def _attempt_migration(self, trt: _TaskRt) -> None:
        if trt.migrations >= self.sc.max_migrations_per_task or trt.done:
            return
        if trt.node_id is None:  # already in transit
            return
        current = self.nodes[trt.node_id]
        self._progress(trt)
        trt.task.completed_work = min(trt.progress, trt.task.length)
        budget = trt.deadline_abs - self.now
        candidates = self._candidates(exclude=trt.node_id, requester_cluster=trt.cluster)
        if not candidates or budget <= 0:
            trt.flagged = True
            trt.no_target = True
            return
        migration_times = {n.id: migration_time(trt.task, self.nodes[n.id].link)
                           for n in candidates}
        target_id = None
        if self.sc.policy == "baseline":
            self._prep_snapshot(current, extra_tasks=0)
            for node in baseline_allocate(trt.task, candidates, links=self._links()):
                nrt = self.nodes[node.id]
                if self._admits(nrt, trt, peer=nrt.cluster != trt.cluster,
                                transfer=migration_times[node.id], time_check=False):
                    target_id = node.id
                    break
        else:
            self._prep_snapshot(current, extra_tasks=0)
            util = {n.id: self.nodes[n.id].node.native_utilisation for n in candidates}
            decision = handle_deadline_change(
                trt.task, candidates, budget, current=current.node,
                migration_times=migration_times, current_util=util,
            )
            self._cap_reservations()
            if decision.target_id is None:
                trt.flagged = trt.flagged or decision.violation_flagged
                trt.no_target = True
                return
            for nid in (decision.target_id, *decision.feasible):
                nrt = self.nodes[nid]
                if self._admits(nrt, trt, peer=nrt.cluster != trt.cluster,
                                transfer=migration_times[nid], time_check=False):
                    target_id = nid
                    break
        if target_id is None:
            trt.flagged = True
            trt.no_target = True
            return
        # moving must actually beat staying, transfer included
        target = self.nodes[target_id]
        remaining = trt.task.length - trt.progress
        prospective = _share_rate(target, len(target.running) + target.pending + 1)
        move_total = migration_times[target_id] + remaining / max(prospective, 1e-9)
        stay = self._projected_completion(trt) - self.now
        if move_total >= stay:
            trt.no_target = True
            return
        move_time = migration_times[target_id]
        target.pending += 1
        del current.running[trt.task.id]
        trt.node_id = None
        trt.rate = 0.0
        trt.version += 1
        trt.migrations += 1
        trt.migration_time_total += move_time
        self._replan(current)
        self._push(self.now + move_time, "migrate", trt.task.id, (target_id,))

    # -- reservation ----------------------------------------------------------

    def _rotate_reservation(self) -> None:
        devices = []
        util: dict[str, float] = {}
        for nid in self.device_ids:
            nrt = self.nodes[nid]
            if nrt.window_count > 0:  # quiet windows keep the last known demand
                nrt.node.reservation.total_apps_processed = nrt.window_count
                nrt.node.reservation.last_app_request = nrt.window_last
                nrt.window_count = 0
                nrt.window_last = 0.0
            devices.append(nrt.node)
            util[nid] = nrt.node.native_utilisation
        reserve(devices, util)
        self._cap_reservations()

    def _cap_reservations(self) -> None:
        cap = self.sc.reservation_cap_fraction
        for nid in self.device_ids:
            node = self.nodes[nid].node
            node.reservation.reserved_value = min(
                node.reservation.reserved_value, cap * node.cpu_capacity)

    # -- completion accounting --------------------------------------------------

    def _finish(self, trt: _TaskRt) -> None:
        sc = self.sc
        task = trt.task
        trt.done = True
        trt.task.completed_work = task.length
        self.remaining -= 1
        node = self.nodes[trt.node_id]
        del node.running[task.id]
        node.window_count += 1
        node.window_last = task.length
        self._replan(node)

        n_sub = max(int(math.ceil(task.length / sc.subtask_length)), 1)
        data_kb = task.data_size / 8.0 / 1024.0
        server_bw = sc.server_bandwidth
        fog_leg = sc.message_kb * 8192.0 / server_bw + sc.frame_bits / server_bw
        server_proc = sc.frame_bits / server_bw

        tc = self.trace.counters
        tc.user_packets += 1
        tc.t_user += trt.uplink
        delay = trt.uplink
        cloud_legs = 0.0
        if trt.cloud_bound:
            cloud_fwd = task.data_size / sc.cloud_bandwidth + sc.cloud_latency
            tc.cloud_packets += 1
            tc.t_cloud += cloud_fwd
            tc.cloud_response_packets += 1
            tc.t_cloud_response += cloud_fwd
            delay += cloud_fwd + 2.0 * cloud_fwd  # forward + twice-counted response
            cloud_legs += 3.0 * cloud_fwd
        else:
            tc.fog_response_packets += 1
            tc.t_fog_response += trt.uplink
            delay += trt.uplink

        internal = n_sub * fog_leg * 2.0 + trt.migration_time_total
        tc.fog_internal += n_sub + trt.migrations
        tc.fog_internal_responses += n_sub
        tc.t_fog_internal += n_sub * fog_leg + trt.migration_time_total
        tc.t_fog_internal_response += n_sub * fog_leg
        cloud_proc = 0.0
        if trt.cloud_bound:
            cloud_internal_leg = sc.message_kb * 8192.0 / sc.cloud_bandwidth + sc.cloud_latency
            tc.cloud_internal += 1
            tc.cloud_internal_responses += 1
            tc.t_cloud_internal += cloud_internal_leg
            tc.t_cloud_internal_response += cloud_internal_leg
            internal += 2.0 * cloud_internal_leg
            cloud_legs += 2.0 * cloud_internal_leg
            cloud_proc = task.data_size / sc.cloud_processing_rate
            tc.t_proc_cloud += cloud_proc
            cloud_legs += cloud_proc

        tc.t_proc_device += trt.active_time
        tc.t_proc_server += n_sub * server_proc
        processing = trt.active_time + n_sub * server_proc + cloud_proc

        ledger = self.trace.ledger
        nominal_minutes = task.length / 1000.0 / 60.0
        ledger.device_connect_minutes.append(nominal_minutes)
        ledger.server_connect_minutes.append(nominal_minutes / 2.0)
        ledger.device_messages_kb.extend([data_kb, data_kb])
        ledger.device_processing_kb.extend([sc.message_kb] * n_sub)
        ledger.server_messages_kb.extend([sc.message_kb] * n_sub)
        if trt.cloud_bound:
            ledger.cloud_connect_minutes.append(2.0 * sc.cloud_latency / 60.0)
            ledger.cloud_messages_kb.append(data_kb)

        completion_abs = self.now
        violated = completion_abs > trt.deadline_abs
        self.trace.records.append(RequestRecord(
            task_id=task.id,
            app_id=task.app_id,
            submit_time=task.submit_time,
            completion_time=completion_abs,
            deadline=trt.deadline_abs,
            delay=delay,
            internal_delay=internal,
            processing_time=processing,
            cloud_legs_time=cloud_legs,
            packets=1,
            violated=violated,
            excess=max(completion_abs - trt.deadline_abs, 0.0),
            migrations=trt.migrations,
        ))

    # -- event handlers --------------------------------------------------------

    def _on_app(self, app: Application) -> None:
        cloud_rng = _stream(self.sc.seed, f"cloudmix:{app.id}")
        present = sorted({self.nodes[nid].cluster for nid in self.device_ids})
        home = present[hash_cluster(app.user_id, len(present), self.sc.cluster_block)]
        for task in app.tasks:
            trt = _TaskRt(
                task=task,
                cluster=home,
                deadline_abs=task.submit_time + task.deadline,
                cloud_bound=cloud_rng.random() < self.sc.cloud_fraction,
                last_update=self.now,
            )
            self.tasks[task.id] = trt
            if task.submit_time <= self.now:
                self._place_fresh(trt)
            else:
                self._push(task.submit_time, "place", task.id)

    def _on_arrive(self, trt: _TaskRt, node_id: str) -> None:
        nrt = self.nodes[node_id]
        nrt.pending = max(nrt.pending - 1, 0)
        trt.node_id = node_id
        trt.nodes_visited.append(node_id)
        trt.last_update = self.now
        if trt.start_time is None:
            trt.start_time = self.now
        nrt.running[trt.task.id] = trt
        self._replan(nrt)

    def _on_fluct(self, node_id: str) -> None:
        nrt = self.nodes[node_id]
        rng = self._fluct_rng[node_id]
        nrt.available = next_fluctuation(nrt.available, self.sc.utilisation_band, rng,
                                         self.sc.min_available)
        node = nrt.node
        node.native_utilisation = 1.0 - nrt.available
        node.fluctuation_history.append(nrt.available * 100.0)
        if len(node.fluctuation_history) > self.sc.history_window:
            del node.fluctuation_history[0]
        if len(node.fluctuation_history) >= 2:
            rate = cpu_fluctuation_rate(node.fluctuation_history)
            if rate > 0:  # a flat history keeps the configured score
                lo, hi = self.sc.caf_range
                node.caf_score = min(max(rate / 100.0, lo), hi)
        self._replan(nrt)
        choked = nrt.available < self.sc.spike_threshold
        for tid in sorted(nrt.running):
            trt = nrt.running[tid]
            if choked:
                trt.no_target = False  # a choke reopens the search
            if not trt.no_target and self._projected_completion(trt) > trt.deadline_abs:
                self._attempt_migration(trt)
        if self.remaining > 0:
            self._push(self.now + self.sc.fluctuation_interval, "fluct", node_id)

    def _on_deadline(self, trt: _TaskRt, factor: float) -> None:
        if trt.done:
            return
        remaining = trt.deadline_abs - self.now
        if remaining <= 0:
            return
        new_remaining = max(remaining * factor, self.sc.min_remaining_deadline)
        trt.deadline_abs = self.now + new_remaining
        trt.no_target = False  # changed terms reopen the search
        if factor < 1.0 and self._projected_completion(trt) > trt.deadline_abs:
            self._attempt_migration(trt)

    def _on_script(self, node_id: str, available: float) -> None:
        nrt = self.nodes[node_id]
        nrt.available = max(min(available, 0.98), 0.001)
        nrt.node.native_utilisation = 1.0 - nrt.available
        self._replan(nrt)
        for tid in sorted(nrt.running):
            trt = nrt.running[tid]
            if self._projected_completion(trt) > trt.deadline_abs:
                self._attempt_migration(trt)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> RunTrace:
        sc = self.sc
        apps = generate_workload(sc)
        self.remaining = sum(len(a.tasks) for a in apps)
        self._apps = {a.id: a for a in apps}
        for app in apps:
            submit = min((t.submit_time for t in app.tasks), default=0.0)
            self._push(submit, "app", app.id)
        deadline_rng = _stream(sc.seed, "deadline")
        for app in apps:
            changes = deadline_change_events(app, sc.deadline_variation_pct, deadline_rng)
            for i in range(1, sc.deadline_changes_per_task):
                changes += deadline_change_events(app, sc.deadline_variation_pct, deadline_rng)
            for when, task_id, factor in changes:
                self._push(when, "deadline", task_id, (factor,))
        for when, node_id, available in sc.scripted_utilisation:
            self._push(when, "script", node_id, (available,))
        if self.remaining > 0:
            for nid in self.device_ids:
                self._push(sc.fluctuation_interval, "fluct", nid)
            if sc.reservation:
                self._push(sc.reservation_period, "rotate")

        while self._heap:
            when, _seq, kind, key, payload = heapq.heappop(self._heap)
            self.now = when
            if when > sc.max_sim_time:
                raise SimTimeExceeded(
                    f"simulation exceeded max_sim_time={sc.max_sim_time}; "
                    f"{self.remaining} tasks unfinished (fleet overloaded?)")
            if kind == "done":
                trt = self.tasks.get(key)
                if trt is None or trt.done or payload[0] != trt.version:
                    continue
                self._progress(trt)
                if trt.progress < trt.task.length - 1e-6 * max(trt.task.length, 1.0):
                    continue  # stale completion after replanning
                self._finish(trt)
            elif kind == "app":
                self._on_app(self._apps[key])
            elif kind == "place":
                self._place_fresh(self.tasks[key])
            elif kind == "arrive":
                self._on_arrive(self.tasks[key], payload[0])
            elif kind == "fluct":
                self._on_fluct(key)
            elif kind == "deadline":
                trt = self.tasks.get(key)
                if trt is not None:
                    self._on_deadline(trt, payload[0])
            elif kind == "migrate":
                self._on_arrive(self.tasks[key], payload[0])
            elif kind == "rotate":
                self._rotate_reservation()
                if self.remaining > 0:
                    self._push(self.now + sc.reservation_period, "rotate")
            elif kind == "script":
                self._on_script(key, payload[0])
        self.trace.records.sort(key=lambda r: (r.completion_time, r.task_id))
        return self.trace


def hash_cluster(user_id: str, clusters: int, block: int = 1) -> int:
    """Stable user-to-cluster assignment (independent of interpreter hashing).

    Users with numeric ids are grouped in blocks of ``block`` consecutive
    ids per cluster, so each cluster's demand arrives in waves rather than
    as a uniform trickle.
    """
    if clusters <= 1:
        return 0
    tail = "".join(ch for ch in user_id if ch.isdigit())
    ordinal = int(tail) if tail else sum(ord(ch) for ch in user_id)
    return (ordinal // max(block, 1)) % clusters


def run(scenario: Scenario) -> RunTrace:
    """Execute one scenario end to end and return its trace."""
    return Simulation(scenario).run()
