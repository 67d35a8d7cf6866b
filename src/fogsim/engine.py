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
fluctuation score feeds the *scoring* factor only; it lives with the rest
of a node's live state in the engine's node record. A task's work done
lives in its running task record, and the work left, clamped at 0, is read
from there. When the task finishes, its ``RequestRecord``, which carries the
work done, replaces the running record in ``Simulation.tasks``, and the
``Task`` goes with the running one, so a finished task is held once. A
simulation runs once, writing neither a ``FogNode`` nor a ``Task``.

The inputs that no decision reads are drawn apart from the run, in a
``Draws``: the apps, their deadline changes, their tasks' cloud flags and
each device's load path, its load and ``caf`` after every tick. Runs
that share a ``Draws`` (the cells of one sweep seed, the cells of
``fogsim run``) draw each input once; a run given none draws its own, and
a finished run lets go of it. A device named in ``scripted_utilisation``
keeps a path of its own run, as a script rewrites it. Deadline changes
ride in their app's ``app`` event.

Rankings score candidates from the engine's own node state, every
candidate in one pass. A multi-criteria fresh ranking keeps each home
cluster's rows for the same remaining work, with the inputs each row was
scored from, rescores only the devices whose inputs differ now and
re-ranks with ``rank``; no writer of a row input knows of the kept order.
A baseline migration search stops early on the smallest round trip, fixed
with the fleet; an mc one takes its target as the minimum row by
``migration_key``, without sorting.
Each node keeps at most one pending completion event, for its earliest
finisher when that falls by the next tick, and one tick event per
fluctuation interval steps every busy device in fleet order.
An idle device jumps to its path's entry for the ticks started when a
decision next reads its load; each device draws from its own stream, so a
late step is the step the tick would have drawn.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from dataclasses import dataclass, field
from operator import attrgetter

from .metrics import RequestRecord, RunTrace, account
from .model import Application, FogNode, NetworkLink, ReservationState, Task, Tier, fold_sum
from .network import link_bandwidth, link_delay, processing_delay
from .policies import migration_bound_ok, migration_key, rank, reserve
from .scoring import (availability_score, battery_minutes, checked_capacity, completion_time,
                      execution_seconds, fluctuation_step, throughput_by_distance)
# re-exported: perfbench's smoke test reads it from this module
from .scoring import cpu_fluctuation_rate  # noqa: F401

TASK_STAGGER = 0.15  # seconds between the submissions of one application's tasks
SPIKE_THRESHOLD = 0.10  # available fraction below which a native-load spike reopens migration
MIN_REMAINING_DEADLINE = 0.25  # seconds; floor on the remaining deadline after a tightening


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
    submit_interval: float = 2.0  # seconds between app arrivals
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

    # network / cloud constants
    frame_bits: float = 12000.0
    cloud_bandwidth: float = 1e6
    cloud_processing_rate: float = 1e6  # bits/s equivalent
    cloud_fraction: float = 0.1  # share of requests also stored in the cloud
    min_available: float = 0.02
    history_window: int = 16

    # overrides for fixtures and tests
    explicit_fleet: list[dict] | None = None
    explicit_workload: list[dict] | None = None
    scripted_utilisation: tuple[tuple[float, str, float], ...] = ()
    max_sim_time: float = 1e6  # runaway guard; a healthy run never gets close


class SimTimeExceeded(RuntimeError):
    """The run passed ``Scenario.max_sim_time`` with tasks still unfinished."""


def stalled_period(sc: Scenario) -> str | None:
    """Why a periodic event could not move the clock at ``max_sim_time``, or None.

    Such a tick or rotation would reschedule itself at the same time for ever,
    so the runaway guard could never fire.
    """
    for name in ("fluctuation_interval", "reservation_period"):
        period = getattr(sc, name)
        if sc.max_sim_time + period == sc.max_sim_time:
            return (f"{name}: {period} is too small to move the clock at "
                    f"max_sim_time={sc.max_sim_time}")
    return None


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


# Keys an explicit workload entry may carry: per application, and per task
# (the fields task_from_spec reads).
APP_SPEC_KEYS = frozenset(("id", "user_id", "tasks"))
TASK_SPEC_KEYS = frozenset(("id", "length", "data_size", "deadline", "submit_time"))


def task_from_spec(spec: dict, app_id: str) -> Task:
    """The task an explicit workload entry describes; only ``submit_time`` is optional."""
    return Task(id=spec["id"], app_id=app_id, length=spec["length"],
                data_size=spec["data_size"], deadline=spec["deadline"],
                submit_time=spec.get("submit_time", 0.0))


def generate_workload(scenario: Scenario) -> list[Application]:
    """Seeded application list; same scenario, same workload, always."""
    if scenario.explicit_workload is not None:
        return [Application(id=spec["id"],
                            tasks=[task_from_spec(t, spec["id"]) for t in spec["tasks"]],
                            user_id=spec.get("user_id", ""))
                for spec in scenario.explicit_workload]
    rng = _stream(scenario.seed, "workload")
    apps = []
    for i in range(scenario.app_count):
        submit = i * scenario.submit_interval + rng.uniform(0, scenario.submit_interval / 2)
        app_id = f"app{i:04d}"
        tasks = []
        for j in range(scenario.tasks_per_app):
            data_bits = rng.randint(*scenario.data_bytes_range) * 8
            tasks.append(Task(
                id=f"{app_id}.t{j:02d}",
                app_id=app_id,
                length=scenario.task_length,
                data_size=float(data_bits),
                deadline=rng.uniform(*scenario.deadline_range),
                submit_time=submit + j * TASK_STAGGER,
            ))
        apps.append(Application(id=app_id, tasks=tasks, user_id=f"user{i:04d}"))
    return apps


# Keys an explicit fleet entry may carry: the node fields node_from_spec
# reads, plus the node's cluster and link bandwidth.
FLEET_SPEC_KEYS = frozenset((
    "id", "tier", "cpu_capacity", "free_resource_fraction", "native_utilisation",
    "battery_charge", "discharge_rates", "distance", "max_supported_distance",
    "caf_score", "cluster", "bandwidth",
))


def node_from_spec(spec: dict, scenario: Scenario) -> FogNode:
    """The node a fleet entry describes; ``id`` and ``cpu_capacity`` are required.

    ``free_resource_fraction`` or ``native_utilisation`` alone sets the other to its complement.
    """
    native = spec.get("native_utilisation", 1.0 - spec.get("free_resource_fraction", 1.0))
    return FogNode(
        id=spec["id"],
        tier=Tier(spec.get("tier", "fog_device")),
        cpu_capacity=spec["cpu_capacity"],
        free_resource_fraction=spec.get("free_resource_fraction", 1.0 - native),
        native_utilisation=native,
        battery_charge=spec.get("battery_charge", 80.0),
        discharge_rates=list(spec.get("discharge_rates", [0.2])),
        distance=spec.get("distance", 10.0),
        max_supported_distance=spec.get("max_supported_distance",
                                        scenario.max_supported_distance),
        caf_score=spec.get("caf_score", 1.0),
    )


def fleet_specs(sc: Scenario) -> list[dict]:
    """The fleet as explicit fleet entries: ``explicit_fleet``, or the seeded generated fleet.

    Each cluster's devices, then its fog servers, drawn from the ``fleet``
    stream; a server draws only its distance.
    """
    if sc.explicit_fleet is not None:
        return sc.explicit_fleet
    rng = _stream(sc.seed, "fleet")
    specs = []
    for c in range(sc.clusters):
        for d in range(sc.devices_per_cluster):
            u0 = rng.uniform(*sc.initial_utilisation)
            # the values are drawn in the order they are listed
            specs.append({"id": f"c{c}d{d:02d}", "free_resource_fraction": 1.0 - u0,
                          "native_utilisation": u0, "cpu_capacity": rng.uniform(*sc.device_mips),
                          "battery_charge": rng.uniform(*sc.battery_range),
                          "discharge_rates": [round(rng.uniform(*sc.discharge_range), 3)],
                          "distance": rng.uniform(*sc.distance_range),
                          "caf_score": rng.uniform(*sc.caf_range),
                          "cluster": c, "bandwidth": sc.device_bandwidth})
        for s in range(sc.servers_per_cluster):
            specs.append({"id": f"c{c}s{s}", "tier": "fog_server", "cpu_capacity": sc.server_mips,
                          "battery_charge": 100.0, "discharge_rates": [],
                          "distance": rng.uniform(*sc.distance_range),
                          "cluster": c, "bandwidth": sc.server_bandwidth})
    return specs


def next_fluctuation(available: float, band: tuple[float, float], rng: random.Random,
                     floor: float = 0.02) -> float:
    """One fluctuation step: the available fraction moves by an absolute step.

    Steps are percentage points of capacity drawn from the band, with random
    sign, reflected at the floor and at 0.98. Point-sized steps on modest
    bases are what produce the large relative fluctuation rates the scoring
    model expects.
    """
    lo, hi = band
    step = lo + (hi - lo) * rng.random()  # rng.uniform(lo, hi), without the method call
    value = available + step if rng.random() < 0.5 else available - step
    # min(max(value, floor), 0.98), without builtin calls
    return floor if value < floor else 0.98 if value > 0.98 else value


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


class _LoadPath:
    """A device's load after each tick: ``available[k]`` and ``caf[k]`` after tick k.

    Entry 0 is the device as built. ``extend`` draws the steps up to a tick
    from the device's own ``fluct:<id>`` stream, so the path depends only on
    the seed, the device's starting load and score, and the step constants.
    Two defects are kept, as the recorded digests hold them: every step is
    clamped at 0.98, so a fully free device loses 2% of its capacity at its
    first tick, and a script that overwrites the last entry leaves the last
    sample as it was, so the next step's jump is measured from the load
    before the script.
    """

    __slots__ = ("available", "caf", "_rng", "_params", "_steps", "_last_sample")

    def __init__(self, sc: Scenario, node_id: str, available: float, caf: float):
        self.available = array("d", (available,))
        self.caf = array("d", (caf,))
        self._rng = _stream(sc.seed, f"fluct:{node_id}")
        self._params = (sc.utilisation_band, sc.min_available, sc.history_window, *sc.caf_range)
        self._steps: list[float] = []  # percent steps between the window's samples
        self._last_sample: float | None = None  # the last available-CPU percentage

    def extend(self, tick: int) -> None:
        """Draw the steps up to and including ``tick``."""
        band, floor, window, lo, hi = self._params
        rng, steps, avail_path, caf_path = self._rng, self._steps, self.available, self.caf
        available, caf, last = avail_path[-1], caf_path[-1], self._last_sample
        for _ in range(tick + 1 - len(avail_path)):
            available = next_fluctuation(available, band, rng, floor)
            sample = available * 100.0
            if last is not None:
                steps.append(fluctuation_step(last, sample))
                if len(steps) >= window:
                    del steps[0]
            last = sample
            if steps:
                # cpu_fluctuation_rate over the window's samples, summed in the same order
                rate = fold_sum(steps) / len(steps)
                if rate > 0:  # a flat history keeps the score
                    caf = rate / 100.0  # min(max(caf, lo), hi), without builtin calls per step
                    caf = lo if caf < lo else caf
                    caf = hi if caf > hi else caf
            avail_path.append(available)
            caf_path.append(caf)
        self._last_sample = last


# The Scenario fields each decision-free draw reads. The workload leaves out
# app_count: app i's draws do not depend on it, so a smaller workload is a prefix.
_WORKLOAD_FIELDS = ("seed", "explicit_workload", "submit_interval", "tasks_per_app",
                    "task_length", "data_bytes_range", "deadline_range")
_DEADLINE_FIELDS = ("deadline_variation_pct", "deadline_changes_per_task")
_PATH_FIELDS = ("seed", "utilisation_band", "min_available", "history_window", "caf_range")


def _key(sc: Scenario, names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(repr(getattr(sc, name)) for name in names)


class Draws:
    """The inputs of a run that no decision reads, drawn once for every run that shares them.

    These are the apps, their deadline changes (the ``deadline`` stream, in
    app order), their tasks' cloud flags (one ``cloudmix:<app>`` stream per
    app) and each device's ``_LoadPath``. Each is kept under exactly the
    ``Scenario`` fields it reads, never the policy, the reservation flag or
    the run length, so runs that differ only in those, or in ``app_count``,
    read the same values. Shared by the runs of one sweep seed and by the
    cells of ``fogsim run``; it lives as long as its caller keeps it.
    """

    def __init__(self):
        self._apps: dict[tuple, list[Application]] = {}
        self._changes: dict[tuple, tuple[random.Random, list]] = {}  # stream, per-app changes
        self._clouds: dict[tuple, list[tuple[bool, ...]]] = {}
        self._paths: dict[tuple, _LoadPath] = {}

    def arrivals(self, sc: Scenario) -> list[tuple[Application, list, tuple[bool, ...]]]:
        """``(app, deadline changes, cloud flags of its tasks)`` for each app, in app order."""
        key = _key(sc, _WORKLOAD_FIELDS)
        apps = self._apps.get(key)
        generated = sc.explicit_workload is None
        if apps is None or generated and len(apps) < sc.app_count:
            apps = self._apps[key] = generate_workload(sc)
        if generated:
            apps = apps[:sc.app_count]
        changes_key = key + _key(sc, _DEADLINE_FIELDS)
        if changes_key not in self._changes:
            self._changes[changes_key] = (_stream(sc.seed, "deadline"), [])
        stream, changes = self._changes[changes_key]
        for app in apps[len(changes):]:
            drawn = []
            for _ in range(sc.deadline_changes_per_task):
                drawn += deadline_change_events(app, sc.deadline_variation_pct, stream)
            changes.append(drawn)
        clouds = self._clouds.setdefault(key + (repr(sc.cloud_fraction),), [])
        for app in apps[len(clouds):]:
            cloud_rng = _stream(sc.seed, f"cloudmix:{app.id}")
            clouds.append(tuple(cloud_rng.random() < sc.cloud_fraction for _ in app.tasks))
        return list(zip(apps, changes, clouds))

    def load_path(self, sc: Scenario, node_id: str, available: float, caf: float) -> _LoadPath:
        """The shared load path of a device that starts at ``available`` and ``caf``."""
        key = (node_id, available, caf) + _key(sc, _PATH_FIELDS)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = _LoadPath(sc, node_id, available, caf)
        return path


@dataclass(slots=True)
class _TaskRt:
    """A task's record from its app's event until its ``RequestRecord`` replaces it."""

    task: Task
    cluster: int
    deadline_abs: float
    cloud_bound: bool
    node_id: str | None = None
    rate: float = 0.0
    progress: float = 0.0
    last_update: float = 0.0
    active_time: float = 0.0
    uplink: float = 0.0
    migrations: int = 0
    migration_time_total: float = 0.0
    no_target: bool = False  # last migration attempt found nowhere better


@dataclass
class _NodeRt:
    """A node's live state; ``Simulation._ranking`` keeps the fields its fresh rows read."""

    node: FogNode
    cluster: int
    rtt: float  # link round-trip, seconds
    move_bw: float  # link bandwidth de-rated by the distance throughput, bits/s
    t_bd: float
    base_drain: float
    available: float
    yield_factor: float = 1.0  # fixed fraction of free cycles usable for fog work
    caf: float = 1.0  # the live fluctuation score that rankings read
    reservation: ReservationState = field(default_factory=ReservationState)
    running: dict[str, _TaskRt] = field(default_factory=dict)
    pending: int = 0  # placements/migrations already bound for this node
    version: int = 0  # bumped by every replan; only the latest ``done`` event is live
    window_count: int = 0
    window_last: float = 0.0
    path: _LoadPath | None = None  # a device's load by tick, dropped when its run ends
    index: int = -1  # position in the fleet's device order; servers have none
    stepped: float = math.inf  # ticks applied to the load; a server's load never steps
    n_own: int = 0  # running tasks homed to the node's own cluster
    minutes: dict[int, float] = field(default_factory=dict)  # A_v by share count


def _minutes(nrt: _NodeRt, shares: int) -> float:
    """``A_v`` of the node over ``shares`` tasks, memoised: charge and drain are fixed for a run."""
    a_v = nrt.minutes.get(shares)
    if a_v is None:
        a_v = nrt.minutes[shares] = battery_minutes(nrt.node.battery_charge,
                                                    [nrt.base_drain] * shares)
    return a_v


def _work_left(trt: _TaskRt) -> float:
    """The task's work not yet done, from the progress integrated so far, clamped at 0."""
    return max(trt.task.length - trt.progress, 0.0)


def _share_rate(nrt: _NodeRt, weight: float) -> float:
    """Progress rate (MI/s) of one share when free capacity is split ``weight`` ways.

    The physical share is scaled by the node's yield factor and distance
    throughput.
    """
    return nrt.node.cpu_capacity * nrt.available / weight * nrt.yield_factor * nrt.t_bd


class Simulation:
    """Single-threaded deterministic event loop over one scenario.

    ``draws`` are the decision-free inputs it reads; a run given none draws its own.
    """

    def __init__(self, scenario: Scenario, draws: Draws | None = None):
        if not scenario.min_available > 0:  # a device at 0 would run its shares at rate 0
            raise ValueError(f"min_available must be above 0, got {scenario.min_available}")
        if problem := stalled_period(scenario):
            raise ValueError(problem)
        self.sc = scenario
        self._draws = Draws() if draws is None else draws  # let go of when the run ends
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []  # (time, seq, kind, key, payload)
        self.nodes: dict[str, _NodeRt] = {}
        self.device_ids: list[str] = []
        self._devices: list[_NodeRt] = []  # the nodes of device_ids, in fleet order
        self.tasks: dict[str, _TaskRt | RequestRecord] = {}
        self._ran = False  # a second run would append to this run's records and ledger
        self.trace = RunTrace(policy=scenario.policy, reservation=scenario.reservation,
                              seed=scenario.seed)
        self.remaining = 0
        self.max_load_ratio = 0.0
        self._next_tick = math.inf  # time of the pending fluctuation tick
        self._ticks = 0  # fluctuation ticks started so far
        self._cursor = math.inf  # index of the device the running tick has reached
        self._build_fleet()
        if not self._devices:  # tasks run on fog devices only
            raise ValueError("the fleet has no fog device to place tasks on")
        self._home_clusters = sorted({nrt.cluster for nrt in self._devices})
        self._by_capacity = sorted(self._devices, key=lambda nrt: nrt.node.cpu_capacity,
                                   reverse=True)
        self._min_rtt = min(nrt.rtt for nrt in self._devices)  # the fleet's smallest round-trip
        self._baseline_order: tuple[float, list[tuple]] | None = None  # (latest work, rows)
        # mc fresh rows by home cluster, for its latest remaining work only: the
        # work, the rows in order, each device's row and the inputs it was scored from
        self._indexes: dict[int, list] = {}

    # -- fleet -----------------------------------------------------------

    def _build_fleet(self) -> None:
        sc = self.sc
        scripted = {node_id for _, node_id, _ in sc.scripted_utilisation}
        for spec in fleet_specs(sc):
            self._register(node_from_spec(spec, sc), spec.get("cluster", 0),
                           spec.get("bandwidth", sc.device_bandwidth), scripted)

    def _register(self, node: FogNode, cluster: int, bandwidth: float,
                  scripted: set[str]) -> None:
        sc = self.sc
        checked_capacity(node)  # rankings divide by it unchecked
        t_bd = throughput_by_distance(node)
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
        drain = fold_sum(node.discharge_rates) or 0.2
        rt = _NodeRt(node=node, cluster=cluster, rtt=link_delay(link),
                     move_bw=link_bandwidth(link) * t_bd, t_bd=t_bd,
                     base_drain=drain, available=1.0 - node.native_utilisation,
                     yield_factor=node.caf_score, caf=node.caf_score)
        self.nodes[node.id] = rt
        if node.tier is Tier.FOG_DEVICE:
            rt.index, rt.stepped = len(self._devices), 0
            self.device_ids.append(node.id)
            self._devices.append(rt)
            # a script rewrites its device's path, so that path is the run's own
            rt.path = (_LoadPath(sc, node.id, rt.available, rt.caf) if node.id in scripted
                       else self._draws.load_path(sc, node.id, rt.available, rt.caf))

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
        """Recompute shares for every task on a node and reschedule its next completion.

        Free capacity is split equally, except that with reservation active
        peer-cluster tasks are down-weighted by the unreserved fraction:
        the held-back capacity flows to the node's own cluster. The split
        stays work-conserving, so total allocation never exceeds free
        capacity. The node keeps one pending ``done`` event, for its
        earliest finisher (ties go to the first task in ``running`` order);
        the version bump makes any earlier one stale. A finisher after the
        pending tick gets no event: that tick replans every busy device.

        A task whose last migration attempt found no target gets its search
        reopened when the new rate moves its finish past the deadline.
        """
        self._catch_up(nrt)
        nrt.version += 1
        running = nrt.running
        n = len(running)
        if n == 0:
            return
        now, cluster, capacity = self.now, nrt.cluster, nrt.node.cpu_capacity
        fog_free = capacity * nrt.available
        n_own = nrt.n_own
        n_peer = n - n_own
        peer_weight = 1.0  # single-class nodes share evenly
        if self.sc.reservation and fog_free > 0 and n_own and n_peer:
            reserved = min(nrt.reservation.reserved_value, fog_free)
            peer_weight = max((fog_free - reserved) / fog_free, 0.5)
        weight_sum = n_own + peer_weight * n_peer
        allocated = fog_free / weight_sum * weight_sum  # capacity handed out over all shares
        load_ratio = (capacity * (1.0 - nrt.available) + allocated) / capacity
        if load_ratio > self.max_load_ratio:
            self.max_load_ratio = load_ratio
        base_rate = _share_rate(nrt, weight_sum)
        first, first_time = None, math.inf
        for trt in running.values():
            old_rate = trt.rate
            if old_rate > 0:  # _progress, inline: every running task has a node
                dt = now - trt.last_update
                trt.progress += old_rate * dt
                trt.active_time += dt
            trt.last_update = now
            rate = base_rate * peer_weight if trt.cluster != cluster else base_rate
            remaining = trt.task.length - trt.progress
            if trt.no_target and old_rate > 0 and remaining > 0:
                was_on_time = now + remaining / old_rate <= trt.deadline_abs
                if was_on_time and now + remaining / rate > trt.deadline_abs:
                    trt.no_target = False  # slowdown crossed the deadline boundary
            trt.rate = rate
            finish = now if remaining <= 1e-9 else now + remaining / rate
            if finish < first_time:
                first, first_time = trt, finish
        # an event at the tick's time may still pop first, by push order
        if first_time <= self._next_tick:
            self._push(first_time, "done", nrt.node.id, (nrt.version, first.task.id))

    def _projected_completion(self, trt: _TaskRt) -> float:
        if trt.node_id is None or trt.rate <= 0:
            return math.inf
        return self.now + _work_left(trt) / trt.rate

    # -- scoring ------------------------------------------------------------

    def _score_pass(self, work: float, data: float, cluster: int, nodes: list[_NodeRt],
                    extra: int = 1, budget: float | None = None) -> list[tuple]:
        """Score every node for a task with ``work`` MI left and ``data`` bits, all in one pass.

        Each node is scored over ``extra`` more shares.

        Rows are ``(C_t, id, node record)``, or ``(id, C_t, A_s, M_t)`` for a
        migration search within ``budget``; ``A_s`` is computed only for a
        row that meets the budget and is ``None`` elsewhere, where the
        migration order never reads it. The free fraction is the available
        fraction per share (at least one share); reserved capacity is not
        advertised to a requester from a cluster other than ``cluster``.
        """
        hide = self.sc.reservation
        ticks, catch_up = self._ticks, self._catch_up
        rows = []
        for nrt in nodes:
            if nrt.stepped < ticks:  # a node stepped for every tick started is caught up
                catch_up(nrt)
            node = nrt.node
            shares = len(nrt.running) + nrt.pending + extra or 1
            avail = nrt.available
            if hide and nrt.cluster != cluster:
                avail -= nrt.reservation.reserved_value / node.cpu_capacity
                avail = 0.0 if avail < 0.0 else avail
            # max(min(avail / shares, 1.0), 1e-6), without builtin calls per node
            free = avail / shares
            free = 1.0 if free > 1.0 else 1e-6 if free < 1e-6 else free
            c_t = completion_time(execution_seconds(work, node.cpu_capacity), free,
                                  nrt.caf, nrt.t_bd)
            if budget is None:
                rows.append((c_t, node.id, nrt))
            else:
                a_s = availability_score(_minutes(nrt, shares), c_t) if c_t < budget else None
                rows.append((node.id, c_t, a_s, data / nrt.move_bw))
        return rows

    def _ranking(self, trt: _TaskRt) -> list[tuple]:
        """The devices' ``(cost, id, node record)`` rows in ``rank`` order for a fresh request.

        The baseline's cost, ``E_t`` plus the link round-trip, reads no load,
        so its rows are kept for the latest remaining work and ranked afresh
        for any other. The multi-criteria rows are kept in order for each
        home cluster's latest remaining work, with the inputs each device's
        row was scored from: its load, ``caf``, share count and reserved
        value. A row is a pure function of those, the work, the requester's
        cluster and fixed node fields, so a ranking for the kept work catches
        every device up, rescores only the devices whose inputs differ, and
        re-ranks the rows with ``rank`` when any changed. Any other work value
        replaces the cluster's order with one that keeps no inputs, so every
        device is scored.
        """
        task = trt.task
        work = task.length  # a task that has not run has done no work
        if self.sc.policy == "baseline":
            if self._baseline_order is None or self._baseline_order[0] != work:
                self._baseline_order = (work, rank([
                    (execution_seconds(work, nrt.node.cpu_capacity) + nrt.rtt, nrt.node.id, nrt)
                    for nrt in self._devices]))
            return self._baseline_order[1]
        index = self._indexes.get(trt.cluster)
        if index is None or index[0] != work:  # nothing kept: every device's inputs differ
            n = len(self._devices)
            index = self._indexes[trt.cluster] = [work, [], [None] * n, [None] * n]
        _, rows, held, inputs = index
        ticks, catch_up = self._ticks, self._catch_up
        hide, cluster = self.sc.reservation, trt.cluster
        changed = []
        for nrt in self._devices:
            if nrt.stepped < ticks:  # the inputs include the load steps
                catch_up(nrt)
            # the reserved value enters a row only where _score_pass hides it
            key = (nrt.available, nrt.caf, len(nrt.running) + nrt.pending,
                   nrt.reservation.reserved_value if hide and nrt.cluster != cluster else 0.0)
            if key != inputs[nrt.index]:
                inputs[nrt.index] = key
                changed.append(nrt)
        for nrt, row in zip(changed, self._score_pass(work, task.data_size, cluster, changed)):
            held[nrt.index] = row
        if changed:
            index[1] = rows = rank(held)
        return rows

    def _baseline_target(self, work: float, current: _NodeRt) -> _NodeRt:
        """The device other than ``current`` first in the baseline's ``rank`` order for ``work`` MI.

        Devices are visited by descending capacity, so ``E_t`` never falls;
        the pass stops at the first device whose ``E_t`` plus the smallest
        round-trip exceeds the best cost, as no later device can beat it.
        Ties go to the lower id, as in ``rank``.
        """
        min_rtt = self._min_rtt
        best, best_id, target = math.inf, "", None
        for nrt in self._by_capacity:
            e_t = execution_seconds(work, nrt.node.cpu_capacity)
            if e_t + min_rtt > best:
                break
            cost = e_t + nrt.rtt
            if nrt is not current and (cost < best or cost == best and nrt.node.id < best_id):
                best, best_id, target = cost, nrt.node.id, nrt
        return target

    def _migration_search(self, trt: _TaskRt, work: float, current: _NodeRt,
                          others: list[_NodeRt], budget: float
                          ) -> tuple[str, float, float, float] | None:
        """The other nodes' ``(id, C_t, A_s, M_t)`` row first in migration order, ``work`` MI left.

        The row is the minimum by ``migration_key``, found without sorting.
        ``None`` when the current node still meets the deadline.
        """
        data = trt.task.data_size
        # the current node over the shares it runs, none of them held back from its task
        if self._score_pass(work, data, current.cluster, [current], extra=0)[0][0] < budget:
            return None
        return min(self._score_pass(work, data, trt.cluster, others, budget=budget),
                   key=migration_key(budget))

    def _uplink_time(self, nrt: _NodeRt, data_bits: float) -> float:
        # transfers contend with other in-flight transfers, not with executing tasks
        return data_bits / (nrt.move_bw / (nrt.pending + 1)) + nrt.rtt / 2.0

    # -- admission ----------------------------------------------------------

    def _admits(self, nrt: _NodeRt, trt: _TaskRt, peer: bool, transfer: float) -> bool:
        budget = trt.deadline_abs - self.now
        if budget <= 0:
            return False
        self._catch_up(nrt)
        rate = _share_rate(nrt, len(nrt.running) + nrt.pending + 1)
        if rate <= 0:
            return False
        remaining = trt.task.length - trt.progress
        if transfer + remaining / rate > budget * self.sc.admission_optimism:
            return False
        if peer and self.sc.reservation:
            usable = nrt.node.cpu_capacity * nrt.available - nrt.reservation.reserved_value
            need_physical = remaining / max(budget - transfer, 1e-9)
            need_physical /= (nrt.yield_factor * nrt.t_bd)
            if usable < need_physical:
                return False
        return True

    # -- allocation -----------------------------------------------------------

    def _place_fresh(self, trt: _TaskRt) -> None:
        rows = self._ranking(trt)
        chosen = None
        for _, _, nrt in rows:
            transfer = self._uplink_time(nrt, trt.task.data_size)
            if self._admits(nrt, trt, peer=nrt.cluster != trt.cluster, transfer=transfer):
                chosen = nrt
                break
        if chosen is None:  # nothing meets the deadline: spread the overload at home
            order = [row[2] for row in rows]
            own = [nrt for nrt in order if nrt.cluster == trt.cluster]
            chosen = min(own or order,
                         key=lambda nrt: (len(nrt.running) + nrt.pending, nrt.node.id))
            transfer = self._uplink_time(chosen, trt.task.data_size)
        trt.uplink = transfer
        chosen.pending += 1
        self._push(self.now + transfer, "arrive", trt.task.id, (chosen.node.id,))

    def _attempt_migration(self, trt: _TaskRt) -> None:
        if trt.migrations >= self.sc.max_migrations_per_task:
            return
        if trt.node_id is None:  # already in transit
            return
        current = self.nodes[trt.node_id]
        self._progress(trt)
        work = _work_left(trt)
        budget = trt.deadline_abs - self.now
        if budget <= 0 or len(self.device_ids) < 2:  # too late, or nowhere else to go
            trt.no_target = True
            return
        if self.sc.policy == "baseline":
            target = self._baseline_target(work, current)
        else:
            others = [nrt for nrt in self._devices if nrt is not current]
            first = self._migration_search(trt, work, current, others, budget)
            if first is None:  # the current node still meets the deadline
                trt.no_target = True
                return
            self._refresh_reservations(others)  # the paper reserves on every migration search
            if not migration_bound_ok(first, budget):
                trt.no_target = True
                return
            target = self.nodes[first[0]]
        self._catch_up(target)
        # moving must actually beat staying, transfer included
        move_time = trt.task.data_size / target.move_bw
        prospective = _share_rate(target, len(target.running) + target.pending + 1)
        move_total = move_time + work / max(prospective, 1e-9)
        stay = self._projected_completion(trt) - self.now
        if move_total >= stay:
            trt.no_target = True
            return
        target.pending += 1
        del current.running[trt.task.id]
        current.n_own -= trt.cluster == current.cluster
        trt.node_id = None
        trt.rate = 0.0
        trt.migrations += 1
        trt.migration_time_total += move_time
        self._replan(current)
        self._push(self.now + move_time, "migrate", trt.task.id, (target.node.id,))

    # -- reservation ----------------------------------------------------------

    def _rotate_reservation(self) -> None:
        for nrt in self._devices:
            if nrt.window_count > 0:  # quiet windows keep the last known demand
                nrt.reservation.total_apps_processed = nrt.window_count
                nrt.reservation.last_app_request = nrt.window_last
                nrt.window_count = 0
        self._refresh_reservations(self._devices)

    def _refresh_reservations(self, nodes: list[_NodeRt]) -> None:
        """Hold back each node's required reservation, capped at a share of its capacity.

        The only writer of ``reserved_value``.
        """
        cap = self.sc.reservation_cap_fraction
        for nrt, required in zip(nodes, reserve([nrt.reservation for nrt in nodes])):
            limit = cap * nrt.node.cpu_capacity
            # min(required, limit), inline
            nrt.reservation.reserved_value = limit if limit < required else required

    # -- completion ------------------------------------------------------------

    def _finish(self, trt: _TaskRt) -> None:
        """Release the task's node, then swap in the record ``account`` makes of its facts."""
        task = trt.task
        self.remaining -= 1
        node = self.nodes[trt.node_id]
        del node.running[task.id]
        node.n_own -= trt.cluster == node.cluster
        node.window_count += 1
        node.window_last = task.length
        self._replan(node)
        self.tasks[task.id] = account(self.trace, self.sc, task, self.now, trt.deadline_abs,
                                      trt.uplink, trt.active_time, trt.migrations,
                                      trt.migration_time_total, trt.cloud_bound, trt.progress)

    # -- event handlers --------------------------------------------------------

    def _on_app(self, app: Application, changes: list[tuple[float, str, float]],
                clouds: tuple[bool, ...]) -> None:
        """Open the app's task records, push its deadline changes, then place or queue its tasks."""
        present = self._home_clusters
        home = present[hash_cluster(app.user_id, len(present), self.sc.cluster_block)]
        for task, cloud_bound in zip(app.tasks, clouds):
            self.tasks[task.id] = _TaskRt(
                task=task,
                cluster=home,
                deadline_abs=task.submit_time + task.deadline,
                cloud_bound=cloud_bound,
                last_update=self.now,
            )
        for when, task_id, factor in changes:  # each falls strictly after this event
            self._push(when, "deadline", task_id, (factor,))
        for task in app.tasks:
            if task.submit_time <= self.now:
                self._place_fresh(self.tasks[task.id])
            else:
                self._push(task.submit_time, "place", task.id)

    def _on_arrive(self, trt: _TaskRt, node_id: str) -> None:
        nrt = self.nodes[node_id]
        nrt.pending -= 1  # the share moves from pending to running: rankings see no change
        trt.node_id = node_id
        trt.last_update = self.now
        nrt.running[trt.task.id] = trt
        nrt.n_own += trt.cluster == nrt.cluster
        self._replan(nrt)

    def _on_tick(self) -> None:
        """Step and recheck every busy device, in fleet order, then schedule the next tick.

        An idle device is stepped when a decision next reads its load (see
        ``_catch_up``). The next tick's time is known before the steps, so
        their replans can leave out completions that tick would replace.
        """
        self._next_tick = self.now + self.sc.fluctuation_interval
        self._ticks += 1
        for nrt in self._devices:
            if nrt.running:
                self._cursor = nrt.index
                self._recheck(nrt)
        self._cursor = math.inf
        if self.remaining > 0:
            self._push(self._next_tick, "fluct")

    def _catch_up(self, nrt: _NodeRt) -> None:
        """Jump the node to its load path's load and ``caf`` after the ticks started so far.

        Called before every read of a node's load or ``caf``. While a
        tick runs, a device it has not reached yet misses only that tick's
        step, so every read sees the load an eager tick would have left.
        """
        target = self._ticks - (nrt.index > self._cursor)
        if nrt.stepped < target:
            path = nrt.path
            if len(path.available) <= target:
                path.extend(target)
            nrt.stepped = target
            nrt.available = path.available[target]
            nrt.caf = path.caf[target]

    def _recheck(self, nrt: _NodeRt) -> None:
        """Replan a busy device on a tick, then try to move the tasks that now finish late."""
        self._replan(nrt)  # catches the device up to this tick's step first
        choked = nrt.available < SPIKE_THRESHOLD
        for trt in self._movable(nrt):
            if choked:
                trt.no_target = False  # a choke reopens the search
            if not trt.no_target and self._projected_completion(trt) > trt.deadline_abs:
                self._attempt_migration(trt)

    def _movable(self, nrt: _NodeRt) -> list[_TaskRt]:
        """The node's running tasks that a migration attempt may still move, in task-id order.

        A task at its migration limit or past its deadline never moves again,
        and its attempt writes nothing an output reads, so it is left out.
        """
        limit, now = self.sc.max_migrations_per_task, self.now
        tasks = [trt for trt in nrt.running.values()
                 if trt.migrations < limit and trt.deadline_abs > now]
        if len(tasks) > 1:
            tasks.sort(key=lambda trt: trt.task.id)
        return tasks

    def _on_deadline(self, trt: _TaskRt | RequestRecord, factor: float) -> None:
        if type(trt) is not _TaskRt:  # the task finished
            return
        remaining = trt.deadline_abs - self.now
        if remaining <= 0:
            return
        new_remaining = max(remaining * factor, MIN_REMAINING_DEADLINE)
        trt.deadline_abs = self.now + new_remaining
        trt.no_target = False  # changed terms reopen the search
        if factor < 1.0 and self._projected_completion(trt) > trt.deadline_abs:
            self._attempt_migration(trt)

    def _on_script(self, node_id: str, available: float) -> None:
        nrt = self.nodes[node_id]
        self._catch_up(nrt)  # the steps before the script, so later ticks step from its value
        nrt.available = max(min(available, 0.98), 0.001)
        if nrt.path is not None:  # a server has no load path
            nrt.path.available[-1] = nrt.available  # later steps start from it
        self._replan(nrt)
        for trt in self._movable(nrt):
            if self._projected_completion(trt) > trt.deadline_abs:
                self._attempt_migration(trt)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> RunTrace:
        if self._ran:
            raise RuntimeError("this Simulation has already run; build a new one to run again")
        self._ran = True
        sc = self.sc
        # each app rides its event with its deadline changes and cloud flags until the
        # event pushes the changes: the heap holds only the arrived apps' changes
        for app, changes, clouds in self._draws.arrivals(sc):
            self.remaining += len(app.tasks)
            self._push(min((t.submit_time for t in app.tasks), default=0.0), "app", app.id,
                       (app, changes, clouds))
        for when, node_id, available in sc.scripted_utilisation:
            self._push(when, "script", node_id, (available,))
        if self.remaining > 0:
            self._next_tick = sc.fluctuation_interval
            self._push(self._next_tick, "fluct")
            if sc.reservation:
                self._push(sc.reservation_period, "rotate")

        while self._heap:
            when, _seq, kind, key, payload = heapq.heappop(self._heap)
            self.now = when
            # what is left after the last completion (stale events, say) is no runaway
            if when > sc.max_sim_time and self.remaining:
                raise SimTimeExceeded(
                    f"simulation exceeded max_sim_time={sc.max_sim_time}; "
                    f"{self.remaining} tasks unfinished (fleet overloaded?)")
            if kind == "done":
                if payload[0] != self.nodes[key].version:
                    continue  # the node replanned since this completion was scheduled
                trt = self.tasks[payload[1]]
                self._progress(trt)
                self._finish(trt)
            elif kind == "app":
                self._on_app(*payload)
            elif kind == "place":
                self._place_fresh(self.tasks[key])
            elif kind == "arrive":
                self._on_arrive(self.tasks[key], payload[0])
            elif kind == "fluct":
                self._on_tick()
            elif kind == "deadline":  # pushed at its app's event, which opened the task's record
                self._on_deadline(self.tasks[key], payload[0])
            elif kind == "migrate":
                self._on_arrive(self.tasks[key], payload[0])
            elif kind == "rotate":
                self._rotate_reservation()
                if self.remaining > 0:
                    self._push(self.now + sc.reservation_period, "rotate")
            elif kind == "script":
                self._on_script(key, payload[0])
        # a finished run keeps none of the draws, shared or its own
        self._draws = None
        for nrt in self._devices:
            nrt.path = None
        # by (completion_time, task_id) through two stable passes: no key tuple per record
        records = self.trace.records
        records.sort(key=attrgetter("task_id"))
        records.sort(key=attrgetter("completion_time"))
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
