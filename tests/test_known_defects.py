"""The known model defects, each stated as the behaviour a fix must give.

Each defect is kept on purpose, because the recorded digests hold it, and
is named by a line of CHANGES.md, most by a ``FOUND`` line. Each test asserts the correct
behaviour from the smallest reproducer that line gives, and is marked
``xfail(strict=True)`` for an assertion failure: while the defect stands
the test fails as expected, and a change that mends it unannounced makes
the test pass, which strict mode reports as a failure. The commit that
mends a defect removes its marker.
"""

import dataclasses
import random
import statistics

import pytest

from fogsim.engine import Scenario, Simulation, _TaskRt
from fogsim.experiments import BA_BANDS
from fogsim.model import NetworkLink
from fogsim.network import available_bandwidth
from fogsim.scoring import fluctuation_step


def defect(reason: str):
    """The strict expected-failure marker of a defect; ``reason`` names its CHANGES.md line."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def one_device(**device) -> Scenario:
    """No apps, one fog device ``d0`` (1000 MIPS unless ``device`` says otherwise)."""
    return Scenario(app_count=0, explicit_fleet=[{"id": "d0", "cpu_capacity": 1000.0, **device}])


@defect("CHANGES.md FOUND: Simulation._projected_completion adds remaining / rate to "
        "self.now although trt.progress is only integrated up to trt.last_update")
def test_projected_completion_counts_the_work_done_since_the_last_update():
    sim = Simulation(one_device(distance=0.0))
    trt = sim.tasks["t0"] = _TaskRt(id="t0", app_id="a0", length=2000.0, data_size=0.0,
                                    submit_time=0.0, cluster=0, deadline_abs=10.0,
                                    cloud_bound=False)
    sim._on_arrive(trt, "d0")  # alone on a fully free device: 1000 MI/s from t = 0
    assert trt.rate == 1000.0
    sim.now = 1.0  # half the work is done, though no replan has integrated it
    assert sim._projected_completion(trt) == 2.0


@defect("CHANGES.md FOUND: Simulation._on_script sets a device's available but not its "
        "last_sample")
def test_a_script_resets_the_last_sample():
    sim = Simulation(one_device(native_utilisation=0.5))
    sim._ticks, sim.now = 2, 2.5  # two ticks stepped, the script falls before the third
    sim._on_script("d0", 0.3)
    path = sim.nodes["d0"].path
    path.extend(3)
    path.caf_at(3)  # the step into tick 3 is scored as the scores are derived
    # the third tick's step is measured from the scripted load
    assert path._steps[-1] == fluctuation_step(0.3 * 100.0, path.available[3] * 100.0)


@defect("CHANGES.md FOUND: engine.next_fluctuation clamps every step at 0.98, so a device "
        "configured fully free loses 2% of its capacity at its first tick")
def test_a_fixed_load_stays_fully_free():
    sc = dataclasses.replace(one_device(), utilisation_band=(0.0, 0.0), explicit_workload=[
        {"id": "a0", "tasks": [{"id": "t0", "length": 5000.0, "data_size": 0.0,
                                "deadline": 100.0}]}], app_count=1)
    sim = Simulation(sc)
    assert len(sim.run().records) == 1 and sim._ticks > 0
    assert sim.nodes["d0"].available == 1.0


@defect("CHANGES.md FOUND: Scenario.server_mips, and the cpu_capacity of a fleet fog_server "
        "entry, change no output: fog servers never run a task")
def test_a_fast_server_runs_tasks_beside_a_slow_device():
    fleet = [{"id": "s0", "tier": "fog_server", "cpu_capacity": 8000.0},
             {"id": "d0", "cpu_capacity": 40.0}]
    sim = Simulation(Scenario(app_count=2, tasks_per_app=2, explicit_fleet=fleet))
    on_arrive, ran_on = sim._on_arrive, set()

    def logging_arrive(trt, node_id):
        ran_on.add(node_id)
        on_arrive(trt, node_id)

    sim._on_arrive = logging_arrive
    assert len(sim.run().records) == 4
    assert "s0" in ran_on


@defect("CHANGES.md FOUND: battery charge never drains and the baseline reads no battery, "
        "so the battery sweep axis leaves the baseline's records identical")
def test_the_battery_axis_moves_the_baseline():
    base = Scenario(app_count=6, policy="baseline", clusters=2, devices_per_cluster=3,
                    submit_interval=4.0, deadline_range=(6.0, 16.0))
    low, high = (Simulation(dataclasses.replace(base, battery_range=band)).run()
                 for band in (BA_BANDS[0], BA_BANDS[-1]))
    assert low.records != high.records


@defect("CHANGES.md, 'One copy of each formula in the engine': Simulation._uplink_time keeps "
        "its own bw*m/n because network.available_bandwidth computes bw/n*m, which differs "
        "in the last bit")
def test_the_uplink_shares_the_link_as_available_bandwidth_does():
    sim = Simulation(one_device(distance=20.0))
    nrt = sim.nodes["d0"]
    nrt.pending = 2  # a fresh transfer is the link's third
    bw = sim.sc.device_bandwidth
    link = NetworkLink(endpoint_bandwidths=(bw, bw), capacity=bw, medium_throughput=nrt.t_bd,
                       sharing_users=3)
    assert sim._uplink_time(nrt, 40960.0) == 40960.0 / available_bandwidth(link) + nrt.rtt / 2.0


LINK_BW, LINK_LOAD, MEAN_BITS = 1e5, 0.6, 40000.0  # bits/s, link load, bits: E[S] = 0.4 s


def link_scenario(seed: int) -> Scenario:
    """4,000 one-task apps, Poisson submissions and exponential sizes, at link load 0.6.

    One device at distance 0; its CPU is fast enough that only the link matters.
    """
    rng = random.Random(f"mm1-link:{seed}")
    now, workload = 0.0, []
    for i in range(4000):
        now += rng.expovariate(LINK_LOAD * LINK_BW / MEAN_BITS)
        workload.append({"id": f"a{i:04d}", "user_id": "u0", "tasks": [
            {"id": f"t{i:04d}", "length": 1.0, "data_size": rng.expovariate(1.0 / MEAN_BITS),
             "deadline": 1e5, "submit_time": now}]})
    device = {"id": "d0", "cpu_capacity": 1e4, "distance": 0.0, "bandwidth": LINK_BW}
    return Scenario(seed=seed, app_count=4000, clusters=1, reservation=False,
                    utilisation_band=(0.0, 0.0), cloud_fraction=0.0, deadline_variation_pct=0.0,
                    explicit_fleet=[device], explicit_workload=workload)


@defect("CHANGES.md FOUND: a fresh transfer counts in its node's pending transfers until its "
        "arrive event, half a round trip after its bits are sent, so the link's transfers "
        "run slower than M/M/1-PS")
def test_fresh_transfers_share_the_link_as_mm1_ps():
    # a record's delay is its uplink twice, and its uplink the transfer plus half a round trip
    means = []
    for seed in (1, 2):
        sim = Simulation(link_scenario(seed))
        rtt = sim.nodes["d0"].rtt
        means.append(statistics.fmean(r.delay / 2.0 - rtt / 2.0 for r in sim.run().records))
    service = MEAN_BITS / LINK_BW
    assert statistics.fmean(means) == pytest.approx(service / (1.0 - LINK_LOAD), rel=0.1), means
