"""Analytic oracles: the engine's CPU against queueing theory.

One fog device with reservation off, no load fluctuation, no distance
de-rating and no cloud copy runs its tasks by equal sharing of a fixed
free capacity: an M/G/1 processor-sharing queue when arrivals are Poisson.
Its mean time in service is E[S] / (1 - rho) whatever the length
distribution (Kleinrock, *Queueing Systems* vol. 2, 1976), so the
deterministic case checks insensitivity; FCFS service of the same lengths
would read 1.75 s there, not 2.5 s. Little's law (Little, *Operations
Research*, 1961) ties the device's occupancy over the run to the records'
time in service.

With reservation on, a device's peer-cluster tasks get a down-weighted
share, but the shares still hand out all of the free capacity, so the
unfinished work on the device is that of any work-conserving queue fed the
same arrivals (Kleinrock's conservation law, *Queueing Systems* vol. 2):
the Lindley recursion of the arrivals, whatever the weights.
"""

import math
import random
import statistics

import pytest

from fogsim.engine import Scenario, Simulation

MIPS, AVAILABLE = 1000.0, 0.5  # a lone task runs at 500 MI/s
MEAN_LENGTH = 500.0  # MI, so E[S] = 1 s
TASKS, SEEDS = 4000, (1, 2, 3, 4)


def ps_scenario(seed: int, lengths: str, load: float) -> Scenario:
    """Poisson arrivals of one-task apps at ``load`` on one device; deadlines never bind."""
    rng = random.Random(f"mg1-ps:{lengths}:{seed}")
    service_s = MEAN_LENGTH / (MIPS * AVAILABLE)
    now, workload = 0.0, []
    for i in range(TASKS):
        now += rng.expovariate(load / service_s)
        length = rng.expovariate(1.0 / MEAN_LENGTH) if lengths == "exponential" else MEAN_LENGTH
        workload.append({"id": f"a{i:05d}", "user_id": "u0", "tasks": [
            {"id": f"t{i:05d}", "length": length, "data_size": 0.0, "deadline": 1e5,
             "submit_time": now}]})
    device = {"id": "d0", "cpu_capacity": MIPS, "native_utilisation": 1.0 - AVAILABLE,
              "distance": 0.0, "caf_score": 1.0}
    return Scenario(seed=seed, app_count=TASKS, clusters=1, reservation=False,
                    utilisation_band=(0.0, 0.0), cloud_fraction=0.0, frame_bits=0.0,
                    deadline_changes_per_task=0, explicit_fleet=[device],
                    explicit_workload=workload)


def mean_time_in_service(sc: Scenario) -> float:
    """Mean ``processing_time`` (here ``active_time``), the first 10% of arrivals dropped."""
    records = sorted(Simulation(sc).run().records, key=lambda r: r.submit_time)
    return statistics.fmean(r.processing_time for r in records[len(records) // 10:])


def check_mg1_ps(lengths: str, load: float, tolerance: float) -> None:
    """The four seeds' mean time in service is E[S] / (1 - load), within ``tolerance`` seconds."""
    expected = (MEAN_LENGTH / (MIPS * AVAILABLE)) / (1.0 - load)
    means = [mean_time_in_service(ps_scenario(seed, lengths, load)) for seed in SEEDS]
    assert statistics.fmean(means) == pytest.approx(expected, abs=tolerance), means


class TestProcessorSharingCpu:
    # Each tolerance is three standard errors of the four-seed mean, from the
    # standard deviation of one seed's mean over 40 other seeds, measured
    # before the test was written.
    # Load 0.6 (2.5 s): 0.178 s (exponential) and 0.115 s (deterministic).
    @pytest.mark.parametrize("lengths,tolerance", [("exponential", 0.27), ("deterministic", 0.17)])
    def test_mean_time_in_service_matches_mg1_ps(self, lengths, tolerance):
        check_mg1_ps(lengths, 0.6, tolerance)

    # Load 0.3 (1.4286 s): 0.0396 s (exponential) and 0.0236 s (deterministic).
    @pytest.mark.parametrize("lengths,tolerance",
                             [("exponential", 0.059), ("deterministic", 0.035)])
    def test_mean_time_in_service_at_light_load(self, lengths, tolerance):
        check_mg1_ps(lengths, 0.3, tolerance)


class TestLittlesLaw:
    """L = lambda W over a run: the tasks on the device, integrated over time, are the
    records' summed time in service (here ``processing_time`` is ``active_time``)."""

    @pytest.mark.parametrize("lengths", ["exponential", "deterministic"])
    def test_occupancy_integral_equals_total_time_in_service(self, lengths):
        sim = Simulation(ps_scenario(1, lengths, 0.6))
        replan = sim._replan
        area, last = [0.0], [0.0, 0]  # the integral so far; (time, tasks running since)

        # every change to the running set is followed by a replan of its device
        def sampling_replan(nrt):
            when, running = last
            area[0] += running * (sim.now - when)
            replan(nrt)
            last[:] = sim.now, len(nrt.running)

        sim._replan = sampling_replan
        records = sim.run().records
        assert len(records) == TASKS and last[1] == 0
        total = math.fsum(r.processing_time for r in records)
        assert area[0] == pytest.approx(total, rel=1e-9, abs=0.0)


RATE = MIPS * AVAILABLE  # MI/s the device hands out whenever it runs a task


def two_class_scenario(policy: str, reservation: bool) -> Scenario:
    """Poisson arrivals at load 0.6 from users alternating between two clusters.

    d0, in cluster 0, serves every task; d1, in cluster 1, is so slow that
    it never admits one, so cluster 1's tasks are peers on d0.
    """
    rng = random.Random("conservation")
    now, workload = 0.0, []
    for i in range(2000):
        now += rng.expovariate(0.6 / (MEAN_LENGTH / RATE))
        workload.append({"id": f"a{i:05d}", "user_id": f"u{i}", "tasks": [
            {"id": f"t{i:05d}", "length": rng.expovariate(1.0 / MEAN_LENGTH), "data_size": 0.0,
             "deadline": 1e5, "submit_time": now}]})
    fleet = [{"id": "d0", "cluster": 0, "cpu_capacity": MIPS,
              "native_utilisation": 1.0 - AVAILABLE, "distance": 0.0, "caf_score": 1.0},
             {"id": "d1", "cluster": 1, "cpu_capacity": 1e-3}]
    return Scenario(app_count=len(workload), policy=policy, reservation=reservation,
                    cluster_block=1, max_migrations_per_task=0, reservation_period=5.0,
                    utilisation_band=(0.0, 0.0), cloud_fraction=0.0, frame_bits=0.0,
                    deadline_changes_per_task=0, explicit_fleet=fleet,
                    explicit_workload=workload)


class TestWorkConservationUnderReservation:
    """Unfinished work on the device is the Lindley recursion of its arrivals,
    with peer tasks down-weighted or not."""

    @pytest.mark.parametrize("reservation", [True, False], ids=["res-on", "res-off"])
    @pytest.mark.parametrize("policy", ["mc", "baseline"])
    def test_unfinished_work_follows_the_lindley_recursion(self, policy, reservation):
        sc = two_class_scenario(policy, reservation)
        arrivals = [(t["submit_time"], t["length"] / RATE)
                    for app in sc.explicit_workload for t in app["tasks"]]
        sim = Simulation(sc)
        d0 = sim.nodes["d0"]
        replan = sim._replan
        lindley = [0, 0.0, 0.0]  # next arrival; the work just after the last one, and its time
        seen = {"two classes": 0, "weighted": 0}  # replans of d0 with both; with a reservation

        # tasks arrive at their submit time (no data, no round trip), and every
        # arrival at d0 is followed by a replan, before any later event
        def checking_replan(nrt):
            now = sim.now
            assert nrt is d0 or not nrt.running  # d1 never runs a task
            if nrt is d0:
                i, work, last = lindley
                while i < len(arrivals) and arrivals[i][0] <= now:
                    when, service = arrivals[i]
                    work, last, i = max(work - (when - last), 0.0) + service, when, i + 1
                lindley[:] = i, work, last
                left = sum(trt.length - trt.progress - trt.rate * (now - trt.last_update)
                           for trt in d0.running.values())
                # the abs term is 1e-9 of a mean service time, for an emptied device
                assert left / RATE == pytest.approx(max(work - (now - last), 0.0),
                                                     rel=1e-9, abs=1e-9)
                if d0.n_own and len(d0.running) > d0.n_own:
                    seen["two classes"] += 1
                    seen["weighted"] += d0.reservation.reserved_value > 0
            replan(nrt)

        sim._replan = checking_replan
        assert len(sim.run().records) == len(arrivals) and lindley[0] == len(arrivals)
        assert seen["two classes"] > 0
        assert (seen["weighted"] > 0) == reservation, seen
