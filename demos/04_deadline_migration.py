"""Mid-run congestion forces a migration; watch the decision unfold.

A single task lands on the best device of the five-device reference
fleet. One second in, that device's native load spikes and the monitor
re-plans: among devices that can still meet the deadline, the one with
the highest availability score wins, even though a faster-finishing
device exists.
"""

import dataclasses

from fogsim.config import load_config
from fogsim.engine import Simulation
from fogsim.fixtures import fd_table_nodes, fd_table_task, migration_times_from
from fogsim.policies import handle_deadline_change

nodes = {n.id: n for n in fd_table_nodes()}
task = fd_table_task()

congested = nodes["FD4"]
congested.free_resource_fraction = 0.01
decision = handle_deadline_change(
    task, [nodes[i] for i in ("FD1", "FD2", "FD5")], new_deadline=5.0,
    current=congested, migration_times=migration_times_from("FD4"))
print("policy view after FD4 chokes:")
print(f"  deadline-feasible: {decision.feasible}")
print(f"  migration target : {decision.target_id}\n")

cfg = load_config("fixtures/fd-table")
scenario = dataclasses.replace(cfg.scenario, scripted_utilisation=((1.05, "FD4", 0.002),))
sim = Simulation(scenario)
trace = sim.run()
record = trace.records[0]
print("engine replay with a scripted native-load spike at t=1.05s:")
print(f"  migrations     : {record.migrations}")
print(f"  completed at   : {record.completion_time:.2f}s (deadline {record.deadline:.2f}s)")
print(f"  sla violated   : {record.violated}")
