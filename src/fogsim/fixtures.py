"""The five-device worked example used by golden tests and demos.

The table below describes five heterogeneous fog devices competing for a
1000 MI task with a 5 second deadline. Expected completion times and
availability scores are the reference values this table is checked
against; capacities for FD4 and FD5 follow the execution-time column
(0.5 s and 1/3 s), which the raw capacity column contradicts by a factor
of ten.
"""

from __future__ import annotations

from .model import FogNode, Task, Tier

# Per-device inputs: capacity (MIPS), free fraction, availability (minutes),
# distance-throughput, fluctuation score, pairwise migration seconds.
_FD_ROWS = {
    "FD1": dict(capacity=1000.0, free=0.5, avail=10.0, t_bd=0.9, caf=0.5,
                migration={"FD2": 2.0, "FD3": 4.0, "FD4": 3.0, "FD5": 1.0}),
    "FD2": dict(capacity=500.0, free=0.6, avail=12.0, t_bd=0.8, caf=0.8,
                migration={"FD1": 2.0, "FD3": 5.0, "FD4": 2.0, "FD5": 3.0}),
    "FD3": dict(capacity=100.0, free=0.3, avail=20.0, t_bd=0.5, caf=1.0,
                migration={"FD1": 4.0, "FD2": 5.0, "FD4": 4.0, "FD5": 2.0}),
    "FD4": dict(capacity=2000.0, free=0.4, avail=30.0, t_bd=0.7, caf=1.3,
                migration={"FD1": 3.0, "FD2": 2.0, "FD3": 4.0, "FD5": 1.0}),
    "FD5": dict(capacity=3000.0, free=0.2, avail=5.0, t_bd=0.55, caf=0.9,
                migration={"FD1": 1.0, "FD2": 3.0, "FD3": 2.0, "FD4": 1.0}),
}

# Reference outputs for the 1000 MI task: execution time as tabulated,
# completion time and availability score (tolerance +/-0.01).
EXPECTED = {
    "FD1": dict(e_t=1.0, c_t=4.44, a_s=2.25),
    "FD2": dict(e_t=2.0, c_t=5.21, a_s=2.304),
    "FD3": dict(e_t=10.0, c_t=66.67, a_s=0.3),
    "FD4": dict(e_t=0.5, c_t=1.37, a_s=21.84),
    "FD5": dict(e_t=1.0 / 3.0, c_t=3.37, a_s=1.485),
}

# Capacities as printed in the input table; FD4/FD5 disagree with the
# execution-time column used everywhere else (10x too small).
PRINTED_CAPACITIES = {"FD1": 1000.0, "FD2": 500.0, "FD3": 100.0, "FD4": 200.0, "FD5": 300.0}

MAX_SUPPORTED_DISTANCE = 40.0


def fd_table_nodes() -> list[FogNode]:
    """The five devices, with distances chosen so 1 - d/d_max hits each t_bd."""
    nodes = []
    for name, row in _FD_ROWS.items():
        distance = (1.0 - row["t_bd"]) * MAX_SUPPORTED_DISTANCE
        # battery/discharge pairs that land exactly on the availability column
        drain = 2.0
        battery = row["avail"] * drain
        nodes.append(FogNode(
            id=name,
            tier=Tier.FOG_DEVICE,
            cpu_capacity=row["capacity"],
            free_resource_fraction=row["free"],
            native_utilisation=1.0 - row["free"],
            battery_charge=battery,
            discharge_rates=[drain],
            distance=distance,
            max_supported_distance=MAX_SUPPORTED_DISTANCE,
            caf_score=row["caf"],
        ))
    return nodes


def fd_table_task(length: float = 1000.0, deadline: float = 5.0) -> Task:
    return Task(id="t0", app_id="a0", length=length,
                data_size=40960.0, deadline=deadline)


def migration_times_from(src: str) -> dict[str, float]:
    return dict(_FD_ROWS[src]["migration"])


def fd_table_scenario_config() -> dict:
    """Config dict for a run over the five-device fleet with one 1000 MI task.

    This is the embedded scenario the CLI exposes under the config path
    ``fixtures/fd-table``.
    """
    fleet = []
    for name, row in _FD_ROWS.items():
        fleet.append({
            "id": name,
            "tier": "fog_device",
            "cpu_capacity": row["capacity"],
            "free_resource_fraction": row["free"],
            "native_utilisation": 1.0 - row["free"],
            "battery_charge": row["avail"] * 2.0,
            "discharge_rates": [2.0],
            "distance": (1.0 - row["t_bd"]) * MAX_SUPPORTED_DISTANCE,
            "max_supported_distance": MAX_SUPPORTED_DISTANCE,
            "caf_score": row["caf"],
            "cluster": 0,
        })
    return {
        "scenario": {
            "seed": 1,
            "app_count": 1,
            "policy": "mc",
            "reservation": False,
            "clusters": 1,
            "deadline_variation_pct": 0.0,
            "utilisation_band": [0.0, 0.0],
            "cloud_fraction": 0.0,
        },
        "fleet": fleet,
        "workload": [
            {
                "id": "a0",
                "user_id": "u0",
                "tasks": [
                    {"id": "t0", "length": 1000.0, "data_size": 40960.0,
                     "deadline": 5.0, "submit_time": 0.0}
                ],
            }
        ],
    }
