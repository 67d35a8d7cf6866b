import copy

from fogsim.model import FogNode, ReservationState, Tier, validate


def in_range_node(**overrides):
    base = dict(
        id="d0",
        tier=Tier.FOG_DEVICE,
        cpu_capacity=2000.0,
        free_resource_fraction=0.5,
        native_utilisation=0.5,
        battery_charge=60.0,
        discharge_rates=[0.3, 0.2],
        distance=20.0,
        max_supported_distance=40.0,
        caf_score=0.9,
    )
    base.update(overrides)
    return FogNode(**base)


def test_valid_node_passes():
    assert validate(in_range_node()) == []


def test_free_fraction_above_one_reported():
    problems = validate(in_range_node(free_resource_fraction=1.2))
    assert any("free_resource_fraction > 1" in p for p in problems)


def test_distance_beyond_supported_reported():
    problems = validate(in_range_node(distance=50.0, max_supported_distance=40.0))
    assert any("distance exceeds" in p for p in problems)


def test_validation_reports_every_problem():
    node = in_range_node(cpu_capacity=-1.0, battery_charge=140.0, caf_score=0.0)
    problems = validate(node)
    assert len(problems) == 3


def test_validation_is_idempotent_and_pure():
    node = in_range_node(free_resource_fraction=1.5)
    before = copy.deepcopy(node)
    first = validate(node)
    second = validate(node)
    assert first == second
    assert node == before


def test_reservation_state_defaults():
    state = ReservationState()
    assert state.reserved_value == 0.0
    assert state.total_apps_processed == 0


# Shorthand used across the scoring and network formulas, and the unique
# field each one lives in. Guards against a symbol ending up with two homes.
NOTATION = {
    "CPU_s": ("FogNode", "cpu_capacity"),
    "F_rs": ("FogNode", "free_resource_fraction"),
    "CU_z": ("FogNode", "native_utilisation"),
    "A_b": ("FogNode", "battery_charge"),
    "A_dr": ("FogNode", "discharge_rates"),
    "G_d": ("FogNode", "distance"),
    "SD_max": ("FogNode", "max_supported_distance"),
    "CAF_s": ("FogNode", "caf_score"),
    "Fr_r": ("FogNode", "fluctuation_history"),
    "J_s": ("Task", "length"),
    "t_j": ("Task", "completed_work"),
    "D_s": ("Task", "data_size"),
    "T_d_deadline": ("Task", "deadline"),
    "b_w": ("NetworkLink", "endpoint_bandwidths"),
    "C": ("NetworkLink", "capacity"),
    "N_u": ("NetworkLink", "sharing_users"),
    "M_th": ("NetworkLink", "medium_throughput"),
    "Q_d": ("NetworkLink", "queuing_delay"),
    "T_d": ("NetworkLink", "transmission_delay"),
    "P_d": ("NetworkLink", "propagation_delay"),
    "PR_d": ("NetworkLink", "processing_delay"),
    "L": ("NetworkLink", "frame_length"),
    "T_r": ("NetworkLink", "transmission_rate"),
    "E_t": ("ScoreCard", "execution_time"),
    "M_t": ("ScoreCard", "migration_time"),
    "R_t": ("ScoreCard", "response_time"),
    "A_v": ("ScoreCard", "availability"),
    "T_bd": ("ScoreCard", "throughput_by_distance"),
    "C_t": ("ScoreCard", "completion_time"),
    "A_s": ("ScoreCard", "availability_score"),
    "R_v": ("ReservationState", "reserved_value"),
    "L_AR": ("ReservationState", "last_app_request"),
    "T_AP": ("ReservationState", "total_apps_processed"),
    "Req_res": ("ReservationState", "required_reservation"),
    "CP": ("PriceBook", "connectivity_unit"),
    "MP": ("PriceBook", "messaging_unit"),
    "PP": ("PriceBook", "processing_unit"),
    "U": ("PriceBook", "data_unit"),
    "FS_x": ("PriceBook", "server_divisor"),
    "FD_x": ("PriceBook", "device_divisor"),
    "P_u": ("TrafficCounters", "user_packets"),
    "PC_u": ("TrafficCounters", "cloud_packets"),
    "P_ip": ("TrafficCounters", "fog_internal"),
    "tP_u": ("TrafficCounters", "t_user"),
    "tPC_u": ("TrafficCounters", "t_cloud"),
    "tP_fd": ("TrafficCounters", "t_proc_device"),
    "tP_fs": ("TrafficCounters", "t_proc_server"),
    "tP_c": ("TrafficCounters", "t_proc_cloud"),
    "alpha": ("SlaTerms", "base_penalty"),
    "beta": ("SlaTerms", "penalty_rate"),
    "DT": ("SlaTerms", "delay_time"),
}


def test_notation_maps_to_unique_existing_fields():
    import fogsim.model as model

    homes = {}
    for symbol, (type_name, field_name) in NOTATION.items():
        cls = getattr(model, type_name)
        assert field_name in cls.__dataclass_fields__, (symbol, type_name, field_name)
        assert homes.setdefault(symbol, (type_name, field_name)) == (type_name, field_name)
    assert len(homes) == len(NOTATION)
