"""Scenario configuration files: JSON with scenario/prices/fleet sections.

A config names every knob a run needs. Validation rejects out-of-range
values with the offending field name so CLI users get actionable errors.
The special path ``fixtures/fd-table`` loads the embedded five-device
worked example instead of reading a file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from .engine import (
    APP_SPEC_KEYS,
    FLEET_SPEC_KEYS,
    TASK_SPEC_KEYS,
    Scenario,
    Simulation,
    node_from_spec,
    task_from_spec,
)
from .fixtures import fd_table_scenario_config
from .model import PriceBook, SlaTerms, Tier, validate


class ConfigError(ValueError):
    pass


_RANGE_FIELDS = {
    "battery_range": (0.0, 100.0),
    "caf_range": (0.01, 10.0),
    "utilisation_band": (0.0, 1.0),
    "initial_utilisation": (0.0, 1.0),
    "distance_range": (0.0, 1e6),
    "deadline_range": (0.01, 1e6),
    "device_mips": (1.0, 1e9),
    "data_bytes_range": (1, 1 << 30),
    "discharge_range": (0.001, 100.0),
}

_TUPLE_FIELDS = set(_RANGE_FIELDS)

# Scalar scenario fields that must be numbers > 0 (False) or >= 0 (True).
_SIGNED_FIELDS = {
    "fluctuation_interval": False, "reservation_period": False,
    "device_bandwidth": False, "server_bandwidth": False,
    "max_supported_distance": False, "subtask_length": False, "task_length": False,
    "cloud_bandwidth": False, "cloud_processing_rate": False, "frame_bits": True,
    "submit_interval": True, "admission_optimism": False, "max_sim_time": False,
}

# Integer scenario fields and their minimums; devices_per_cluster's is
# waived when an explicit fleet replaces the generated one.
_INT_FIELDS = {
    "app_count": 0, "clusters": 1, "devices_per_cluster": 1, "servers_per_cluster": 0,
    "tasks_per_app": 1, "cluster_block": 1, "history_window": 2,
    "max_migrations_per_task": 0, "deadline_changes_per_task": 0,
}

# Likewise for each task of an explicit workload.
_TASK_SIGNED_FIELDS = {"length": False, "data_size": True, "deadline": False,
                       "submit_time": True}


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_sign(name: str, value, zero_ok: bool) -> None:
    if not _is_number(value) or value < 0 or (value == 0 and not zero_ok):
        raise ConfigError(f"{name}: must be {'>=' if zero_ok else '>'} 0")


def _check_range(name: str, value) -> tuple:
    lo_ok, hi_ok = _RANGE_FIELDS[name]
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ConfigError(f"{name}: expected [low, high]")
    integral = name == "data_bytes_range"  # bounds of rng.randint
    if not all(_is_int(v) if integral else _is_number(v) for v in value):
        raise ConfigError(f"{name}: bounds must be {'integers' if integral else 'numbers'}")
    lo, hi = value
    if lo > hi:
        raise ConfigError(f"{name}: low bound {lo} exceeds high bound {hi}")
    if lo < lo_ok or hi > hi_ok:
        raise ConfigError(f"{name}: [{lo}, {hi}] outside permitted [{lo_ok}, {hi_ok}]")
    return tuple(value)


def build_scenario(raw: dict) -> Scenario:
    """Turn the ``scenario`` section of a config into a Scenario, validating fields."""
    known = {f.name for f in dataclasses.fields(Scenario)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown scenario field")
        if key in _TUPLE_FIELDS:
            value = _check_range(key, value)
        elif key == "scripted_utilisation":
            value = _check_script(value)
        kwargs[key] = value
    scenario = Scenario(**kwargs)
    for name, low in _INT_FIELDS.items():
        value = getattr(scenario, name)
        fleet_given = name == "devices_per_cluster" and scenario.explicit_fleet is not None
        if not _is_int(value) or (value < low and not fleet_given):
            raise ConfigError(f"{name}: must be an integer >= {low}")
    if scenario.policy not in ("mc", "baseline"):
        raise ConfigError(f"policy: unknown policy {scenario.policy!r}")
    if not (_is_number(scenario.cloud_fraction) and 0.0 <= scenario.cloud_fraction <= 1.0):
        raise ConfigError("cloud_fraction: must be within [0, 1]")
    if not (_is_number(scenario.deadline_variation_pct)
            and 0.0 <= scenario.deadline_variation_pct <= 100.0):
        raise ConfigError("deadline_variation_pct: must be within [0, 100]")
    for name, zero_ok in _SIGNED_FIELDS.items():
        _check_sign(name, getattr(scenario, name), zero_ok)
    # the fluctuation floor keeps every available fraction (and history sample) > 0
    if not (_is_number(scenario.min_available) and 0.0 < scenario.min_available < 0.98):
        raise ConfigError("min_available: must be within (0, 0.98)")
    # stored reservations start at 0, so a cap >= 0 keeps every one within its cap
    if not (_is_number(scenario.reservation_cap_fraction)
            and 0.0 <= scenario.reservation_cap_fraction <= 1.0):
        raise ConfigError("reservation_cap_fraction: must be within [0, 1]")
    if scenario.explicit_fleet is not None:
        _check_fleet(scenario)
    elif scenario.distance_range[1] >= scenario.max_supported_distance:
        raise ConfigError(f"distance_range: upper bound {scenario.distance_range[1]} must be "
                          f"below max_supported_distance {scenario.max_supported_distance}")
    if scenario.explicit_workload is not None:
        _check_workload(scenario.explicit_workload)
    if scenario.scripted_utilisation:
        node_ids = Simulation(scenario).nodes
        for i, (_, node_id, _) in enumerate(scenario.scripted_utilisation):
            if node_id not in node_ids:
                raise ConfigError(f"scripted_utilisation[{i}]: unknown node {node_id!r}")
    return scenario


def _check_script(script) -> tuple:
    """``[time >= 0, node id, available]`` entries; their ids are checked against the fleet later."""
    if not isinstance(script, list):
        raise ConfigError("scripted_utilisation: expected a list of [time, node id, available]")
    for i, entry in enumerate(script):
        if not (isinstance(entry, list) and len(entry) == 3 and _is_number(entry[0])
                and entry[0] >= 0 and isinstance(entry[1], str) and _is_number(entry[2])):
            raise ConfigError(f"scripted_utilisation[{i}]: expected [time >= 0, node id, "
                              "available] with numbers for time and available")
    return tuple(tuple(entry) for entry in script)


def _check_fleet(scenario: Scenario) -> None:
    """Reject fleet entries the engine could not build or whose node breaks an invariant."""
    if not isinstance(scenario.explicit_fleet, list):
        raise ConfigError("fleet: expected a list of objects")
    seen = set()
    devices = 0
    for i, spec in enumerate(scenario.explicit_fleet):
        where = f"fleet[{i}]"
        _check_entry(where, spec, FLEET_SPEC_KEYS, ("id", "cpu_capacity"))
        try:
            node = node_from_spec(spec, scenario)
            problems = validate(node)
            if spec.get("bandwidth", 1.0) <= 0:
                problems.append("bandwidth must be > 0")
            if spec["id"] in seen:
                problems.append(f"duplicate id {spec['id']!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if problems:
            raise ConfigError(f"{where}: {'; '.join(problems)}")
        seen.add(spec["id"])
        devices += node.tier is Tier.FOG_DEVICE
    if not devices:
        raise ConfigError("fleet: needs at least one fog_device entry")


def _check_workload(workload) -> None:
    """Reject workload entries the engine could not build or would run wrongly."""
    if not isinstance(workload, list):
        raise ConfigError("workload: expected a list of objects")
    app_ids = set()
    task_ids = set()
    for i, app in enumerate(workload):
        where = f"workload[{i}]"
        _check_entry(where, app, APP_SPEC_KEYS, ("id", "tasks"))
        if app["id"] in app_ids:
            raise ConfigError(f"{where}.id: duplicate id {app['id']!r}")
        app_ids.add(app["id"])
        if not isinstance(app.get("user_id", ""), str):
            raise ConfigError(f"{where}.user_id: expected a string")
        if not isinstance(app["tasks"], list):
            raise ConfigError(f"{where}.tasks: expected a list of objects")
        for j, spec in enumerate(app["tasks"]):
            at = f"{where}.tasks[{j}]"
            _check_entry(at, spec, TASK_SPEC_KEYS, ("id", "length", "data_size", "deadline"))
            task = task_from_spec(spec, app["id"])
            for name, zero_ok in _TASK_SIGNED_FIELDS.items():
                _check_sign(f"{at}.{name}", getattr(task, name), zero_ok)
            if task.id in task_ids:
                raise ConfigError(f"{at}.id: duplicate id {task.id!r}")
            task_ids.add(task.id)


def _check_entry(where: str, spec, keys: frozenset, required: tuple) -> None:
    """An object with only known keys, every required one, and a string ``id``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in spec:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown field")
    for key in required:
        if key not in spec:
            raise ConfigError(f"{where}.{key}: required field missing")
    if not isinstance(spec["id"], str):
        raise ConfigError(f"{where}.id: expected a string")


def build_prices(raw: dict) -> PriceBook:
    known = {f.name for f in dataclasses.fields(PriceBook)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"prices.{key}: unknown field")
    prices = PriceBook(**raw)
    for name in ("connectivity_unit", "messaging_unit", "processing_unit"):
        if getattr(prices, name) < 0:
            raise ConfigError(f"prices.{name}: must be >= 0")
    if prices.data_unit <= 0:
        raise ConfigError("prices.data_unit: must be > 0")
    if prices.server_divisor < 1 or prices.device_divisor < 1:
        raise ConfigError("prices: tier divisors must be >= 1")
    return prices


def build_sla(raw: dict) -> SlaTerms:
    for key in raw:
        if key not in ("base_penalty", "penalty_rate"):
            raise ConfigError(f"sla.{key}: unknown field")
    terms = SlaTerms(**raw)
    if terms.base_penalty < 0 or terms.penalty_rate < 0:
        raise ConfigError("sla: penalties must be >= 0")
    return terms


def expand_policy(value) -> list[str]:
    """Policies one ``policy`` setting stands for: "mc", "baseline" or "both"."""
    policies = ["mc", "baseline"] if value == "both" else [value]
    for p in policies:
        if p not in ("mc", "baseline"):
            raise ConfigError(f"policy: unknown policy {p!r}")
    return policies


_RESERVATION_SETS = {"on": (True,), "off": (False,), "both": (True, False)}


def expand_reservation(value) -> list[bool]:
    """Reservation settings one ``reservation`` value stands for.

    Accepts a JSON boolean or one of "on", "off" and "both".
    """
    if isinstance(value, bool):
        return [value]
    if isinstance(value, str) and value in _RESERVATION_SETS:
        return list(_RESERVATION_SETS[value])
    raise ConfigError(
        f'reservation: expected true, false, "on", "off" or "both", got {value!r}')


@dataclasses.dataclass
class RunConfig:
    scenario: Scenario
    prices: PriceBook
    sla: SlaTerms
    policy_set: list[str]
    reservation_set: list[bool]


def load_config(path: str) -> RunConfig:
    """Load a config file (or the embedded fixture) into run-ready objects."""
    if path == "fixtures/fd-table":
        data = fd_table_scenario_config()
    else:
        file = Path(path)
        if not file.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(file.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    raw_scenario = dict(data.get("scenario", {}))
    if "fleet" in data:
        raw_scenario["explicit_fleet"] = data["fleet"]
    if "workload" in data:
        raw_scenario["explicit_workload"] = data["workload"]
        if isinstance(data["workload"], list):
            raw_scenario.setdefault("app_count", len(data["workload"]))
    policy_set = expand_policy(raw_scenario.pop("policy", "mc"))
    reservation_set = expand_reservation(raw_scenario.pop("reservation", True))
    scenario = build_scenario(raw_scenario)
    prices = build_prices(dict(data.get("prices", {})))
    sla = build_sla(dict(data.get("sla", {})))
    return RunConfig(scenario=scenario, prices=prices, sla=sla,
                     policy_set=policy_set, reservation_set=reservation_set)
