"""Scenario configuration files: JSON with scenario, prices, sla, fleet and workload sections.

A config names every knob a run needs. Validation rejects out-of-range
values with the offending field name so CLI users get actionable errors.
The special path ``fixtures/fd-table`` loads the embedded five-device
worked example instead of reading a file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

from .engine import (APP_SPEC_KEYS, FLEET_SPEC_KEYS, TASK_SPEC_KEYS, Scenario, fleet_specs,
                     node_from_spec, stalled_period)
from .fixtures import fd_table_scenario_config
from .model import PriceBook, SlaTerms, Tier, validate


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Rule:
    """What one config number must be.

    A finite number, or an integer when ``integer`` is set, and never a
    boolean, within ``low`` and ``high`` (both exclusive when ``open``).
    ``shape`` 1 is one value, 2 a ``[low, high]`` pair with low <= high,
    and 0 a list of any length.
    """

    integer: bool = False
    low: float = -math.inf
    high: float = math.inf
    open: bool = False
    shape: int = 1

    def fits(self, v) -> bool:
        if isinstance(v, bool) or not isinstance(v, int if self.integer else (int, float)):
            return False
        return (abs(v) <= sys.float_info.max  # rejects NaN, infinities and huge integers
                and (self.low < v < self.high if self.open else self.low <= v <= self.high))

    def check(self, name: str, value):
        """``value`` (a tuple for pairs and lists) if it obeys the rule; else name the field."""
        items = [value] if self.shape == 1 else value
        if not (isinstance(items, list) and len(items) == (self.shape or len(items))
                and all(map(self.fits, items)) and (self.shape != 2 or items[0] <= items[1])):
            raise ConfigError(f"{name}: must be {self.describe()}")
        return value if self.shape == 1 else tuple(value)

    def describe(self) -> str:
        kind = "an integer" if self.integer else ""
        if self.high < math.inf:
            left, right = "()" if self.open else "[]"
            bounds = f"within {left}{self.low}, {self.high}{right}"
        elif self.low > -math.inf:
            bounds = f"{'>' if self.open else '>='} {self.low}"
        else:
            bounds, kind = "", kind or "a finite number"
        what = " ".join(filter(None, (kind, bounds)))
        return {1: what, 2: f"[low, high] with low <= high, each {what}",
                0: f"a list, each {what}"}[self.shape]


_NUMBER = Rule()
_POSITIVE = Rule(low=0, open=True)
_NON_NEGATIVE = Rule(low=0)
_FRACTION = Rule(low=0, high=1)


def _count(low: float = -math.inf) -> Rule:
    """An integer, at least ``low``."""
    return Rule(integer=True, low=low)


def _pair(low: float, high: float, integer: bool = False) -> Rule:
    return Rule(integer=integer, low=low, high=high, shape=2)


# One rule per number a config can set. Scenario fields are named bare in
# messages; the other tables are named by their section or entry.
SCENARIO_RULES = {
    "seed": _count(), "app_count": _count(0), "clusters": _count(1),
    "devices_per_cluster": _count(1), "servers_per_cluster": _count(0),
    "tasks_per_app": _count(1), "cluster_block": _count(1), "history_window": _count(2),
    "max_migrations_per_task": _count(0), "deadline_changes_per_task": _count(0),
    "device_mips": _pair(1.0, 1e9), "distance_range": _pair(0.0, 1e6),
    "battery_range": _pair(0.0, 100.0), "caf_range": _pair(0.01, 10.0),
    "discharge_range": _pair(0.001, 100.0), "initial_utilisation": _pair(0.0, 1.0),
    "utilisation_band": _pair(0.0, 1.0), "deadline_range": _pair(0.01, 1e6),
    "data_bytes_range": _pair(1, 1 << 30, integer=True),  # bounds of rng.randint
    "server_mips": _POSITIVE, "device_bandwidth": _POSITIVE, "server_bandwidth": _POSITIVE,
    "max_supported_distance": _POSITIVE, "task_length": _POSITIVE,
    "subtask_length": _POSITIVE, "fluctuation_interval": _POSITIVE,
    "reservation_period": _POSITIVE, "admission_optimism": _POSITIVE,
    "cloud_bandwidth": _POSITIVE, "cloud_processing_rate": _POSITIVE,
    "max_sim_time": _POSITIVE, "submit_interval": _NON_NEGATIVE, "frame_bits": _NON_NEGATIVE,
    "cloud_fraction": _FRACTION, "deadline_variation_pct": Rule(low=0, high=100),
    # stored reservations start at 0, so a cap >= 0 keeps every one within its cap
    "reservation_cap_fraction": _FRACTION,
    # the fluctuation floor keeps every available fraction (and history sample) > 0
    "min_available": Rule(low=0, high=0.98, open=True),
}
PRICE_RULES = {
    "connectivity_unit": _NON_NEGATIVE, "messaging_unit": _NON_NEGATIVE,
    "processing_unit": _NON_NEGATIVE, "data_unit": _POSITIVE,
    "server_divisor": Rule(low=1), "device_divisor": Rule(low=1),
}
# ``SlaTerms.delay_time`` is per violation: the run sets it, a config cannot.
SLA_RULES = {"base_penalty": _NON_NEGATIVE, "penalty_rate": _NON_NEGATIVE}
TASK_RULES = {"length": _POSITIVE, "data_size": _NON_NEGATIVE, "deadline": _POSITIVE,
              "submit_time": _NON_NEGATIVE}
# Types only: ``model.validate`` checks the ranges of the node an entry builds.
FLEET_RULES = {
    "cpu_capacity": _NUMBER, "free_resource_fraction": _NUMBER,
    "native_utilisation": _NUMBER, "battery_charge": _NUMBER,
    "discharge_rates": Rule(shape=0), "distance": _NUMBER,
    "max_supported_distance": _NUMBER, "caf_score": _NUMBER, "bandwidth": _NUMBER,
    "cluster": _count(0),
}


SECTIONS = ("scenario", "prices", "sla", "fleet", "workload")


def _read(where: str, raw, rules: dict, keys=frozenset(), required: tuple = ()) -> dict:
    """``raw`` as one checked config object: each number by its rule (pairs as tuples).

    Any other key must be in ``keys``; ``required`` keys must be present,
    and a required ``id`` must be a string. Messages start with ``where``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    bare = where == "scenario"
    fields = {}
    for key, value in raw.items():
        name = key if bare else f"{where}.{key}"
        if key in rules:
            value = rules[key].check(name, value)
        elif key not in keys:
            raise ConfigError(f"{name}: unknown {'scenario field' if bare else 'field'}")
        fields[key] = value
    for key in required:
        if key not in raw:
            raise ConfigError(f"{where}.{key}: required field missing")
    if "id" in required and not isinstance(raw["id"], str):
        raise ConfigError(f"{where}.id: expected a string")
    return fields


def build_scenario(fields: dict, fleet: list | None = None,
                   workload: list | None = None) -> Scenario:
    """A Scenario from checked ``scenario`` fields and an optional explicit fleet and workload."""
    if "scripted_utilisation" in fields:
        fields = dict(fields, scripted_utilisation=_check_script(fields["scripted_utilisation"]))
    scenario = Scenario(**fields, explicit_fleet=fleet, explicit_workload=workload)
    if fleet is not None:
        _check_fleet(scenario)
    elif scenario.distance_range[1] >= scenario.max_supported_distance:
        raise ConfigError(f"distance_range: upper bound {scenario.distance_range[1]} must be "
                          f"below max_supported_distance {scenario.max_supported_distance}")
    if problem := stalled_period(scenario):
        raise ConfigError(problem)
    if workload is not None:
        _check_workload(workload)
    if scenario.scripted_utilisation:
        node_ids = {spec["id"] for spec in fleet_specs(scenario)}
        for i, (_, node_id, _) in enumerate(scenario.scripted_utilisation):
            if node_id not in node_ids:
                raise ConfigError(f"scripted_utilisation[{i}]: unknown node {node_id!r}")
    return scenario


def _check_script(script) -> tuple:
    """``[time >= 0, node id, available]`` entries; their ids are checked against the fleet later."""
    if not isinstance(script, list):
        raise ConfigError("scripted_utilisation: expected a list of [time, node id, available]")
    for i, entry in enumerate(script):
        if not (isinstance(entry, list) and len(entry) == 3 and _NON_NEGATIVE.fits(entry[0])
                and isinstance(entry[1], str) and _NUMBER.fits(entry[2])):
            raise ConfigError(f"scripted_utilisation[{i}]: expected [time >= 0, node id, "
                              "available] with numbers for time and available")
    return tuple(tuple(entry) for entry in script)


def _check_fleet(scenario: Scenario) -> None:
    """Reject fleet entries the engine could not build or whose node breaks an invariant."""
    seen = set()
    devices = 0
    for i, spec in enumerate(scenario.explicit_fleet):
        where = f"fleet[{i}]"
        _read(where, spec, FLEET_RULES, FLEET_SPEC_KEYS, ("id", "cpu_capacity"))
        if spec.get("tier", Tier.FOG_DEVICE) not in tuple(Tier):
            raise ConfigError(f"{where}: {spec['tier']!r} is not a valid Tier; tier must be "
                              f"one of {', '.join(t.value for t in Tier)}")
        if ({"free_resource_fraction", "native_utilisation"} <= spec.keys() and
                abs(spec["free_resource_fraction"] + spec["native_utilisation"] - 1.0) > 1e-9):
            raise ConfigError(f"{where}.free_resource_fraction: must equal "
                              "1 - native_utilisation when both are given")
        node = node_from_spec(spec, scenario)
        problems = validate(node)
        if spec.get("bandwidth", 1.0) <= 0:
            problems.append("bandwidth must be > 0")
        if spec["id"] in seen:
            problems.append(f"duplicate id {spec['id']!r}")
        if problems:
            raise ConfigError(f"{where}: {'; '.join(problems)}")
        seen.add(spec["id"])
        devices += node.tier is Tier.FOG_DEVICE
    if not devices:
        raise ConfigError("fleet: needs at least one fog_device entry")


def _check_workload(workload: list) -> None:
    """Reject workload entries the engine could not build or would run wrongly."""
    app_ids = set()
    task_ids = set()
    for i, app in enumerate(workload):
        where = f"workload[{i}]"
        _read(where, app, {}, APP_SPEC_KEYS, ("id", "tasks"))
        if app["id"] in app_ids:
            raise ConfigError(f"{where}.id: duplicate id {app['id']!r}")
        app_ids.add(app["id"])
        if not isinstance(app.get("user_id", ""), str):
            raise ConfigError(f"{where}.user_id: expected a string")
        if not isinstance(app["tasks"], list):
            raise ConfigError(f"{where}.tasks: expected a list of objects")
        for j, spec in enumerate(app["tasks"]):
            at = f"{where}.tasks[{j}]"
            _read(at, spec, TASK_RULES, TASK_SPEC_KEYS, ("id", "length", "data_size", "deadline"))
            if spec["id"] in task_ids:
                raise ConfigError(f"{at}.id: duplicate id {spec['id']!r}")
            task_ids.add(spec["id"])


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
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:  # a directory, say, or no permission to read
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
        except ValueError as exc:  # also undecodable bytes and over-long integers
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    for key in data:
        if key not in SECTIONS:
            raise ConfigError(f"{key}: unknown section; sections are {', '.join(SECTIONS)}")
    for key in ("fleet", "workload"):
        if key in data and not isinstance(data[key], list):
            raise ConfigError(f"{key}: expected a list of objects")
    fleet, workload = data.get("fleet"), data.get("workload")
    # devices_per_cluster only shapes a generated fleet
    rules = SCENARIO_RULES if fleet is None else dict(SCENARIO_RULES,
                                                      devices_per_cluster=_count(0))
    fields = _read("scenario", data.get("scenario", {}), rules,
                   {"policy", "reservation", "scripted_utilisation"})
    policy_set = expand_policy(fields.pop("policy", "mc"))
    reservation_set = expand_reservation(fields.pop("reservation", True))
    if workload is not None and fields.setdefault("app_count", len(workload)) != len(workload):
        raise ConfigError(f"app_count: {fields['app_count']} does not match the workload "
                          f"section's length {len(workload)}")
    return RunConfig(scenario=build_scenario(fields, fleet, workload),
                     prices=PriceBook(**_read("prices", data.get("prices", {}), PRICE_RULES)),
                     sla=SlaTerms(**_read("sla", data.get("sla", {}), SLA_RULES)),
                     policy_set=policy_set, reservation_set=reservation_set)
