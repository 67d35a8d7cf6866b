"""Scenario configuration files: JSON with scenario/prices/fleet sections.

A config names every knob a run needs. Validation rejects out-of-range
values with the offending field name so CLI users get actionable errors.
The special path ``fixtures/fd-table`` loads the embedded five-device
worked example instead of reading a file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .engine import FLEET_SPEC_KEYS, Scenario, node_from_spec
from .fixtures import fd_table_scenario_config
from .model import PriceBook, SlaTerms, validate


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


def _check_range(name: str, value) -> tuple:
    lo_ok, hi_ok = _RANGE_FIELDS[name]
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ConfigError(f"{name}: expected [low, high]")
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
            value = tuple(tuple(item) for item in value)
        kwargs[key] = value
    scenario = Scenario(**kwargs)
    if scenario.app_count < 0:
        raise ConfigError("app_count: must be >= 0")
    if scenario.policy not in ("mc", "baseline"):
        raise ConfigError(f"policy: unknown policy {scenario.policy!r}")
    if scenario.clusters < 1:
        raise ConfigError("clusters: must be >= 1")
    if scenario.devices_per_cluster < 1 and scenario.explicit_fleet is None:
        raise ConfigError("devices_per_cluster: must be >= 1")
    if not 0.0 <= scenario.cloud_fraction <= 1.0:
        raise ConfigError("cloud_fraction: must be within [0, 1]")
    if scenario.deadline_variation_pct < 0 or scenario.deadline_variation_pct > 100:
        raise ConfigError("deadline_variation_pct: must be within [0, 100]")
    if scenario.fluctuation_interval <= 0:
        raise ConfigError("fluctuation_interval: must be > 0")
    if scenario.reservation_period <= 0:
        raise ConfigError("reservation_period: must be > 0")
    if scenario.explicit_fleet is not None:
        _check_fleet(scenario)
    return scenario


def _check_fleet(scenario: Scenario) -> None:
    """Reject fleet entries the engine could not build or whose node breaks an invariant."""
    if not isinstance(scenario.explicit_fleet, list):
        raise ConfigError("fleet: expected a list of objects")
    seen = set()
    for i, spec in enumerate(scenario.explicit_fleet):
        where = f"fleet[{i}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"{where}: expected an object")
        for key in spec:
            if key not in FLEET_SPEC_KEYS:
                raise ConfigError(f"{where}.{key}: unknown field")
        try:
            problems = validate(node_from_spec(spec, scenario))
            if spec.get("bandwidth", 1.0) <= 0:
                problems.append("bandwidth must be > 0")
            if spec["id"] in seen:
                problems.append(f"duplicate id {spec['id']!r}")
        except KeyError as exc:
            raise ConfigError(f"{where}.{exc.args[0]}: required field missing") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if problems:
            raise ConfigError(f"{where}: {'; '.join(problems)}")
        seen.add(spec["id"])


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
        raw_scenario.setdefault("app_count", len(data["workload"]))
    policy_set = expand_policy(raw_scenario.pop("policy", "mc"))
    reservation_set = expand_reservation(raw_scenario.pop("reservation", True))
    scenario = build_scenario(raw_scenario)
    prices = build_prices(dict(data.get("prices", {})))
    sla = build_sla(dict(data.get("sla", {})))
    return RunConfig(scenario=scenario, prices=prices, sla=sla,
                     policy_set=policy_set, reservation_set=reservation_set)
