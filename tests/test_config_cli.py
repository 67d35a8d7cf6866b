import json

import pytest

from fogsim.cli import main
from fogsim.config import ConfigError, load_config
from fogsim.experiments import CSV_COLUMNS, axis_cells, scenario_id


def small_config(tmp_path, **scenario_overrides):
    scenario = {
        "seed": 1,
        "app_count": 4,
        "policy": "mc",
        "reservation": True,
        "clusters": 2,
        "devices_per_cluster": 3,
        "submit_interval": 4.0,
        "fluctuation_interval": 2.0,
        "deadline_range": [6.0, 16.0],
        "distance_range": [5.0, 30.0],
        "device_mips": [3000.0, 6000.0],
        "initial_utilisation": [0.2, 0.55],
    }
    scenario.update(scenario_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": scenario}))
    return str(path)


def fleet_config(tmp_path, **device_overrides):
    device = {"id": "d0", "cpu_capacity": 4000.0, "distance": 10.0}
    device.update(device_overrides)
    device = {k: v for k, v in device.items() if v is not None}
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({"scenario": {"app_count": 1, "clusters": 1},
                                "fleet": [{"id": "s0", "cpu_capacity": 8000.0,
                                           "tier": "fog_server"}, device]}))
    return str(path)


class TestConfigLoading:
    def test_fixture_alias(self):
        cfg = load_config("fixtures/fd-table")
        assert cfg.scenario.explicit_fleet is not None
        assert len(cfg.scenario.explicit_fleet) == 5
        assert cfg.policy_set == ["mc"]
        assert cfg.reservation_set == [False]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("does/not/exist.json")

    def test_battery_out_of_range_names_field(self, tmp_path):
        path = small_config(tmp_path, battery_range=[20.0, 120.0])
        with pytest.raises(ConfigError, match="battery_range"):
            load_config(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"wizard_mode": True}}))
        with pytest.raises(ConfigError, match="wizard_mode"):
            load_config(str(path))

    def test_bad_policy_named(self, tmp_path):
        path = small_config(tmp_path, policy="psychic")
        with pytest.raises(ConfigError, match="policy"):
            load_config(path)

    def test_both_flags_expand(self, tmp_path):
        path = small_config(tmp_path, policy="both", reservation="both")
        cfg = load_config(path)
        assert cfg.policy_set == ["mc", "baseline"]
        assert cfg.reservation_set == [True, False]

    @pytest.mark.parametrize("value,expected", [
        (True, [True]), (False, [False]), ("on", [True]), ("off", [False]),
        ("both", [True, False]),
    ])
    def test_reservation_values(self, tmp_path, value, expected):
        assert load_config(small_config(tmp_path, reservation=value)).reservation_set == expected

    @pytest.mark.parametrize("value", ["sometimes", "true", 1, None, ["on"]])
    def test_bad_reservation_named(self, tmp_path, value):
        with pytest.raises(ConfigError, match="^reservation:"):
            load_config(small_config(tmp_path, reservation=value))

    @pytest.mark.parametrize("field", ["fluctuation_interval", "reservation_period"])
    @pytest.mark.parametrize("value", [0, -1.0])
    def test_non_positive_intervals_rejected(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be > 0"):
            load_config(small_config(tmp_path, **{field: value}))

    def test_unknown_sla_field_named(self, tmp_path):
        path = tmp_path / "sla.json"
        path.write_text(json.dumps({"sla": {"base_penalty": 0.2, "penalty_rat": 0.1}}))
        with pytest.raises(ConfigError, match=r"^sla\.penalty_rat: unknown field"):
            load_config(str(path))

    def test_sla_fields_read(self, tmp_path):
        path = tmp_path / "sla.json"
        path.write_text(json.dumps({"sla": {"base_penalty": 0.2}}))
        sla = load_config(str(path)).sla
        assert (sla.base_penalty, sla.penalty_rate) == (0.2, 0.05)

    def test_valid_fleet_accepted(self, tmp_path):
        cfg = load_config(fleet_config(tmp_path))
        assert [spec["id"] for spec in cfg.scenario.explicit_fleet] == ["s0", "d0"]

    @pytest.mark.parametrize("overrides,message", [
        ({"distance": 60.0}, r"^fleet\[1\]: distance exceeds max supported distance"),
        ({"cpu_capacity": None}, r"^fleet\[1\]\.cpu_capacity: required field missing"),
        ({"cpu_capacity": -5.0}, r"^fleet\[1\]: cpu_capacity must be > 0"),
        ({"battery_charge": 140.0}, r"^fleet\[1\]: battery_charge outside"),
        ({"tier": "mainframe"}, r"^fleet\[1\]: 'mainframe' is not a valid Tier"),
        ({"bandwidth": 0.0}, r"^fleet\[1\]: bandwidth must be > 0"),
        ({"cpu": 100.0}, r"^fleet\[1\]\.cpu: unknown field"),
        ({"id": "s0"}, r"^fleet\[1\]: duplicate id 's0'"),
    ])
    def test_bad_fleet_entry_named(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            load_config(fleet_config(tmp_path, **overrides))


class TestAxes:
    def test_apps_axis_cells(self):
        cells = axis_cells("apps")
        assert [c[0] for c in cells] == [str(n) for n in range(70, 561, 70)]

    def test_deadline_axis_cells(self):
        assert [c[0] for c in axis_cells("deadline_variation")] == [
            "10", "20", "30", "40", "50", "60", "70", "80"]

    def test_fluctuation_axis_has_nine_cells(self):
        assert [c[0] for c in axis_cells("fluctuation")] == [f"AF{i}" for i in range(1, 10)]

    def test_free_resource_and_battery_have_six(self):
        assert len(axis_cells("free_resource")) == 6
        assert len(axis_cells("battery")) == 6

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            axis_cells("nonsense")


class TestRunCommand:
    def test_smoke_run_writes_csv_and_json(self, tmp_path):
        path = small_config(tmp_path, policy="both")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        csv_text = (out / "run.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3  # two policy cells, one reservation value
        report = json.loads((out / "run.json").read_text())
        assert len(report) == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path, battery_range=[20.0, 120.0])
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "battery_range" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,field", [
        ({"distance": 60.0}, "distance"), ({"cpu_capacity": None}, "cpu_capacity")])
    def test_bad_fleet_exit_code(self, tmp_path, capsys, overrides, field):
        assert main(["run", fleet_config(tmp_path, **overrides),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "fleet[1]" in err and field in err and "Traceback" not in err

    def test_bad_reservation_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path, reservation="sometimes")
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "reservation:" in capsys.readouterr().err

    def test_max_sim_time_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path, max_sim_time=3.0)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "max_sim_time=3.0" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        path = small_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", path, "--out", str(out_a)])
        main(["run", path, "--out", str(out_b)])
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
        assert (out_a / "run.json").read_bytes() == (out_b / "run.json").read_bytes()

    def test_fixture_run(self, tmp_path):
        out = tmp_path / "fd"
        assert main(["run", "fixtures/fd-table", "--out", str(out)]) == 0
        lines = (out / "run.csv").read_text().strip().splitlines()
        assert len(lines) == 2


class TestSweepCommand:
    def test_battery_axis_sweep_and_resume(self, tmp_path):
        path = small_config(tmp_path, app_count=3, devices_per_cluster=2)
        out = tmp_path / "sweep"
        assert main(["sweep", path, "--axis", "battery", "--seeds", "1",
                     "--out", str(out)]) == 0
        csv_path = out / "sweep-battery.csv"
        first = csv_path.read_bytes()
        lines = first.decode().strip().splitlines()
        # 6 cells x 1 seed + 6 mean rows + header
        assert len(lines) == 13
        cells = list((out / "cells").glob("*.json"))
        assert len(cells) == 6
        stamps = {c: c.stat().st_mtime_ns for c in cells}
        assert main(["sweep", path, "--axis", "battery", "--seeds", "1",
                     "--out", str(out)]) == 0
        assert csv_path.read_bytes() == first
        assert {c: c.stat().st_mtime_ns for c in cells} == stamps  # cached cells untouched

    def test_rows_sorted_and_labelled(self, tmp_path):
        path = small_config(tmp_path, app_count=3, devices_per_cluster=2)
        out = tmp_path / "sweep2"
        main(["sweep", path, "--axis", "battery", "--seeds", "2", "--out", str(out),
              "--policy", "mc", "--reservation", "on"])
        lines = (out / "sweep-battery.csv").read_text().strip().splitlines()[1:]
        seeds = [line.split(",")[4] for line in lines]
        assert seeds.count("mean") == 6
        sids = [line.split(",")[0] for line in lines if "mean" not in line]
        assert sids[0] == scenario_id("battery", "BA1", "mc", True, 1)
