import concurrent.futures
import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogsim import experiments
from fogsim.cli import main
from fogsim.config import (FLEET_RULES, PRICE_RULES, SCENARIO_RULES, SLA_RULES, TASK_RULES,
                           ConfigError, load_config)
from fogsim.engine import (FLEET_SPEC_KEYS, TASK_SPEC_KEYS, Scenario, generate_workload,
                           node_from_spec)
from fogsim.model import PriceBook, SlaTerms
from fogsim.experiments import CSV_COLUMNS, axis_cells, scenario_id

ROOT = Path(__file__).resolve().parents[1]


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


def one_task_app(app_id="a0", task_id="t0", **task_overrides):
    task = {"id": task_id, "length": 1000.0, "data_size": 40960.0, "deadline": 8.0}
    task.update(task_overrides)
    return {"id": app_id, "user_id": "u0",
            "tasks": [{k: v for k, v in task.items() if v is not None}]}


def workload_config(tmp_path, workload):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"scenario": {"clusters": 1, "devices_per_cluster": 2},
                                "workload": workload}))
    return str(path)


BAD_WORKLOADS = [
    ({"id": "a0", "tasks": []}, r"^workload: expected a list of objects"),
    (["a0"], r"^workload\[0\]: expected an object"),
    ([{"id": "a0"}], r"^workload\[0\]\.tasks: required field missing"),
    ([{"id": "a0", "tasks": {"id": "t0"}}], r"^workload\[0\]\.tasks: expected a list"),
    ([{"id": "a0", "tasks": [], "deadline": 3}], r"^workload\[0\]\.deadline: unknown field"),
    ([{"id": 7, "tasks": []}], r"^workload\[0\]\.id: expected a string"),
    ([dict(one_task_app(), user_id=3)], r"^workload\[0\]\.user_id: expected a string"),
    ([one_task_app(length=None)], r"^workload\[0\]\.tasks\[0\]\.length: required field missing"),
    ([one_task_app(length=0)], r"^workload\[0\]\.tasks\[0\]\.length: must be > 0"),
    ([one_task_app(length="long")], r"^workload\[0\]\.tasks\[0\]\.length: must be > 0"),
    ([one_task_app(deadline=-2.0)], r"^workload\[0\]\.tasks\[0\]\.deadline: must be > 0"),
    ([one_task_app(data_size=-1)], r"^workload\[0\]\.tasks\[0\]\.data_size: must be >= 0"),
    ([one_task_app(submit_time=-1)], r"^workload\[0\]\.tasks\[0\]\.submit_time: must be >= 0"),
    ([one_task_app(size=1)], r"^workload\[0\]\.tasks\[0\]\.size: unknown field"),
    ([one_task_app(), one_task_app("a1")], r"^workload\[1\]\.tasks\[0\]\.id: duplicate id 't0'"),
    ([one_task_app(), one_task_app(task_id="t1")], r"^workload\[1\]\.id: duplicate id 'a0'"),
]

BAD_SCALARS = [
    ("device_bandwidth", 0), ("server_bandwidth", -1.0), ("max_supported_distance", 0),
    ("subtask_length", 0), ("task_length", 0), ("cloud_bandwidth", 0),
    ("cloud_processing_rate", 0), ("frame_bits", -1.0), ("min_available", 0),
    ("min_available", 0.98), ("reservation_cap_fraction", -0.1),
    ("submit_interval", -5), ("submit_interval", "a"), ("admission_optimism", 0),
    ("admission_optimism", "x"), ("max_sim_time", 0), ("max_sim_time", "1e6"),
    ("cloud_fraction", "0.1"), ("cloud_fraction", 1.5), ("deadline_variation_pct", "20"),
    ("deadline_variation_pct", None),
]

BAD_SCRIPTS = [
    (5, r"^scripted_utilisation: expected a list"),
    ({"t": 1.0}, r"^scripted_utilisation: expected a list"),
    ([[1.0, "nodeX", 0.5]], r"^scripted_utilisation\[0\]: unknown node 'nodeX'"),
    ([[1.0, "c0d00", 0.5], [2.0, "c9d00", 0.5]],
     r"^scripted_utilisation\[1\]: unknown node 'c9d00'"),
    ([[1.0, "c0d00"]], r"^scripted_utilisation\[0\]: expected \[time >= 0"),
    ([[-1.0, "c0d00", 0.5]], r"^scripted_utilisation\[0\]: expected \[time >= 0"),
    ([["1", "c0d00", 0.5]], r"^scripted_utilisation\[0\]: expected \[time >= 0"),
    ([[1.0, 3, 0.5]], r"^scripted_utilisation\[0\]: expected \[time >= 0"),
    ([[1.0, "c0d00", "low"]], r"^scripted_utilisation\[0\]: expected \[time >= 0"),
    (["c0d00"], r"^scripted_utilisation\[0\]: expected \[time >= 0"),
]

BAD_INTEGERS = [
    ("tasks_per_app", 2.5), ("tasks_per_app", 0), ("app_count", 2.0), ("app_count", -1),
    ("clusters", "2"), ("clusters", True), ("clusters", 0), ("devices_per_cluster", 0),
    ("servers_per_cluster", -1), ("cluster_block", 0), ("history_window", -3),
    ("history_window", 1), ("max_migrations_per_task", -1),
    ("deadline_changes_per_task", -1), ("deadline_changes_per_task", 1.0),
    ("data_bytes_range", [5120.5, 10240.5]),
]


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

    def test_deadline_range_bounds_every_deadline(self, tmp_path):
        cfg = load_config(small_config(tmp_path, app_count=20, deadline_range=[1.0, 2.0]))
        deadlines = [t.deadline for app in generate_workload(cfg.scenario) for t in app.tasks]
        assert len(deadlines) == 200
        assert all(1.0 <= d <= 2.0 for d in deadlines)

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

    @pytest.mark.parametrize("field", ["fluctuation_interval", "reservation_period"])
    def test_period_that_cannot_move_the_clock_rejected(self, tmp_path, field):
        with pytest.raises(ConfigError, match=f"^{field}: 1e-300 is too small to move the clock"):
            load_config(small_config(tmp_path, **{field: 1e-300}))

    @pytest.mark.parametrize("field", ["fluctuation_interval", "reservation_period"])
    def test_period_of_one_ulp_accepted(self, tmp_path, field):
        # slow to run, a step of one ulp at a time, but the clock can reach the guard
        period = math.ulp(1e6)
        cfg = load_config(small_config(tmp_path, max_sim_time=1e6, **{field: period}))
        assert getattr(cfg.scenario, field) == period

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

    def test_valid_workload_accepted(self, tmp_path):
        cfg = load_config(workload_config(tmp_path, [one_task_app(),
                                                     one_task_app("a1", "t1", submit_time=2)]))
        assert cfg.scenario.app_count == 2
        assert [a["id"] for a in cfg.scenario.explicit_workload] == ["a0", "a1"]

    @pytest.mark.parametrize("app_count", [0, 1, 5])
    def test_app_count_disagreeing_with_workload_named(self, tmp_path, app_count):
        path = tmp_path / "apps.json"
        path.write_text(json.dumps({"scenario": {"app_count": app_count, "clusters": 1},
                                    "workload": [one_task_app(), one_task_app("a1", "t1")]}))
        with pytest.raises(ConfigError, match=rf"^app_count: {app_count} does not match the "
                                              r"workload section's length 2$"):
            load_config(str(path))

    def test_app_count_agreeing_with_workload_accepted(self, tmp_path):
        path = tmp_path / "apps.json"
        path.write_text(json.dumps({"scenario": {"app_count": 1, "clusters": 1},
                                    "workload": [one_task_app()]}))
        assert load_config(str(path)).scenario.app_count == 1

    @pytest.mark.parametrize("workload,message", BAD_WORKLOADS)
    def test_bad_workload_entry_named(self, tmp_path, workload, message):
        with pytest.raises(ConfigError, match=message):
            load_config(workload_config(tmp_path, workload))

    @pytest.mark.parametrize("field", [
        "frame_bits", "reservation_cap_fraction", "app_count", "servers_per_cluster",
        "max_migrations_per_task", "deadline_changes_per_task"])
    def test_zero_floor_accepted(self, tmp_path, field):
        assert getattr(load_config(small_config(tmp_path, **{field: 0})).scenario, field) == 0

    @pytest.mark.parametrize("script,message", BAD_SCRIPTS)
    def test_bad_script_named(self, tmp_path, script, message):
        with pytest.raises(ConfigError, match=message):
            load_config(small_config(tmp_path, scripted_utilisation=script))

    def test_script_on_fleet_nodes_accepted(self, tmp_path):
        script = [[0.0, "c0d00", 0.5], [3.5, "c1d02", 0.05], [4.0, "c1s0", 0.9]]
        cfg = load_config(small_config(tmp_path, scripted_utilisation=script))
        assert cfg.scenario.scripted_utilisation == tuple(tuple(e) for e in script)
        assert load_config(fleet_config(tmp_path)).scenario.scripted_utilisation == ()
        path = tmp_path / "scripted-fleet.json"
        path.write_text(json.dumps({"scenario": {"app_count": 1, "clusters": 1,
                                                 "scripted_utilisation": [[1.0, "d0", 0.2]]},
                                    "fleet": [{"id": "d0", "cpu_capacity": 4000.0}]}))
        assert load_config(str(path)).scenario.scripted_utilisation == ((1.0, "d0", 0.2),)

    def test_fleet_waives_devices_per_cluster(self, tmp_path):
        path = tmp_path / "fleet0.json"
        path.write_text(json.dumps({"scenario": {"devices_per_cluster": 0},
                                    "fleet": [{"id": "d0", "cpu_capacity": 4000.0}]}))
        assert load_config(str(path)).scenario.devices_per_cluster == 0

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
        ({"distance": 45.0}, r"^fleet\[1\]: distance at max supported distance"),
        ({"id": 1}, r"^fleet\[1\]\.id: expected a string"),
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

    def test_app_count_disagreeing_with_workload_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"app_count": 5, "clusters": 1},
                                       "workload": [one_task_app()]})
        out = tmp_path / "o"
        assert main(["run", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: app_count: 5 does not match")
        assert not out.exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path, battery_range=[20.0, 120.0])
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "battery_range" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,field", [
        ({"distance": 60.0}, "distance"), ({"cpu_capacity": None}, "cpu_capacity"),
        ({"distance": 45.0}, "distance"), ({"id": 1}, "id")])
    def test_bad_fleet_exit_code(self, tmp_path, capsys, overrides, field):
        assert main(["run", fleet_config(tmp_path, **overrides),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "fleet[1]" in err and field in err and "Traceback" not in err

    @pytest.mark.parametrize("fleet", [[], [{"id": "s0", "cpu_capacity": 8000.0,
                                               "tier": "fog_server"}]])
    def test_fleet_without_device_exit_code(self, tmp_path, capsys, fleet):
        path = tmp_path / "no_device.json"
        path.write_text(json.dumps({"scenario": {"app_count": 1}, "fleet": fleet}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: fleet: needs at least one fog_device entry")
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"distance_range": [5.0, 60.0]}, {"distance_range": [5.0, 45.0]},
        {"max_supported_distance": 10}])
    def test_generated_fleet_distance_exit_code(self, tmp_path, capsys, overrides):
        assert main(["run", small_config(tmp_path, **overrides),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: distance_range: upper bound")
        assert "max_supported_distance" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", BAD_SCALARS)
    def test_bad_scalar_exit_code(self, tmp_path, capsys, field, value):
        assert main(["run", small_config(tmp_path, **{field: value}),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: must be") and "Traceback" not in err

    @pytest.mark.parametrize("script", [5, [[1.0, "nodeX", 0.5]], [[-1.0, "c0d00", 0.5]]])
    def test_bad_script_exit_code(self, tmp_path, capsys, script):
        assert main(["run", small_config(tmp_path, scripted_utilisation=script),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: scripted_utilisation") and "Traceback" not in err

    @pytest.mark.parametrize("field,value", BAD_INTEGERS)
    def test_bad_integer_exit_code(self, tmp_path, capsys, field, value):
        assert main(["run", small_config(tmp_path, **{field: value}),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err
        assert "integer" in err

    @pytest.mark.parametrize("field,value", [
        ("message_kb", "5"), ("cloud_latency", None), ("min_deadline", "4"),
        ("task_stagger", -100), ("spike_threshold", "a"), ("min_remaining_deadline", "x")])
    def test_removed_knobs_are_unknown_fields(self, tmp_path, capsys, field, value):
        assert main(["run", small_config(tmp_path, **{field: value}),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: unknown scenario field")
        assert "Traceback" not in err

    @pytest.mark.parametrize("workload,message", BAD_WORKLOADS[:2] + BAD_WORKLOADS[7:9])
    def test_bad_workload_exit_code(self, tmp_path, capsys, workload, message):
        assert main(["run", workload_config(tmp_path, workload),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: workload") and "Traceback" not in err

    def test_bad_reservation_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path, reservation="sometimes")
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "reservation:" in capsys.readouterr().err

    def test_max_sim_time_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path, max_sim_time=3.0)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "max_sim_time=3.0" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["fluctuation_interval", "reservation_period"])
    def test_stalled_period_exit_code(self, tmp_path, capsys, monkeypatch, field):
        def no_run(*args, **kwargs):  # the run would never end
            raise AssertionError("ran a config whose clock cannot reach max_sim_time")

        monkeypatch.setattr(experiments, "run_cell", no_run)
        path = small_config(tmp_path, app_count=2, **{field: 1e-300})
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: {field}: 1e-300 is too small to "
                                           "move the clock at max_sim_time=1000000.0\n")

    def test_directory_config_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot read config {tmp_path}: Is a directory\n"

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, made", [
        (["run"], ""), (["sweep", "--axis", "deadline_variation", "--seeds", "1"], "/cells")],
        ids=["run", "sweep"])
    def test_bad_out_exit_code_before_any_run(self, tmp_path, capsys, monkeypatch, command,
                                              made):
        def no_run(*args, **kwargs):
            raise AssertionError("ran with an unusable --out")

        monkeypatch.setattr(experiments, "run_cell", no_run)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        assert main([command[0], "fixtures/fd-table", *command[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"i/o error: {out}{made}: Not a directory\n"

    def test_os_error_without_a_file_names_no_file(self, tmp_path, capsys, monkeypatch):
        def no_process(*args, **kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(experiments, "run_cell", no_process)
        assert main(["run", "fixtures/fd-table", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "i/o error: Resource temporarily unavailable\n"

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

    def test_changed_prices_compute_fresh_cells(self, tmp_path):
        path = small_config(tmp_path, app_count=3, devices_per_cluster=2)
        args = ["--axis", "battery", "--seeds", "1", "--policy", "mc", "--reservation", "on"]
        out = tmp_path / "sweep"
        assert main(["sweep", path, "--out", str(out)] + args) == 0
        first = (out / "sweep-battery.csv").read_bytes()
        priced = tmp_path / "priced.json"
        priced.write_text(json.dumps(dict(json.loads((tmp_path / "config.json").read_text()),
                                          prices={"messaging_unit": 50})))
        assert main(["sweep", str(priced), "--out", str(out)] + args) == 0
        assert main(["sweep", str(priced), "--out", str(tmp_path / "fresh")] + args) == 0
        rerun = (out / "sweep-battery.csv").read_bytes()
        assert rerun != first
        assert rerun == (tmp_path / "fresh" / "sweep-battery.csv").read_bytes()

    def test_changed_code_computes_fresh_cells(self, tmp_path, monkeypatch):
        cfg = load_config(small_config(tmp_path, app_count=3, devices_per_cluster=2))
        out = tmp_path / "sweep"
        experiments.sweep(cfg, "battery", 1, str(out), policies=["mc"], reservations=[True])
        first = set((out / "cells").iterdir())
        assert len(first) == 6
        real_run_cell = experiments.run_cell
        ran = []

        def counted(scenario, *args):
            ran.append(scenario.label)
            return real_run_cell(scenario, *args)

        monkeypatch.setattr(experiments, "run_cell", counted)
        monkeypatch.setattr(experiments, "_code_fingerprint", lambda: "other code")
        experiments.sweep(cfg, "battery", 1, str(out), policies=["mc"], reservations=[True])
        assert len(ran) == 6
        assert len(set((out / "cells").iterdir()) - first) == 6

    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path, monkeypatch):
        cfg = load_config(small_config(tmp_path, app_count=3, devices_per_cluster=2))
        out = tmp_path / "sweep"
        real_run_cell = experiments.run_cell
        ran = []

        def interrupted_after_two(scenario, *args):
            if len(ran) == 2:
                raise KeyboardInterrupt
            ran.append(scenario.label)
            return real_run_cell(scenario, *args)

        monkeypatch.setattr(experiments, "run_cell", interrupted_after_two)
        with pytest.raises(KeyboardInterrupt):
            experiments.sweep(cfg, "battery", 1, str(out), policies=["mc"], reservations=[True])
        assert sorted(p.name.rsplit("-", 1)[0] for p in (out / "cells").iterdir()) == ran
        monkeypatch.setattr(experiments, "run_cell", real_run_cell)
        experiments.sweep(cfg, "battery", 1, str(out), policies=["mc"], reservations=[True])
        assert len(list((out / "cells").iterdir())) == 6

    @pytest.mark.parametrize("broken", [
        "", '{"trunc', "[]",
        # one value changed in a whole row
        {"avg_delay_s": "x"}, {"avg_delay_s": "nan"}, {"scenario_id": "battery-BA9-mc-resoff-s7"},
    ], ids=["empty", "cut", "list", "text", "nan", "foreign"])
    def test_resume_recomputes_a_broken_cell(self, tmp_path, monkeypatch, broken):
        path = small_config(tmp_path, app_count=2, devices_per_cluster=2)
        args = ["--axis", "battery", "--seeds", "1", "--policy", "mc", "--reservation", "on"]
        out = tmp_path / "sweep"
        assert main(["sweep", path, "--out", str(out)] + args) == 0
        fresh = (out / "sweep-battery.csv").read_bytes()
        cell = sorted((out / "cells").iterdir())[2]
        whole = cell.read_bytes()
        if isinstance(broken, dict):
            broken = json.dumps(dict(json.loads(whole), **broken), sort_keys=True)
        cell.write_text(broken)
        real_run_cell = experiments.run_cell
        ran = []

        def counted(scenario, *args):
            ran.append(scenario.label)
            return real_run_cell(scenario, *args)

        monkeypatch.setattr(experiments, "run_cell", counted)
        assert main(["sweep", path, "--out", str(out)] + args) == 0
        assert ran == [cell.name.rsplit("-", 1)[0]]
        assert (out / "sweep-battery.csv").read_bytes() == fresh
        assert json.loads(cell.read_text()).keys() == set(CSV_COLUMNS)
        assert cell.read_bytes() == whole

    @pytest.mark.parametrize("axis,field,section", [("apps", "app_count", "workload"),
                                                    ("battery", "battery_range", "fleet")])
    def test_axis_a_section_overrides_is_refused(self, tmp_path, capsys, axis, field, section):
        path = (workload_config(tmp_path, [one_task_app()]) if section == "workload"
                else fleet_config(tmp_path))
        out = tmp_path / "sweep"
        assert main(["sweep", path, "--axis", axis, "--seeds", "1", "--out", str(out)]) == 2
        assert (f"config error: axis: {axis!r} sets {field}, which the config's {section!r} "
                "section overrides") in capsys.readouterr().err
        assert not out.exists()  # refused before any cell runs

    @pytest.mark.parametrize("axis,section", [("deadline_variation", "workload"),
                                              ("free_resource", "fleet")])
    def test_axis_a_section_leaves_alone_runs(self, tmp_path, axis, section):
        path = (workload_config(tmp_path, [one_task_app()]) if section == "workload"
                else fleet_config(tmp_path))
        out = tmp_path / "sweep"
        assert main(["sweep", path, "--axis", axis, "--seeds", "1", "--out", str(out),
                     "--policy", "mc", "--reservation", "on"]) == 0
        assert len(list((out / "cells").iterdir())) == len(axis_cells(axis))

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


def write_config(tmp_path, data):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    return str(path)


SMALL_SCENARIO = {"app_count": 2, "clusters": 2, "devices_per_cluster": 2}
FLEET_DEVICE = {"id": "d0", "cpu_capacity": 4000.0, "distance": 10.0}

# Configs that used to exit 1 with a traceback, run silently, or name no field.
HOLES = [
    pytest.param({"prices": {"data_unit": "x"}}, "prices.data_unit", id="prices-string"),
    pytest.param({"sla": {"base_penalty": "x"}}, "sla.base_penalty", id="sla-string"),
    pytest.param({"prices": [1]}, "prices", id="prices-not-object"),
    pytest.param({"sla": 0.1}, "sla", id="sla-not-object"),
    pytest.param({"scenario": [1]}, "scenario", id="scenario-not-object"),
    pytest.param({"scenario": dict(SMALL_SCENARIO, seed="abc")}, "seed", id="seed-string"),
    pytest.param({"scenario": dict(SMALL_SCENARIO, seed=1.5)}, "seed", id="seed-float"),
    pytest.param({"scenario": dict(SMALL_SCENARIO, server_mips=-5)}, "server_mips",
                 id="server-mips-negative"),
    pytest.param({"scenario": dict(SMALL_SCENARIO, label=[1])}, "label", id="label"),
    pytest.param({"scenario": dict(SMALL_SCENARIO, explicit_fleet=[FLEET_DEVICE])},
                 "explicit_fleet", id="explicit-fleet"),
    pytest.param({"scenario": dict(SMALL_SCENARIO, explicit_workload=[])},
                 "explicit_workload", id="explicit-workload"),
    pytest.param({"prices": {"server_divisor": math.nan}}, "prices.server_divisor",
                 id="server-divisor-nan"),
    pytest.param({"prices": {"messaging_unit": True}}, "prices.messaging_unit",
                 id="messaging-unit-bool"),
    pytest.param({"fleet": [dict(FLEET_DEVICE, cpu_capacity=math.nan)]},
                 "fleet[0].cpu_capacity", id="fleet-capacity-nan"),
    pytest.param({"fleet": [dict(FLEET_DEVICE, cpu_capacity="big")]},
                 "fleet[0].cpu_capacity", id="fleet-capacity-string"),
    pytest.param({"fleet": [dict(FLEET_DEVICE, cluster=0),
                            dict(FLEET_DEVICE, id="d1", cluster="a")]},
                 "fleet[1].cluster", id="fleet-cluster-mixed-types"),
    pytest.param({"fleet": [dict(FLEET_DEVICE, cluster=0.5)]}, "fleet[0].cluster",
                 id="fleet-cluster-fraction"),
    pytest.param({"fleet": [dict(FLEET_DEVICE, discharge_rates=0.2)]},
                 "fleet[0].discharge_rates", id="fleet-discharge-not-list"),
    pytest.param({"fleet": None}, "fleet", id="fleet-null"),
    # a misspelt section was ignored, so the run took that section's defaults
    pytest.param({"scenario": SMALL_SCENARIO, "price": {"messaging_unit": 50}}, "price",
                 id="section-price"),
    pytest.param({"scenarios": SMALL_SCENARIO}, "scenarios", id="section-scenarios"),
    pytest.param({"scenario": SMALL_SCENARIO, "Fleet": [FLEET_DEVICE]}, "Fleet",
                 id="section-fleet-capitalised"),
]


class TestRuleTable:
    @pytest.mark.parametrize("data,field", HOLES)
    def test_hole_exit_code_names_field(self, tmp_path, capsys, data, field):
        assert main(["run", write_config(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err

    @staticmethod
    def numeric_fields(cls):
        numeric = {"int", "float", "tuple[float, float]", "tuple[int, int]"}
        return {f.name: f.type for f in dataclasses.fields(cls) if f.type in numeric}

    def test_every_scenario_number_has_one_rule(self):
        fields = self.numeric_fields(Scenario)
        assert set(SCENARIO_RULES) == set(fields)
        for name, rule in SCENARIO_RULES.items():
            assert rule.integer == ("int" in fields[name]), name
            assert rule.shape == (2 if fields[name].startswith("tuple") else 1), name
        others = {f.name for f in dataclasses.fields(Scenario)} - set(fields)
        assert others == {"policy", "reservation", "label", "scripted_utilisation",
                          "explicit_fleet", "explicit_workload"}

    def test_every_price_and_sla_number_has_one_rule(self, tmp_path):
        assert set(PRICE_RULES) == set(self.numeric_fields(PriceBook))
        # delay_time is each violation's lateness, which the run computes
        assert set(SLA_RULES) == set(self.numeric_fields(SlaTerms)) - {"delay_time"}
        with pytest.raises(ConfigError, match=r"^sla\.delay_time: unknown field"):
            load_config(write_config(tmp_path, {"sla": {"delay_time": 1.0}}))

    def test_every_fleet_and_task_number_has_one_rule(self):
        assert set(FLEET_RULES) == FLEET_SPEC_KEYS - {"id", "tier"}
        assert set(TASK_RULES) == TASK_SPEC_KEYS - {"id"}

    @pytest.mark.parametrize("value", [0, -1, 2**70])
    def test_seed_any_integer(self, tmp_path, value):
        assert load_config(small_config(tmp_path, seed=value)).scenario.seed == value


def fleet_run_csv(tmp_path, name, **device):
    path = write_config(tmp_path, {"scenario": {"app_count": 2, "clusters": 1},
                                   "fleet": [dict(FLEET_DEVICE, **device)]})
    assert main(["run", path, "--out", str(tmp_path / name)]) == 0
    return (tmp_path / name / "run.csv").read_bytes()


class TestFreeResourceFraction:
    def test_free_alone_sets_native_load(self, tmp_path):
        free_only = fleet_run_csv(tmp_path, "free", free_resource_fraction=0.1)
        assert free_only == fleet_run_csv(tmp_path, "native", native_utilisation=0.9)
        assert free_only != fleet_run_csv(tmp_path, "idle")

    def test_free_alone_sets_node(self, tmp_path):
        cfg = load_config(fleet_config(tmp_path, free_resource_fraction=0.25))
        node = node_from_spec(cfg.scenario.explicit_fleet[1], cfg.scenario)
        assert (node.free_resource_fraction, node.native_utilisation) == (0.25, 0.75)

    @pytest.mark.parametrize("free,native", [(0.1, 0.5), (0.6, 0.4 + 1e-8)])
    def test_inconsistent_pair_named(self, tmp_path, free, native):
        with pytest.raises(ConfigError, match=r"^fleet\[1\]\.free_resource_fraction: must "
                                              r"equal 1 - native_utilisation"):
            load_config(fleet_config(tmp_path, free_resource_fraction=free,
                                     native_utilisation=native))

    def test_complements_accepted(self, tmp_path):
        load_config(fleet_config(tmp_path, free_resource_fraction=1.0 - 0.37,
                                 native_utilisation=0.37))


class TestSweepFlags:
    @pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-2"),
                                            ("--workers", "0"), ("--seeds", "two")])
    def test_below_one_exit_code(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", small_config(tmp_path), "--axis", "battery",
                  "--out", str(tmp_path / "o"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def in_process_pool(sizes: list):
    """A ``ProcessPoolExecutor`` stand-in that records its size and maps in this process."""

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    return InProcessPool


class TestSweepPool:
    """A parallel sweep never has more processes than seeds with cells to compute.

    A seed's cells are one job, run on one ``Draws``.
    """

    ARGS = ["--axis", "battery", "--seeds", "1", "--policy", "mc", "--reservation", "on"]

    def test_pool_capped_at_the_cells(self, tmp_path, monkeypatch):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool(sizes))
        out = tmp_path / "sweep"
        path = small_config(tmp_path, app_count=3, devices_per_cluster=2)
        args = [*self.ARGS[:2], "--seeds", "3", *self.ARGS[4:]]
        assert main(["sweep", path, "--out", str(out), "--workers", "64"] + args) == 0
        assert sizes == [3]  # one process per seed, not one per cell
        assert len(list((out / "cells").iterdir())) == 18

    @pytest.mark.parametrize("left", [0, 1])
    def test_one_cell_or_none_left_runs_without_a_pool(self, tmp_path, monkeypatch, left):
        path = small_config(tmp_path, app_count=3, devices_per_cluster=2)
        out = tmp_path / "sweep"
        assert main(["sweep", path, "--out", str(out)] + self.ARGS) == 0
        for cell in sorted((out / "cells").iterdir())[:left]:
            cell.unlink()
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool(sizes))
        assert main(["sweep", path, "--out", str(out), "--workers", "4"] + self.ARGS) == 0
        assert sizes == []
        assert len(list((out / "cells").iterdir())) == 6


class TestSweepWorkers:
    """A sweep's seed jobs write the same bytes whether they run in turn or in a pool."""

    def test_pool_and_serial_sweeps_write_identical_files(self, tmp_path):
        cfg = load_config(small_config(tmp_path, tasks_per_app=1, submit_interval=0.5,
                                       devices_per_cluster=2))
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"workers-{workers}"
            experiments.sweep(cfg, "apps", 2, str(out), workers=workers,
                              policies=["mc", "baseline"], reservations=[True])
            outs.append({path.relative_to(out): path.read_bytes()
                         for path in out.rglob("*") if path.is_file()})
        assert len(outs[0]) == 1 + 2 * 8 * 2  # the CSV and every cell
        assert outs[0] == outs[1]

    def test_each_sweep_draws_each_seed_workload_once(self, tmp_path, monkeypatch):
        cfg = load_config(small_config(tmp_path, tasks_per_app=1, submit_interval=0.5,
                                       devices_per_cluster=2))
        drawn = []

        def counted(scenario):
            drawn.append((scenario.seed, scenario.app_count))
            return generate_workload(scenario)

        monkeypatch.setattr("fogsim.engine.generate_workload", counted)
        for out in ("a", "b"):  # no draw outlives its sweep
            experiments.sweep(cfg, "apps", 2, str(tmp_path / out), policies=["mc"],
                              reservations=[True, False])
        assert drawn == [(1, 560), (2, 560)] * 2  # largest cell first; the rest read a prefix


class TestSimTimeGuard:
    def test_events_after_the_last_task_do_not_trip_it(self, tmp_path):
        # every task finishes by t=40; stale events past it stay in the heap
        out = tmp_path / "o"
        assert main(["run", small_config(tmp_path, max_sim_time=40.0), "--out", str(out)]) == 0
        [report] = json.loads((out / "run.json").read_text()).values()
        assert report["requests"] == 40


# Values a fuzzed field takes: wrong types, non-finite numbers, booleans,
# numeric strings, zero, negatives, lists of the wrong length and in-range
# values. No tiny positive numbers and no big integers, so that every
# accepted config finishes within seconds.
FUZZ_POOL = ["x", "2", "", None, True, False, {}, math.nan, math.inf, -math.inf, 0, 0.0,
             -1, -2.5, 1, 3, 0.5, 40.0, [], [1.0], [2.0, 1.0], [-1.0, 1.0], [0.5, 4.0],
             [1, 2, 3]]
FUZZ_DEVICE = {"id": "d0", "tier": "fog_device", "cpu_capacity": 4000.0,
               "free_resource_fraction": 0.6, "native_utilisation": 0.4, "battery_charge": 80.0,
               "discharge_rates": [0.2], "distance": 10.0, "max_supported_distance": 45.0,
               "caf_score": 1.0, "cluster": 0, "bandwidth": 100000.0}
FUZZ_TASK = {"id": "t0", "length": 1000.0, "data_size": 40960.0, "deadline": 8.0,
             "submit_time": 1.0}
FUZZ_TARGETS = ([("scenario", f) for f in sorted(SCENARIO_RULES) +
                 ["policy", "reservation", "scripted_utilisation"]] +
                [("fleet", f) for f in FUZZ_DEVICE] + [("task", f) for f in FUZZ_TASK])


class TestConfigFuzz:
    @settings(max_examples=600, derandomize=True, database=None, deadline=None,
              # every example rewrites the same config file and output directory
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(FUZZ_TARGETS), value=st.sampled_from(FUZZ_POOL))
    def test_one_bad_field_is_named_or_runs(self, tmp_path, capsys, target, value):
        section, field = target
        path = small_config(tmp_path, max_sim_time=600.0)
        data = json.loads((tmp_path / "config.json").read_text())
        where = ""
        if section == "scenario":
            data["scenario"][field] = value
        elif section == "fleet":
            data["fleet"] = [{"id": "s0", "cpu_capacity": 8000.0, "tier": "fog_server"},
                             dict(FUZZ_DEVICE, **{field: value})]
            where = "fleet[1]"
        else:
            del data["scenario"]["app_count"]  # taken from the workload's one app
            data["workload"] = [{"id": "a0", "tasks": [dict(FUZZ_TASK, **{field: value})]}]
            where = "workload[0].tasks[0]"
        (tmp_path / "config.json").write_text(json.dumps(data))
        code = main(["run", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err
        if code == 2 and err.startswith("run error: "):
            # the max_sim_time guard stopped a run the value made too slow
            assert re.search(r"max_sim_time=[\d.]+; [1-9]\d* tasks unfinished", err), err
        elif code == 2:
            assert err.startswith(f"config error: {where}"), err
            assert field in err or field.replace("_", " ") in err, err


class TestLazyPoolImport:
    def test_importing_experiments_leaves_the_process_pool_unloaded(self):
        src = str(Path(experiments.__file__).resolve().parents[1])
        code = "import sys, fogsim.experiments; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestEntryPoint:
    """``python -m fogsim`` in its own interpreter, from a scratch working directory."""

    def test_module_runs_and_refuses_a_missing_config(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

        def fogsim(*args):
            return subprocess.run([sys.executable, "-m", "fogsim", *args], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=120)

        out = tmp_path / "out"
        done = fogsim("run", "fixtures/fd-table", "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"wrote {out / 'run.csv'} and {out / 'run.json'}\n"
        assert (out / "run.csv").stat().st_size and (out / "run.json").stat().st_size
        missing = tmp_path / "missing.json"
        done = fogsim("run", str(missing), "--out", str(tmp_path / "none"))
        assert done.returncode == 2
        assert done.stderr == f"config error: config file not found: {missing}\n"
        assert not (tmp_path / "none").exists()
