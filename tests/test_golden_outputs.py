"""Byte-level golden outputs of ``fogsim run``.

The SHA-256 of the ``run.csv`` and ``run.json`` bytes pins every number a
run reports. A refactor that claims to leave behaviour unchanged must keep
these digests; a change that means to alter results updates them on
purpose, in the same change, and says why.
"""

import hashlib
import json

import pytest

from fogsim.cli import main

# The acceptance scenario (tests/test_acceptance.py) as a config section.
ACCEPT_SCENARIO = {
    "clusters": 2,
    "devices_per_cluster": 6,
    "submit_interval": 5.0,
    "fluctuation_interval": 2.0,
    "deadline_range": [6.0, 16.0],
    "reservation_period": 60.0,
    "cluster_block": 4,
    "admission_optimism": 1.5,
    "reservation_cap_fraction": 0.3,
    "distance_range": [5.0, 30.0],
    "device_mips": [3000.0, 6000.0],
    "initial_utilisation": [0.2, 0.55],
    "policy": "both",
    "reservation": "both",
}

GOLDEN = {
    "fd-table": (
        "bfb603a604fd881ae40e5d6a2c6bf2ad6b437250a4bb0b33958ccd0883311430",
        "e4a5cc738093c2e8e13cec14b929345e886a399aa9b5a4707bdd09f686895a97",
    ),
    "accept-70": (
        "d4f9fbd374b1df6c74d878a5e482b0d4d8b2957473c413ee548e2b6df1ccdc8c",
        "46aec69dbb06e8ae52c1ad8d44dd6e2de4cecdc7de6c1c968bdca31dff14f5ca",
    ),
    "accept-560": (
        "2ccb327fec9df4f80337ba46071f940cbc62239aa7b1a9193ec40a9060ce5369",
        "bfd2cf42e8ee32294f424934ab842647187dfcca232325c4e8e9703a908edd31",
    ),
}


def _config_path(name, tmp_path):
    if name == "fd-table":
        return "fixtures/fd-table"
    apps = int(name.split("-")[1])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"scenario": dict(ACCEPT_SCENARIO, app_count=apps)}))
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_recorded_digests(name, tmp_path):
    out = tmp_path / "out"
    assert main(["run", _config_path(name, tmp_path), "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("run.csv", "run.json"))
    assert got == GOLDEN[name]
