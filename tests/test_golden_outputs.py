"""Byte-level golden outputs of ``fogsim run`` and ``fogsim sweep``.

The SHA-256 of the ``run.csv`` and ``run.json`` bytes pins every number a
run reports; the digest of one sweep CSV pins the per-seed rows and the
per-cell means of a migration-heavy grid. A refactor that claims to leave behaviour unchanged must keep
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

# Same-timestamp collisions on the default 40-device fleet: every tick is
# also a reservation rotation, scripted loads land on exact tick times and
# deadlines swing three times per task.
COLLISION_SCENARIO = {
    "app_count": 24,
    "deadline_variation_pct": 80,
    "deadline_changes_per_task": 3,
    "fluctuation_interval": 1.0,
    "reservation_period": 1.0,
    "scripted_utilisation": [[2.0, "c0d03", 0.05], [8.0, "c1d07", 0.03], [15.0, "c0d11", 0.9],
                             [23.0, "c1d00", 0.04], [31.0, "c0d00", 0.05], [40.0, "c1d12", 0.6]],
    "policy": "both",
    "reservation": "both",
}

GOLDEN = {
    "collision": (
        "5faf2b97dd508d17442e7c962e38f8725f4bfc63ebf52fdb977181371e800c10",
        "aeaa5d1d7c7ad37b3614ad853dff296f7026fa6ba98239151264b994ad5e6ebc",
    ),
    "fd-table": (
        "bfb603a604fd881ae40e5d6a2c6bf2ad6b437250a4bb0b33958ccd0883311430",
        "e4a5cc738093c2e8e13cec14b929345e886a399aa9b5a4707bdd09f686895a97",
    ),
    "accept-70": (
        "d4f9fbd374b1df6c74d878a5e482b0d4d8b2957473c413ee548e2b6df1ccdc8c",
        "8dea7d475bc48bf8ca2bf460537c7b9f5af694f2c53a03ee5b8b910445dd1ce1",
    ),
    "accept-560": (
        "2ccb327fec9df4f80337ba46071f940cbc62239aa7b1a9193ec40a9060ce5369",
        "45629e3983833c09a67e5f380e49d3af3bb1f698e66872e68e769178bb2d21a7",
    ),
}


def _config_path(name, tmp_path):
    if name == "fd-table":
        return "fixtures/fd-table"
    if name == "collision":
        scenario = COLLISION_SCENARIO
    else:
        scenario = dict(ACCEPT_SCENARIO, app_count=int(name.split("-")[1]))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"scenario": scenario}))
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_recorded_digests(name, tmp_path):
    out = tmp_path / "out"
    assert main(["run", _config_path(name, tmp_path), "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("run.csv", "run.json"))
    assert got == GOLDEN[name]


# A small two-cluster grid; the deadline axis drives the migration path.
SWEEP_SCENARIO = {
    "app_count": 6,
    "clusters": 2,
    "devices_per_cluster": 3,
    "submit_interval": 4.0,
    "fluctuation_interval": 2.0,
    "deadline_range": [6.0, 16.0],
    "reservation_period": 20.0,
    "policy": "both",
    "reservation": "both",
}

SWEEP_GOLDEN = "4712e804497fbfe258e6ec2372177fbd903d9e791d3ccfc008c1096cb17d39de"


def test_sweep_output_matches_recorded_digest(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"scenario": SWEEP_SCENARIO}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--axis", "deadline_variation", "--seeds", "2",
                 "--out", str(out)]) == 0
    data = (out / "sweep-deadline_variation.csv").read_bytes()
    assert len(data.splitlines()) == 97  # header + 64 seed rows + 32 cell means
    assert hashlib.sha256(data).hexdigest() == SWEEP_GOLDEN
