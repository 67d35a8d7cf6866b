"""The demo scripts run and print exactly what they printed when recorded.

Each demo runs in its own interpreter with ``src`` on the path, from a
scratch working directory. A change that means to alter a demo's output
updates its digest here, in the same change, and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT = {
    "01_score_devices.py": "1776e99d2d2201910eb8feb7dd36ec88c5b349366fd9470c90447053dbfbb01d",
    "02_network_delays.py": "20c2bfd7feccb6886b17569d119e31e7913c51706bef4de5b77b1a34384fb52a",
    "03_pricing.py": "9d6680ce0b6aa99951c9d0d37701e4d081c6f6ac8e978acce6a16239d635a9bf",
    # re-pinned when the engine's task record stopped keeping the nodes a task
    # ran on: the demo no longer prints a node journey line
    "04_deadline_migration.py": "de6b1fbc68187ea935e19857947b661a278483b8663e7389dd767924d8a3c6e4",
    "05_full_run.py": "c7f87d0f5c82b85c60efe5f50886f719a384af1d1971d644a49a6342e1beb417",
    "06_sweep_experiment.py": "f0e3bab78170e403c4d777ceac1b9d71eb8b077d633a09ee9b2fbdd8a10f67cc",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_stdout_matches_recorded_digest(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT[demo]
