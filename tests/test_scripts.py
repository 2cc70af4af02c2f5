"""Smoke tests of the scripts under ``scripts/``.

The two experiment scripts call `null_significance` on every replica, so
they run here as fresh processes at a few replicas each (about a quarter
second apiece), the CSV layer timer on one block of 2^16 rows (enough for
its ``_write_csv`` to fork workers where there are two CPUs), and the
start-up timer at one run of each command; each must finish cleanly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import holonoise

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args", [
    ("run_null_calibration.py", ["--replicas", "4"]),
    ("run_snr_scaling.py",
     ["--replicas", "2", "--n-avgs", "50", "100", "--segment-length", "1024"]),
    ("time_csv_layer.py", ["--rows", "65536", "--repeats", "1"]),
    ("time_cli_start.py", ["--repeats", "1"]),
])
def test_script_runs(script, args):
    # The child finds holonoise where this interpreter found it.
    package_root = str(Path(holonoise.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
