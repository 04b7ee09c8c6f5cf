"""The demos and the example scenario run to completion.

Each runs in a fresh interpreter, the way a user starts it, with warnings
raised as errors: a RuntimeWarning in a user-facing run fails here as it
would in process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["demos/make_attaining.py"],
    ["demos/spectra_and_bumps.py"],
    ["demos/gap_routes.py"],
    ["-m", "minatt.cli", "run", "demos/scenario.json"],
], ids=["make_attaining", "spectra_and_bumps", "gap_routes", "scenario"])
def test_demo_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
